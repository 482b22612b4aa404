"""Claim families: the family table, exact left sides, closed-form right
sides, instance verification, prime sweeps, and proof-chain replays.

Each family is one ``FamilyInfo`` entry in ``FAMILIES``, which holds all
of its facts: the registry fields the CLI reads, the side conditions as
ordered (predicate, reason) pairs, the shape of the truncated series, the
closed-form case table, and the primes established by hand computation
instead of the Gamma evaluator.  ``admissible``, ``lhs_spec``,
``rhs_form``, ``verify`` and ``scan`` only read the entry, so adding a
family is adding one entry.

Seven families are registered.  Two carry a free integer parameter r
(``thm1``, ``thm2``); ``conj1`` is thm2's entry conjectured mod p^6 for
p > 3, built from it by ``FamilyInfo._replace``; ``conj3`` shares thm2's
series, Gamma quotient and finite sum; the remaining three (``lr3``,
``d2``, ``a1``) take one r each and split on the residue class of p.
The ``lr3``/``d2`` closed forms are Long-Ramakrishna's (Adv. Math. 290,
2016).

``verify``, ``lhs_residue``, ``rhs_form`` and ``rhs_residue`` read what
does not depend on p from ``_plan``, formed once per (entry, r): the
left side's series plan, the Gamma factors and the finite sum.  The
exact ``Fraction`` route (``lhs_spec``, ``lhs_value``) is the reference.

The proof chains replay the derivations of ``thm1`` and ``thm2`` on the
identity code in ``hyperkernel``, each step's valuation read off an
integral (numerator, denominator) pair, which needs no canonical form.
The chains read the pairs the fuzzers compare: the thm1 chain those of
``_whipple_parts``, ``_four_slot`` and ``_karlsson_minton_sum``, the thm2
chain those of ``_d1_parts``, whose one field denominator it divides by
in its remainder block.  Both read series shapes and closed forms from
FAMILIES, and the claim's left side from the plan as a residue, forming
its exact pair on the same plan only where that residue leaves a
difference at 0.

A verification never asserts more than v_p(lhs - rhs) >= k for the
family's modulus exponent k; the witness valuation is always reported.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from fractions import Fraction
from math import gcd

from .cyclotomic import _PRODUCT, CycElement
from .hyperkernel import (
    SeriesSpec,
    _d1_parts,
    _flat,
    _four_slot,
    _horner_plan,
    _karlsson_minton_sum,
    _lift,
    _minus,
    _plus,
    _product,
    _residue,
    _same,
    _split,
    _sum,
    _times,
    _value,
    _whipple_parts,
    eval_truncated,
    hypergeometric_sum,
)
from .padic import PadicContext, Residue, vp
from .pgamma import gamma_p
from .rationals import is_prime, iter_primes, pochhammer, rising
from .records import FrozenRecord, Record


class InadmissibleInstanceError(ValueError):
    """The (p, r) pair fails the family's side conditions."""


class UnsupportedInstanceError(RuntimeError):
    """The instance is admissible but outside machine verification."""


class Admissibility(FrozenRecord):
    __slots__ = ("ok", "reason")
    _defaults = {"reason": ""}

    def __bool__(self) -> bool:
        return self.ok


class ClosedForm(FrozenRecord):
    """Right side as coefficient * prod Gamma(arg)^exp * finite_sum.

    The Gamma factors are always p-adic units, so the p-valuation of the
    whole form is carried entirely by coefficient * finite_sum.
    """

    __slots__ = (
        "coefficient",
        "gamma_factors",  # of (argument: Fraction, exponent: int)
        "finite_sum", "case_label",
    )


class FamilyInfo(FrozenRecord):
    """Everything the package knows about one claim family.  An entry
    holds functions, and compares and hashes as itself: ``_plan`` is
    keyed on it, so a replaced entry never reads its predecessor's plan."""

    __slots__ = (
        "id", "description", "modulus_exponent", "takes_r",
        "default_r_values",  # a fixed-weight family lists its one r
        "conjecture", "default_p_max",
        # ordered (predicate(p, r), reason) pairs; the first that fails is reported
        "conditions",
        # r -> (a, e, m, c): the left side is sum_{k<p} (m*k + c) (a)_k^e / k!^e
        "series",
        # p % case_modulus -> (coefficient(p, r), case label); the right side
        # is coefficient * finite_sum(r) * prod Gamma_p(x)^j over gammas(r)
        "cases", "case_modulus", "gammas", "finite_sum",
        "hand_verified",  # primes established by direct hand computation
    )
    _defaults = {
        "case_modulus": 1,
        "gammas": lambda r: (),
        "finite_sum": lambda r: Fraction(1),
        "hand_verified": (),
    }

    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def canonical_r(self) -> int:
        return self.default_r_values[0]


def _parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


def _weighted_tail_sum(r: int) -> Fraction:
    """The finite factor sum_{k=0}^{1-r} (r-1)_k (r/3)_k^3 / (k! (2r/3)_k^3).
    At r = -1000 it has ~6.7 kbit (under 1 KB) and takes 4-16 ms of CPU to
    form; ``_plan`` forms it once per family entry and r."""
    return hypergeometric_sum(
        upper=(Fraction(r - 1), Fraction(r, 3), Fraction(r, 3), Fraction(r, 3)),
        lower=(Fraction(2 * r, 3),) * 3,
        n_terms=(1 - r) + 1,
    )


def _sixth_power(r: int) -> tuple:
    return Fraction(r, 3), 6, 6, r


def _gamma_quotient(r: int) -> tuple:
    """Gamma_p(1 + r/3)^2 Gamma_p(1 + 2r/3)^-3 Gamma_p(1 - r/3)^-4."""
    return (
        (1 + Fraction(r, 3), 2),
        (1 + Fraction(2 * r, 3), -3),
        (1 - Fraction(r, 3), -4),
    )


_R_AT_MOST_ONE = (lambda p, r: r <= 1, "r must be at most 1")
_R_PRIME_TO_3 = (lambda p, r: gcd(r, 3) == 1, "r must be coprime to 3")
_P_AT_LEAST_5 = (lambda p, r: p >= 5, "p must be at least 5")
_THM2 = FamilyInfo(
    "thm2",
    "sixth-power series (weight 6k+r) vs Gamma closed form, mod p^5",
    5, True, (1, -1, -2, -4, -5), False, 47,
    conditions=(
        _R_AT_MOST_ONE,
        _R_PRIME_TO_3,
        (lambda p, r: (p + r) % 3 == 0, "p + r must vanish mod 3"),
        (lambda p, r: p >= 3 - r, "p must be at least 3 - r"),
    ),
    series=_sixth_power,
    cases={
        0: (lambda p, r: Fraction(_parity_sign(r + 1) * 80 * r * p ** 4, 81), "gamma-closed-form")
    },
    gammas=_gamma_quotient,
    finite_sum=_weighted_tail_sum,
    hand_verified=(2,),
)

FAMILIES: dict[str, FamilyInfo] = {
    f.id: f
    for f in (
        FamilyInfo(
            "lr3",
            "cubed half-integer series vs fourth Gamma power, mod p^3",
            3, False, (0,), False, 97,
            conditions=((lambda p, r: p != 2, "p must be odd"),),
            series=lambda r: (Fraction(1, 2), 3, 0, 1),
            cases={
                1: (lambda p, r: Fraction(-1), "p%4=1"),
                3: (lambda p, r: Fraction(-(p * p), 16), "p%4=3"),
            },
            case_modulus=4,
            gammas=lambda r: ((Fraction(1, 4), 4),),
        ),
        FamilyInfo(
            "d2",
            "sixth-power series (weight 6k+1) vs ninth Gamma power, mod p^6",
            6, False, (1,), False, 23,
            conditions=(_P_AT_LEAST_5,),
            series=_sixth_power,
            cases={
                1: (lambda p, r: Fraction(-p), "p%6=1"),
                5: (lambda p, r: Fraction(-10 * p ** 4, 27), "p%6=5"),
            },
            case_modulus=6,
            gammas=lambda r: ((Fraction(1, 3), 9),),
        ),
        FamilyInfo(
            "a1",
            "sixth-power series (weight 6k-1) vs ninth Gamma power, mod p^5",
            5, False, (-1,), False, 47,
            conditions=(_P_AT_LEAST_5,),
            series=_sixth_power,
            cases={
                1: (lambda p, r: Fraction(140 * p ** 4), "p%6=1"),
                5: (lambda p, r: Fraction(378 * p), "p%6=5"),
            },
            case_modulus=6,
            gammas=lambda r: ((Fraction(2, 3), 9),),
        ),
        FamilyInfo(
            "thm1",
            "fifth-power series (weight 10k+r) vanishing mod p^4",
            4, True, (1, -1, -3, -7, -9), False, 200,
            conditions=(
                _R_AT_MOST_ONE,
                (lambda p, r: r % 2 != 0, "r must be odd"),
                (lambda p, r: gcd(r, 5) == 1, "r must be coprime to 5"),
                (lambda p, r: (2 * p + r) % 5 == 0, "2p + r must vanish mod 5"),
                (lambda p, r: 2 * p >= 5 - r, "p must be at least (5 - r)/2"),
            ),
            series=lambda r: (Fraction(r, 5), 5, 10, r),
            cases={0: (lambda p, r: Fraction(0), "rhs-zero")},
        ),
        _THM2,
        _THM2._replace(
            id="conj1",
            description="thm2 closed form conjecturally mod p^6 (p > 3)",
            modulus_exponent=6,
            conjecture=True,
            default_p_max=23,
            conditions=_THM2.conditions + ((lambda p, r: p > 3, "p must exceed 3"),),
        ),
        FamilyInfo(
            "conj3",
            "sixth-power series vs linear-in-p Gamma form, conjecturally mod p^6",
            6, True, (1, -1, -2, -4, -5), True, 23,
            conditions=(
                _R_AT_MOST_ONE,
                _R_PRIME_TO_3,
                (lambda p, r: p >= 7, "p must be at least 7"),
                (lambda p, r: (p - r) % 3 == 0, "p - r must vanish mod 3"),
                (lambda p, r: p >= 3 - 2 * r, "p must be at least 3 - 2r"),
            ),
            series=_sixth_power,
            cases={
                0: (lambda p, r: Fraction(_parity_sign(r) * 8 * r * p, 3), "gamma-closed-form")
            },
            gammas=_gamma_quotient,
            finite_sum=_weighted_tail_sum,
        ),
    )
}


def family(claim_id: str) -> FamilyInfo:
    try:
        return FAMILIES[claim_id.lower()]
    except KeyError:
        raise ValueError(
            f"unknown claim {claim_id!r}; known: {', '.join(sorted(FAMILIES))}"
        ) from None


def resolve_r(claim_id: str, r: int | None) -> int:
    """The weight r to use: the one given, or a fixed-weight family's own.
    An r that is not None and not an int (a bool included) is a TypeError."""
    fam = family(claim_id)
    if r is not None and type(r) is not int:
        raise TypeError(f"r must be an int, got {r!r}")
    if fam.takes_r:
        if r is None:
            raise ValueError(f"claim {fam.id} requires an r value")
        return r
    if r is not None and r != fam.canonical_r:
        raise ValueError(
            f"claim {fam.id} has a fixed weight; omit r or pass {fam.canonical_r}"
        )
    return fam.canonical_r


def admissible(claim_id: str, p: int, r: int | None = None) -> Admissibility:
    """Side conditions of the claim at (p, r), with a reason when they fail.
    A p or r that is not an int (a bool included) is a TypeError."""
    fam = family(claim_id)
    if type(p) is not int:
        raise TypeError(f"p must be an int, got {p!r}")
    try:
        r = resolve_r(claim_id, r)
    except ValueError as exc:
        return Admissibility(False, str(exc))
    if not is_prime(p):
        return Admissibility(False, f"{p} is not prime")
    for holds, reason in fam.conditions:
        if not holds(p, r):
            return Admissibility(False, reason)
    return Admissibility(True)


def _require_admissible(claim_id: str, p: int, r: int, label: str | None = None) -> None:
    """Raise InadmissibleInstanceError unless (p, r) is admissible; the
    message names the instance by ``label``, the claim id by default."""
    adm = admissible(claim_id, p, r)
    if not adm:
        raise InadmissibleInstanceError(f"({label or claim_id}, p={p}, r={r}): {adm.reason}")


def lhs_spec(claim_id: str, p: int, r: int | None = None) -> SeriesSpec:
    """The truncated series of the claim, summed for k = 0 .. p-1."""
    a, power, slope, const = family(claim_id).series(resolve_r(claim_id, r))
    weight = (Fraction(slope), Fraction(const))
    return SeriesSpec(upper=(a,) * power, lower=(), truncation=p, weight=weight, factorial_power=power)


def lhs_value(claim_id: str, p: int, r: int | None = None) -> Fraction:
    """Exact rational value of the claim's truncated series."""
    return eval_truncated(lhs_spec(claim_id, p, r))


def _require_context_for(ctx: PadicContext, p: int) -> None:
    if ctx.p != p:
        raise ValueError(f"context is for p = {ctx.p}, not p = {p}")


@functools.lru_cache(maxsize=2048)
def _plan(fam: FamilyInfo, r: int) -> tuple:
    """(series, gammas, finite sum) of a family entry at r, formed once:
    the left side's ``_horner_plan`` with its tallies, and the right side's
    Gamma factors and finite sum.  The least recently used of 2048 plans
    is dropped."""
    a, power, slope, const = fam.series(r)
    (up, *weight), _ = _split([a, slope, const])
    series = _horner_plan([up] * power, [], (1, 1), power, weight, tally=True)
    return series, tuple(fam.gammas(r)), fam.finite_sum(r)


def lhs_residue(claim_id: str, p: int, r: int | None, ctx: PadicContext) -> Residue:
    """Residue of the claim's truncated series mod ctx's p^K.  Every term
    (wk + r)(a)_k^e / k!^e with k < p has a p-adic unit denominator, so
    this is exact, in O(p) modular multiplies."""
    _require_context_for(ctx, p)
    series, _, _ = _plan(family(claim_id), resolve_r(claim_id, r))
    return Residue(_residue(series, p, p, ctx.modulus), ctx)


def _case(fam: FamilyInfo, p: int) -> tuple:
    """The (coefficient, case label) of the family's closed form at p."""
    case = fam.cases.get(p % fam.case_modulus)
    if case is None:
        raise InadmissibleInstanceError(f"({fam.id}, p={p}): no closed form for this p")
    return case


def rhs_form(claim_id: str, p: int, r: int | None = None) -> ClosedForm:
    """Closed-form right side at (p, r), as an unevaluated product."""
    fam = family(claim_id)
    r = resolve_r(claim_id, r)
    coefficient, label = _case(fam, p)
    _, gammas, finite_sum = _plan(fam, r)
    return ClosedForm(coefficient(p, r), gammas, finite_sum, label)


def _gamma_product(factors, ctx: PadicContext) -> int:
    """prod Gamma_p(x)^j over the (x, j) factors, mod ctx's p^k."""
    m = ctx.modulus
    return math.prod(pow(gamma_p(x, ctx).value, j, m) for x, j in factors) % m


def _rhs_residue(claim_id, p, r, ctx, full_precision: bool) -> Residue:
    """The closed form mod p^k on ints: the scalar coefficient * finite sum
    has valuation v, and the Gamma factors, units, are taken mod p^(k - v),
    or mod p^k with ``full_precision``."""
    fam = family(claim_id)
    r = resolve_r(claim_id, r)
    if ctx is None:
        ctx = PadicContext(p, fam.modulus_exponent)
    _require_context_for(ctx, p)
    if p in fam.hand_verified:
        raise UnsupportedInstanceError(
            "the Gamma evaluator requires odd p; the p = 2, r = 1 instance "
            "is established by direct hand computation and excluded here"
        )
    coefficient, _ = _case(fam, p)
    _, gammas, s = _plan(fam, r)
    c = coefficient(p, r)
    num, den = c.numerator * s.numerator, c.denominator * s.denominator
    if num == 0:
        return Residue(0, ctx)
    vn, vd = vp(num, p), vp(den, p)
    v = vn - vd
    if v < 0:
        raise RuntimeError("closed form is not p-integral")
    if v >= ctx.k:
        return Residue(0, ctx)
    unit_ctx = ctx if full_precision else PadicContext(p, ctx.k - v)
    unit = unit_ctx.reduce(num // p ** vn * pow(den // p ** vd, -1, unit_ctx.modulus)).value
    acc = unit * _gamma_product(gammas, unit_ctx)
    return Residue(p ** v * acc % ctx.modulus, ctx)


def rhs_residue(claim_id: str, p: int, r: int | None = None, ctx: PadicContext | None = None) -> Residue:
    """Residue of the closed form mod p^k (k from ctx, default the family's)."""
    return _rhs_residue(claim_id, p, r, ctx, full_precision=False)


def rhs_residue_direct(claim_id: str, p: int, r: int | None = None, ctx: PadicContext | None = None) -> Residue:
    """Reference route: every Gamma factor at full context precision."""
    return _rhs_residue(claim_id, p, r, ctx, full_precision=True)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class CongruenceReport(FrozenRecord):
    """One verified claim instance."""

    __slots__ = (
        "claim", "p", "r", "modulus_exponent", "case_label", "lhs_residue",
        "rhs_residue",
        # None means the difference is exactly 0; capped at modulus_exponent
        # when the right side carries Gamma factors
        "witness_valuation",
        "passed", "elapsed_ms",
    )

    @property
    def conjecture(self) -> bool:
        return FAMILIES[self.claim].conjecture


def _resolve_exponent(
    fam: FamilyInfo, modulus_exponent: int | None, name: str = "modulus exponent"
) -> int:
    """The exponent to verify at: the family's when None, else an int (not
    a bool) in [1, family exponent].  ``name`` is what the error calls the
    value."""
    if modulus_exponent is None:
        return fam.modulus_exponent
    if type(modulus_exponent) is not int:
        raise TypeError(f"{name} must be an int, got {modulus_exponent!r}")
    if not 1 <= modulus_exponent <= fam.modulus_exponent:
        raise ValueError(
            f"{name} for {fam.id} must be between 1 and "
            f"{fam.modulus_exponent}, got {modulus_exponent}"
        )
    return modulus_exponent


def _require_p_max(p_max: int, name: str = "p_max") -> None:
    """Refuse a sweep bound below 2, calling it ``name`` in the error."""
    if p_max < 2:
        raise ValueError(f"{name} must be at least 2, got {p_max}")


# Extra p-adic digits of the left side beyond the modulus exponent k.  A
# difference that is nonzero mod p^(k + 3) has an exact valuation below
# k + 3; only a zero there sends verify back to the exact sum.
LHS_GUARD_DIGITS = 3


def _finite(w):
    """A valuation as reported: None for the infinite valuation of zero."""
    return None if w == math.inf else w


def verify(
    claim_id: str,
    p: int,
    r: int | None = None,
    modulus_exponent: int | None = None,
) -> CongruenceReport:
    """Verify one claim instance, reporting residues and the witness
    valuation of the difference."""
    fam = family(claim_id)
    rr = resolve_r(claim_id, r)
    _require_admissible(fam.id, p, rr)
    k = _resolve_exponent(fam, modulus_exponent)
    started = time.perf_counter()
    series, gammas, _ = _plan(fam, rr)
    ctx = PadicContext(p, k)
    wide = p ** (k + LHS_GUARD_DIGITS)
    lhs = _residue(series, p, p, wide)
    _, label = _case(fam, p)
    rhs = rhs_residue(claim_id, p, rr, ctx)
    difference = (lhs - rhs.value) % wide
    if gammas:
        # the right side is known only mod p^k, so any valuation past k
        # depends on the representative picked for it
        witness = min(vp(difference, p), k)
    elif difference:
        # the right side is exact, and a nonzero difference mod p^(k + 3)
        # has its exact valuation
        witness = vp(difference, p)
    else:
        witness = vp(lhs_value(claim_id, p, rr) - rhs.value, p)
    passed = witness >= k
    elapsed = (time.perf_counter() - started) * 1000.0
    return CongruenceReport(
        claim=fam.id,
        p=p,
        r=rr,
        modulus_exponent=k,
        case_label=label,
        lhs_residue=lhs % ctx.modulus,
        rhs_residue=rhs.value,
        witness_valuation=_finite(witness),
        passed=passed,
        elapsed_ms=elapsed,
    )


class ScanResult(Record):
    __slots__ = (
        "claim", "reports", "skipped_inadmissible",
        "excluded",  # (p, r, reason) triples outside machine verification
    )

    @property
    def all_passed(self) -> bool:
        return all(rep.passed for rep in self.reports)


def _verify_instance(args) -> CongruenceReport:
    claim_id, p, r, k = args
    return verify(claim_id, p, r, k)


def scan(
    claim_id: str,
    p_max: int,
    r_values=None,
    modulus_exponent: int | None = None,
    workers: int = 1,
) -> ScanResult:
    """Verify every admissible (p, r) with p <= p_max, ascending by (p, r).

    Inadmissible pairs are skipped and counted; admissible pairs outside
    machine verification (the family's hand-verified primes) are listed
    separately, not verified.  A p_max below 2, an r that a fixed-weight
    family does not take, or an empty r set raises ValueError.
    """
    fam = family(claim_id)
    _require_p_max(p_max)
    if r_values is None:
        r_values = fam.default_r_values
    rs = sorted({resolve_r(fam.id, r) for r in r_values})
    if not rs:
        raise ValueError("the r set is empty")
    k = _resolve_exponent(fam, modulus_exponent)
    instances = []
    skipped = 0
    excluded = []
    for p in iter_primes(2, p_max):
        for r in rs:
            if not admissible(claim_id, p, r):
                skipped += 1
                continue
            if p in fam.hand_verified:
                excluded.append(
                    (p, r, "established by direct hand computation; "
                           "outside the odd-p Gamma evaluator")
                )
                continue
            instances.append((fam.id, p, r, k))
    reports = _run_instances(instances, workers)
    return ScanResult(fam.id, reports, skipped, excluded)


def ProcessPoolExecutor(max_workers: int):
    """The standard process pool, imported when a sweep first asks for
    one: importing it loads multiprocessing, pickle, socket and subprocess,
    which no serial command uses."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


def _run_instances(instances, workers: int):
    # More processes than cores or instances only adds start-up cost.
    workers = min(workers, os.cpu_count() or 1, len(instances))
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_verify_instance, instances, chunksize=1))
        except (BrokenProcessPool, OSError) as exc:
            # Restricted environments fall back to the serial path; the
            # report order is the instance order either way.
            print(
                f"sclab: process pool unavailable ({type(exc).__name__}); "
                "running serially",
                file=sys.stderr,
            )
    return [_verify_instance(t) for t in instances]


# ---------------------------------------------------------------------------
# Proof-chain replays
# ---------------------------------------------------------------------------


class ChainStep(FrozenRecord):
    __slots__ = (
        "name", "detail", "modulus_exponent",
        "witness_valuation",  # None: exact identity or zero difference
        "passed",
    )


class ProofChain(Record):
    __slots__ = (
        "claim", "p", "r",
        "steps",  # None gives a fresh empty list
        "status",  # pass | fail | skipped
        "reason",
    )
    _defaults = {"steps": None, "status": "pass", "reason": ""}

    def _check(self):
        if self.steps is None:
            self.steps = []

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def _add(self, name, detail, modulus_exponent, witness, passed):
        self.steps.append(
            ChainStep(name, detail, modulus_exponent, witness, passed)
        )
        if not passed:
            self.status = "fail"

    def exact(self, name, detail, holds):
        """A step that is an exact identity: no modulus, no witness."""
        self._add(name, detail, None, None, holds)

    def congruence(self, name, detail, k, witness):
        """A step that holds iff the valuation ``witness`` is at least k;
        None, a side that must be rational and is not, fails the step with
        no witness."""
        if witness is None:
            return self._add(name, detail, k, None, False)
        self._add(name, detail, k, _finite(witness), witness >= k)

    def difference(self, name, detail, k, u, v, exact=None):
        """``congruence`` on ``_difference_valuation(u, v, p, k, exact)``."""
        self.congruence(name, detail, k, _difference_valuation(u, v, self.p, k, exact))


def _valuation(num, den: int, p: int):
    """v_p(num / den), min_i v_p(num_i) - v_p(den) for a numerator tuple;
    every representative of the value gives the same, so none is reduced."""
    nums = num if type(num) is tuple else (num,)
    return min((vp(c, p) for c in nums if c), default=math.inf) - vp(den, p)


def _difference_valuation(u, v, p: int, k: int, exact=None):
    """v_p(u - v) for (num, den) pairs over int dens; None when a numerator
    does not flatten to an int, as a side that is not rational.  With u =
    a/b and v = c/d, a*d - c*b is read mod p^M first, M = v_p(b) + v_p(d)
    + k + 2: a nonzero residue has the exact valuation, and the p-sized
    cross-product is formed only when it is 0, at a witness of k + 2 or
    more.  With ``exact``, c is a residue mod p^M of v's numerator, and
    ``exact()`` gives v's exact pair, over a den of d's valuation, for
    that product."""
    (a, b), (c, d) = u, v
    a, c = _flat(a), _flat(c)
    if type(a) is not int or type(c) is not int:
        return None
    vb, vd = vp(b, p), vp(d, p)
    m = p ** (vb + vd + k + 2)
    top = (a % m * (d % m) - c % m * (b % m)) % m
    if not top:  # v_p(a*d - c*b) >= M: only the exact product tells how far
        if exact is not None:
            return _difference_valuation(u, exact(), p, k)
        top = a * d - c * b
    return vp(top, p) - vb - vd


def _start_chain(claim_id: str, p: int, r: int, skip_reason: str) -> ProofChain:
    """The preamble every chain shares: an inadmissible instance raises,
    and p = 2, where the field reductions need an odd prime, is skipped."""
    _require_admissible(claim_id, p, r)
    chain = ProofChain(claim_id, p, r)
    if p == 2:
        chain.status, chain.reason = "skipped", skip_reason
    return chain


def _transformation_steps(chain: ProofChain, field_name: str, holds: bool, lhs76) -> tuple:
    """The two steps every chain opens with: the seven-slot transformation
    instance holds exactly over the field, and its rational left side, the
    pair lhs76, is (1/r) times the claim's weighted sum mod p^k.  The sum
    is read as a residue mod p^N, N = v_p(lhs76's den) + v_p(r) + k + 2,
    the modulus ``_difference_valuation`` reads it at; returned with a
    function that forms its exact ``_sum`` pair on the same plan once, if
    asked."""
    chain.exact(
        "transformation-instance",
        f"seven-slot transformation instance holds exactly over {field_name}",
        holds,
    )
    fam, p, r = family(chain.claim), chain.p, chain.r
    k = fam.modulus_exponent
    modulus = p ** (vp(lhs76[1], p) + vp(r, p) + k + 2)
    series = _residue(_plan(fam, r)[0], p, p, modulus)
    exact = functools.cache(lambda: _sum(_plan(fam, r)[0], p))
    chain.difference(
        "series-reduction",
        f"transformed series matches (1/r) * weighted sum mod p^{k}",
        k,
        lhs76, (series, r), lambda: (exact()[0], exact()[1] * r),
    )
    return series, exact


def proof_chain_thm1(p: int, r: int) -> ProofChain:
    """Replay the derivation of the fifth-power vanishing claim at (p, r):
    a seven-slot transformation instance over Q(i), the conjugate-product
    reduction mod p^4, tail handling, and the final Karlsson-Minton zero."""
    chain = _start_chain(
        "thm1", p, r,
        "the chain's quadratic-field reductions need an odd prime; "
        "the claim itself is still verified directly",
    )
    if chain.status == "skipped":
        return chain
    n = (3 * p - r) // 5
    a, power, slope, const = FAMILIES["thm1"].series(r)
    b, c = Fraction(r + 5, 10), Fraction(r + 3 * p, 5)
    shift = Fraction(3 * p, 5) * CycElement.zeta(4)
    # d, e are conjugate: every side flattens to ints, with no field product
    lhs76, prefactor, f43_a, _ = _whipple_parts(a, b, c, a + shift, a - shift, n)
    _transformation_steps(chain, "Q(i)", _same(lhs76, _product((prefactor, f43_a), None), None), lhs76)

    # valuations add, so the series' tail terms are never formed: for k < p,
    # v_p((a)_k / k!) moves by v_p(a + k - 1) = v_p(num + (k - 1) den) - v_p(den)
    tail_ratio_ok, tail_witness = True, math.inf
    num, den, den_v = a.numerator, a.denominator, vp(a.denominator, p)
    ratio_v = vp(rising(num, den, n), p) - n * den_v - vp(math.factorial(n), p)
    for k in range(n + 1, p):
        ratio_v += vp(num + (k - 1) * den, p) - den_v
        tail_ratio_ok = tail_ratio_ok and ratio_v >= 1
        tail_witness = min(tail_witness, vp(slope * k + const, p) + power * ratio_v)
    chain._add(
        "tail-vanishing",
        f"terms with {n} < k < {p} vanish mod p per ratio and mod p^{power} in full",
        power,
        _finite(tail_witness),
        tail_ratio_ok and tail_witness >= power,
    )

    chain.difference(
        "prefactor-valuation",
        "rising-factorial prefactor is divisible by p^2",
        2,
        prefactor, (0, 1),
    )

    (a_num, b_num, c_num), lifted_den, _ = _lift([a, b, c])
    f43_b = _four_slot(a_num, b_num, c_num, a_num, a_num, n, lifted_den, None)
    chain.difference(
        "imaginary-shift-swap",
        "four-slot series with conjugate imaginary shifts matches the "
        "unshifted one mod p^2",
        2,
        f43_a, f43_b,
    )

    # at d, e = a +- p/5 Whipple's four-slot series is the Karlsson-Minton
    # series with lower parameters a - n, 1 + a - b, 1 + a - c
    ms = [(1 - r) // 2, (2 * p + r - 5) // 10, (2 * p + r - 5) // 5]
    *f43_c, _ = _karlsson_minton_sum(n, (a - n, 1 + a - b, 1 + a - c), ms)
    chain.difference(
        "real-shift-swap",
        "unshifted four-slot series matches the real-shifted one mod p^2",
        2,
        f43_b, f43_c,
    )
    chain.exact(
        "karlsson-minton-vanishing",
        "the real-shifted series is an exact zero of the integrally "
        "shifted summation",
        f43_c[0] == 0,
    )

    report = verify("thm1", p, r)
    chain._add(
        "assembly",
        "direct verification agrees: weighted sum vanishes mod p^4",
        4,
        report.witness_valuation,
        report.passed,
    )
    return chain


def proof_chain_thm2(p: int, r: int) -> ProofChain:
    """Replay the derivation of the sixth-power Gamma claim at (p, r): a
    transformation instance over Q(zeta_5), conjugate-product reduction
    mod p^5, two exact rising-factorial extractions, the mod-p^5 ratio
    closed form, and the Gamma quotient form mod p."""
    chain = _start_chain(
        "thm2", p, r,
        "instance established by direct hand computation; the chain "
        "needs an odd prime",
    )
    if chain.status == "skipped":
        return chain
    n = (2 * p - r) // 3
    z = CycElement.zeta(5)
    scale = Fraction(2 * p, 3)
    # the series' irrational uppers and lowers, and the ratio's lower factors up
    # to sign, each run over a zeta_5 orbit: lhs76 and lower come back as ints
    lhs76, lows, (lead, *paired), lower, linear, tail43, den, order = _d1_parts(
        Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3, n, 1 - r
    )
    mul = _PRODUCT[order]
    paired = _product(((u, den ** n) for u in paired), mul)
    ratio = (_times(lead, paired[0], mul), lower)  # the uppers' den^(4n) cancel the lower's
    block43 = _product((linear, tail43), mul)
    holds = _same(lhs76, _product((ratio, block43), mul), mul)
    series, exact = _transformation_steps(chain, "Q(zeta_5)", holds, lhs76)
    form = rhs_form("thm2", p, r)
    # the chain's one field division: the tail's lower parameters are no orbit
    chain.congruence(
        "remainder-block",
        "linear factors times the terminating series match 8 * finite sum "
        "mod p in every coordinate",
        1,
        _valuation(*(_value(*block43, order) - 8 * form.finite_sum).as_integer_ratio(), p),
    )

    lead_rest = pochhammer(1 + Fraction(r, 3), n - 1)
    chain.exact(
        "leading-pochhammer-extraction",
        "the top factor 2p/3 splits off the leading rising factorial exactly",
        _same((lead, den ** n), (scale * lead_rest).as_integer_ratio(), mul),
    )

    # the tail's lower parameters are x = 2r/3 + (2p/3) s, s a pair sum, and
    # 1 + (p/3)(2s + 1) is (3 + p) + 2p s over 3; the pair sums zeta + zeta^2,
    # zeta + zeta^3 and zeta^2 + zeta^3 by their zeta, zeta^2, zeta^3 coordinates
    j0 = (p - 2 * r - 3) // 3
    block = (p + r) // 3
    pair_sums = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    paired_rhs = _product(
        [(5 * p ** 3, 27)]
        + [(rising(_plus(x, den), den, j0, mul), den ** j0) for x in lows]
        + [(rising((3 + p, *(2 * p * c for c in s)), 3, block, mul), 3 ** block) for s in pair_sums],
        mul,
    )
    chain.exact(
        "paired-pochhammer-extraction",
        "the three paired rising factorials factor through 5p^3/27 exactly",
        _same(paired, paired_rhs, mul),
    )

    unit_ratio = (
        lead_rest
        * pochhammer(1 + Fraction(2 * r, 3), j0) ** 3
        * math.factorial(block) ** 3
        / math.factorial(n) ** 4
    )
    c_num, c_den = (_parity_sign(n) * Fraction(10 * p ** 4, 81) * unit_ratio).as_integer_ratio()
    chain.congruence(
        "ratio-closed-form",
        "the full rising-factorial ratio matches its rational closed form "
        "mod p^5 in every coordinate",
        5,
        _valuation(_minus(_times(ratio[0], c_den, mul), c_num * lower), lower * c_den, p),
    )

    sign = _parity_sign(n + r + 1)
    gamma_lift = sign * _gamma_product(form.gamma_factors, PadicContext(p, 1)) % p
    chain.congruence(
        "gamma-quotient-form",
        "the rational ratio matches the Gamma quotient form mod p",
        1,
        _valuation(*(unit_ratio - gamma_lift).as_integer_ratio(), p),
    )

    assembled = form.coefficient * form.finite_sum * sign * unit_ratio
    # series is known mod p^N, N >= 7, and read mod p^(v_p(den) + 7): past
    # N only if v_p(den) > 0, where the difference's valuation is -v_p(den)
    witness = _difference_valuation(assembled.as_integer_ratio(), (series, 1), p, 5, exact)
    chain._add(
        "assembly",
        "weighted sum matches the assembled closed form mod p^5, in "
        "agreement with direct verification",
        5,
        _finite(witness),
        verify("thm2", p, r).passed and witness >= 5,
    )
    return chain
