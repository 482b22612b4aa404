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

The proof chains replay the derivations of ``thm1`` and ``thm2`` on the
identity code in ``hyperkernel``, the same sides and series the seeded
fuzzers check: ``_whipple_sides`` and ``_d1_sides`` for the
transformations, ``_whipple_series`` for thm1's unshifted four-slot series,
and ``_karlsson_minton_series`` for its real-shifted one, evaluated once
and read by both steps that use it.

A verification never asserts more than v_p(lhs - rhs) >= k for the
family's modulus exponent k; the witness valuation is always reported.
"""

from __future__ import annotations

import math
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import CycElement
from .hyperkernel import (
    SeriesSpec,
    _d1_sides,
    _karlsson_minton_series,
    _whipple_series,
    _whipple_sides,
    eval_truncated,
    eval_truncated_residue,
    hypergeometric_sum,
)
from .padic import PadicContext, Residue, vp
from .pgamma import gamma_p
from .rationals import is_prime, pochhammer, primes_in
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
    """Everything the package knows about one claim family."""

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

    @property
    def canonical_r(self) -> int:
        return self.default_r_values[0]


def _parity_sign(n: int) -> int:
    return -1 if n % 2 else 1


@lru_cache(maxsize=None)
def _weighted_tail_sum(r: int) -> Fraction:
    """The finite factor sum_{k=0}^{1-r} (r-1)_k (r/3)_k^3 / (k! (2r/3)_k^3)."""
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
    fam = family(claim_id)
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
    """Side conditions of the claim at (p, r), with a reason when they fail."""
    fam = family(claim_id)
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


def _require_admissible(claim_id: str, p: int, r: int) -> None:
    adm = admissible(claim_id, p, r)
    if not adm:
        raise InadmissibleInstanceError(f"({claim_id}, p={p}, r={r}): {adm.reason}")


def lhs_spec(claim_id: str, p: int, r: int | None = None) -> SeriesSpec:
    """The truncated series of the claim, summed for k = 0 .. p-1."""
    a, power, slope, const = family(claim_id).series(resolve_r(claim_id, r))
    return SeriesSpec(
        upper=(a,) * power,
        lower=(),
        truncation=p,
        weight=(Fraction(slope), Fraction(const)),
        factorial_power=power,
    )


def lhs_value(claim_id: str, p: int, r: int | None = None) -> Fraction:
    """Exact rational value of the claim's truncated series."""
    return eval_truncated(lhs_spec(claim_id, p, r))


def _require_context_for(ctx: PadicContext, p: int) -> None:
    if ctx.p != p:
        raise ValueError(f"context is for p = {ctx.p}, not p = {p}")


def lhs_residue(claim_id: str, p: int, r: int | None, ctx: PadicContext) -> Residue:
    """Residue of the claim's truncated series mod ctx's p^K.  Every term
    (wk + r)(a)_k^e / k!^e with k < p has a p-adic unit denominator, so
    this is exact, in O(p) modular multiplies."""
    _require_context_for(ctx, p)
    return eval_truncated_residue(lhs_spec(claim_id, p, r), ctx)


def rhs_form(claim_id: str, p: int, r: int | None = None) -> ClosedForm:
    """Closed-form right side at (p, r), as an unevaluated product."""
    fam = family(claim_id)
    r = resolve_r(claim_id, r)
    case = fam.cases.get(p % fam.case_modulus)
    if case is None:
        raise InadmissibleInstanceError(f"({fam.id}, p={p}): no closed form for this p")
    coefficient, label = case
    return ClosedForm(coefficient(p, r), fam.gammas(r), fam.finite_sum(r), label)


def _gamma_product(factors, ctx: PadicContext) -> int:
    """prod Gamma_p(x)^j over the (x, j) factors, mod ctx's p^k."""
    m = ctx.modulus
    return math.prod(pow(gamma_p(x, ctx).value, j, m) for x, j in factors) % m


def _assemble_residue(form: ClosedForm, ctx: PadicContext, full_precision: bool) -> Residue:
    scalar = form.coefficient * form.finite_sum
    if scalar == 0:
        return Residue(0, ctx)
    v = vp(scalar, ctx.p)
    if v < 0:
        raise RuntimeError("closed form is not p-integral")
    if v >= ctx.k:
        return Residue(0, ctx)
    # The Gamma factors are units, so they only matter mod p^(k - v); the
    # scalar's p-power is reattached after the unit part is assembled.
    unit_ctx = ctx if full_precision else PadicContext(ctx.p, ctx.k - v)
    unit = unit_ctx.reduce(scalar / Fraction(ctx.p) ** v).value
    acc = unit * _gamma_product(form.gamma_factors, unit_ctx)
    return Residue(ctx.p ** v * acc % ctx.modulus, ctx)


def _rhs_residue(claim_id, p, r, ctx, form, full_precision: bool) -> Residue:
    fam = family(claim_id)
    if ctx is None:
        ctx = PadicContext(p, fam.modulus_exponent)
    _require_context_for(ctx, p)
    if p in fam.hand_verified:
        raise UnsupportedInstanceError(
            "the Gamma evaluator requires odd p; the p = 2, r = 1 instance "
            "is established by direct hand computation and excluded here"
        )
    return _assemble_residue(form or rhs_form(claim_id, p, r), ctx, full_precision)


def rhs_residue(
    claim_id: str, p: int, r: int | None = None, ctx: PadicContext | None = None,
    *, _form: ClosedForm | None = None,
) -> Residue:
    """Residue of the closed form mod p^k (k from ctx, default the family's).
    ``verify`` passes the ``rhs_form`` it already built as ``_form``."""
    return _rhs_residue(claim_id, p, r, ctx, _form, full_precision=False)


def rhs_residue_direct(claim_id: str, p: int, r: int | None = None, ctx: PadicContext | None = None) -> Residue:
    """Reference route: every Gamma factor at full context precision."""
    return _rhs_residue(claim_id, p, r, ctx, None, full_precision=True)


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
    """The exponent to verify at: the family's when None, else one in
    [1, family exponent].  ``name`` is what the error calls the value."""
    if modulus_exponent is None:
        return fam.modulus_exponent
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
    ctx = PadicContext(p, k)
    wide = PadicContext(p, k + LHS_GUARD_DIGITS)
    lhs = lhs_residue(claim_id, p, rr, wide)
    form = rhs_form(claim_id, p, rr)
    rhs = rhs_residue(claim_id, p, rr, ctx, _form=form)
    difference = (lhs.value - rhs.value) % wide.modulus
    if form.gamma_factors:
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
        case_label=form.case_label,
        lhs_residue=lhs.value % ctx.modulus,
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
    for p in primes_in(2, p_max):
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
    if workers <= 1:
        return [_verify_instance(t) for t in instances]
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_verify_instance, instances, chunksize=1))
    except (BrokenProcessPool, OSError) as exc:
        # Restricted environments fall back to the serial path; the report
        # order is the instance order either way.
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

    def congruence(self, name, detail, k, difference):
        """A step that holds iff v_p(difference) >= k, the witness being
        v_p(difference), taken coordinate-wise for a field element.  None
        stands for a side that must be rational and is not: the step fails
        with no witness."""
        if difference is None:
            self._add(name, detail, k, None, False)
            return
        if isinstance(difference, CycElement):
            witness = _cyc_valuation(difference, self.p)
        else:
            witness = vp(difference, self.p)
        self._add(name, detail, k, _finite(witness), witness >= k)


def _cyc_valuation(u: CycElement, p: int):
    """Coordinate-wise valuation min_i v_p(coefficient_i), read off the
    integer numerators and their one denominator."""
    top = min((vp(a, p) for a in u.nums if a), default=math.inf)
    return top - vp(u.den, p)


def _start_chain(claim_id: str, p: int, r: int, skip_reason: str) -> ProofChain:
    """The preamble every chain shares: an inadmissible instance raises,
    and p = 2, where the field reductions need an odd prime, is skipped."""
    _require_admissible(claim_id, p, r)
    chain = ProofChain(claim_id, p, r)
    if p == 2:
        chain.status, chain.reason = "skipped", skip_reason
    return chain


def _transformation_steps(chain: ProofChain, field_name: str, lhs76, rhs76) -> Fraction:
    """The two steps every chain opens with: the seven-slot transformation
    instance holds exactly over the field, and its rational left side is
    (1/r) times the claim's weighted sum mod p^k.  Returns that sum."""
    chain.exact(
        "transformation-instance",
        f"seven-slot transformation instance holds exactly over {field_name}",
        lhs76 == rhs76,
    )
    k = family(chain.claim).modulus_exponent
    series = lhs_value(chain.claim, chain.p, chain.r)
    chain.congruence(
        "series-reduction",
        f"transformed series matches (1/r) * weighted sum mod p^{k}",
        k,
        lhs76.rational_value() - series / chain.r if lhs76.is_rational else None,
    )
    return series


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
    a, b, c = Fraction(r, 5), Fraction(r + 5, 10), Fraction(r + 3 * p, 5)
    shift = Fraction(3 * p, 5) * CycElement.zeta(4)
    lhs76, prefactor, f43_a = _whipple_sides(a, b, c, a + shift, a - shift, n)
    _transformation_steps(chain, "Q(i)", lhs76, prefactor * f43_a)

    # valuations add, so the tail terms (10k + r) (a)_k^5 / k!^5 are never
    # formed: v_p((a)_k / k!) moves by v_p(a + k - 1) - v_p(k) per step
    tail_ratio_ok = True
    tail_witness = math.inf
    ratio_v = vp(pochhammer(a, n) / math.factorial(n), p)
    for k in range(n + 1, p):
        ratio_v += vp(a + k - 1, p) - vp(k, p)
        term_v = vp(10 * k + r, p) + 5 * ratio_v
        tail_ratio_ok = tail_ratio_ok and ratio_v >= 1
        tail_witness = min(tail_witness, term_v)
    chain._add(
        "tail-vanishing",
        f"terms with {n} < k < {p} vanish mod p per ratio and mod p^5 in full",
        5,
        _finite(tail_witness),
        tail_ratio_ok and tail_witness >= 5,
    )

    chain.congruence(
        "prefactor-valuation",
        "rising-factorial prefactor is divisible by p^2",
        2,
        prefactor.rational_value() if prefactor.is_rational else None,
    )

    f43_b = _whipple_series(a, b, c, a, a, n)
    chain.congruence(
        "imaginary-shift-swap",
        "four-slot series with conjugate imaginary shifts matches the "
        "unshifted one mod p^2",
        2,
        f43_a.rational_value() - f43_b if f43_a.is_rational else None,
    )

    # at d, e = a +- p/5 Whipple's four-slot series is the Karlsson-Minton
    # series with lower parameters a - n, 1 + a - b, 1 + a - c
    ms = [(1 - r) // 2, (2 * p + r - 5) // 10, (2 * p + r - 5) // 5]
    f43_c = _karlsson_minton_series(n, (a - n, 1 + a - b, 1 + a - c), ms)
    chain.congruence(
        "real-shift-swap",
        "unshifted four-slot series matches the real-shifted one mod p^2",
        2,
        f43_b - f43_c,
    )
    chain.exact(
        "karlsson-minton-vanishing",
        "the real-shifted series is an exact zero of the integrally "
        "shifted summation",
        f43_c == 0,
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
    lhs76, ratio, linear, tail43 = _d1_sides(
        Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3, n, 1 - r
    )
    series = _transformation_steps(chain, "Q(zeta_5)", lhs76, ratio * linear * tail43)
    chain.congruence(
        "remainder-block",
        "linear factors times the terminating series match 8 * finite sum "
        "mod p in every coordinate",
        1,
        linear * tail43 - 8 * _weighted_tail_sum(r),
    )

    lead_rest = pochhammer(1 + Fraction(r, 3), n - 1)
    lead_lhs = pochhammer(1 + Fraction(r, 3), n)
    lead_rhs = scale * lead_rest
    chain.exact(
        "leading-pochhammer-extraction",
        "the top factor 2p/3 splits off the leading rising factorial exactly",
        lead_lhs == lead_rhs,
    )

    j0 = (p - 2 * r - 3) // 3
    block = (p + r) // 3
    pair_sums = (z + z ** 2, z + z ** 3, z ** 2 + z ** 3)
    shifted = [1 + Fraction(2 * r, 3) + scale * s for s in pair_sums]
    paired_lhs = math.prod(pochhammer(x, n) for x in shifted)
    paired_rhs = Fraction(5 * p ** 3, 27) * math.prod(
        pochhammer(x, j0) * pochhammer(1 + Fraction(p, 3) * (2 * s + 1), block)
        for x, s in zip(shifted, pair_sums)
    )
    chain.exact(
        "paired-pochhammer-extraction",
        "the three paired rising factorials factor through 5p^3/27 exactly",
        paired_lhs == paired_rhs,
    )

    unit_ratio = (
        lead_rest
        * pochhammer(1 + Fraction(2 * r, 3), j0) ** 3
        * pochhammer(Fraction(1), block) ** 3
        / pochhammer(Fraction(1), n) ** 4
    )
    sign_n = _parity_sign(n)
    chain.congruence(
        "ratio-closed-form",
        "the full rising-factorial ratio matches its rational closed form "
        "mod p^5 in every coordinate",
        5,
        ratio - sign_n * Fraction(10 * p ** 4, 81) * unit_ratio,
    )

    mod_p = PadicContext(p, 1)
    gamma_lift = _parity_sign(n + r + 1) * _gamma_product(_gamma_quotient(r), mod_p) % p
    chain.congruence(
        "gamma-quotient-form",
        "the rational ratio matches the Gamma quotient form mod p",
        1,
        unit_ratio - gamma_lift,
    )

    assembled = sign_n * Fraction(80 * r * p ** 4, 81) * unit_ratio * _weighted_tail_sum(r)
    witness = vp(series - assembled, p)
    chain._add(
        "assembly",
        "weighted sum matches the assembled closed form mod p^5, in "
        "agreement with direct verification",
        5,
        _finite(witness),
        verify("thm2", p, r).passed and witness >= 5,
    )
    return chain
