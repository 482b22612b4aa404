"""Exact truncated hypergeometric sums over Q, Q(i) or Q(zeta_5), and the
three transformation/summation identities the claim checkers replay.

A series here is a finite weighted sum

    sum_{k=0}^{N-1}  (m*k + r) * prod_i (a_i)_k * z^k
                     ---------------------------------
                        k!^e  *  prod_j (b_j)_k

with all scalars in Q or in one cyclotomic field; rational scalars stay
Fractions next to field elements.  Everything is exact: a check returns
True only when both sides are literally equal as field elements.  The
claim chains take their sides from the same builders the checks use.
``eval_truncated_residue`` is the one modular route: the residue of a
rational series mod p^K, exact whenever its term denominators are p-adic
units.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .cyclotomic import CycElement
from .padic import NonIntegralInputError, PadicContext, Residue, vp
from .rationals import as_rational, pochhammer

Scalar = Union[int, Fraction, CycElement]


class PoleInRangeError(ArithmeticError):
    """A lower-parameter rising factorial vanishes inside the truncation."""


class IdentityPreconditionError(ValueError):
    """The identity's side conditions fail; the check is not attempted."""


def rising(a: Scalar, n: int) -> Scalar:
    """Rising factorial for any supported scalar domain."""
    if isinstance(a, CycElement):
        out = CycElement.one(a.order)
        for j in range(n):
            out = out * (a + j)
        return out
    return pochhammer(a, n)


def _scalars(values: Sequence[Scalar]) -> list:
    """The values as Fractions and CycElements of one order.  Rationals
    stay Fractions, so they meet field elements on the scalar multiply."""
    if len({v.order for v in values if isinstance(v, CycElement)}) > 1:
        raise ValueError("mixed cyclotomic orders in one series")
    return [v if isinstance(v, CycElement) else as_rational(v) for v in values]


@dataclass(frozen=True)
class SeriesSpec:
    """A truncated weighted hypergeometric sum."""

    upper: tuple
    lower: tuple
    argument: Scalar = 1
    truncation: int = 1
    weight: tuple = (Fraction(0), Fraction(1))
    factorial_power: int = 1

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if self.factorial_power < 0:
            raise ValueError("factorial power must be nonnegative")


def _integer_weight(weight) -> tuple[int, int, int]:
    """The weight m*k + r as (step, start, den): (step*k + start) / den."""
    w_slope, w_const = (as_rational(w) for w in weight)
    return (
        w_slope.numerator * w_const.denominator,
        w_const.numerator * w_slope.denominator,
        w_slope.denominator * w_const.denominator,
    )


def _integer_ratios(spec: SeriesSpec):
    """Split the term ratios of a rational spec into integers.

    Raises PoleInRangeError when a lower rising factorial vanishes inside
    the truncation, and otherwise returns an iterator over the pairs
    (num_k, den_k), den_k nonzero, with term_{k+1} = term_k * num_k / den_k
    for k = 0, ..., N - 2.  The ratio z * prod (a_i + k) / ((k + 1)^e *
    prod (b_j + k)) is put over the parameters' denominators once.
    """
    upper = [as_rational(a) for a in spec.upper]
    lower = [as_rational(b) for b in spec.lower]
    z = as_rational(spec.argument)
    n_terms = spec.truncation
    for b in lower:
        if b.denominator == 1 and 0 <= -b < n_terms - 1:
            raise PoleInRangeError(f"lower parameter {b!r} vanishes at shift {-b}")
    num_const = z.numerator * math.prod(b.denominator for b in lower)
    den_const = z.denominator * math.prod(a.denominator for a in upper)
    ups = [(a.numerator, a.denominator) for a in upper]
    lows = [(b.numerator, b.denominator) for b in lower]
    e = spec.factorial_power

    def ratios():
        for k in range(n_terms - 1):
            num = num_const
            for an, ad in ups:
                num *= an + k * ad
            den = den_const * (k + 1) ** e
            for bn, bd in lows:
                den *= bn + k * bd
            yield num, den

    return ratios()


def eval_truncated(spec: SeriesSpec) -> Scalar:
    """Exact value of the truncated sum; PoleInRangeError when a lower
    rising factorial vanishes anywhere inside the truncation range.

    Over Q the term is carried as a reduced integer pair and one Fraction
    is built per term; over Q(i) or Q(zeta_5) the field arithmetic runs
    step by step."""
    values = [*spec.upper, *spec.lower, spec.argument]
    field = next((v for v in values if isinstance(v, CycElement)), None)
    if field is None:
        return _eval_rational(spec)
    *params, z = _scalars(values)
    upper, lower = params[: len(spec.upper)], params[len(spec.upper) :]
    n_terms = spec.truncation
    for b in lower:
        for t in range(n_terms - 1):
            if b + t == 0:
                raise PoleInRangeError(
                    f"lower parameter {b!r} vanishes at shift {t}"
                )
    w_slope, w_const = (as_rational(w) for w in spec.weight)
    total = CycElement.zero(field.order)
    term = CycElement.one(field.order)
    for k in range(n_terms):
        total = total + (w_slope * k + w_const) * term
        if k + 1 < n_terms:
            num = z
            for a in upper:
                num = num * (a + k)
            den = Fraction(k + 1) ** spec.factorial_power
            for b in lower:
                den = den * (b + k)
            term = term * num / den
    return total


def _eval_rational(spec: SeriesSpec) -> Fraction:
    """eval_truncated over Q: the term is a coprime integer pair, updated
    by the reduced step ratio with cross-cancellation."""
    ratios = _integer_ratios(spec)
    w_step, w_start, w_den = _integer_weight(spec.weight)
    term_num, term_den = 1, w_den  # term k over the weight's denominator
    total = Fraction(w_start, w_den) if spec.truncation else Fraction(0)
    for k, (num, den) in enumerate(ratios, 1):
        if num == 0:
            break  # every later term is zero too
        g = math.gcd(num, den)
        num, den = num // g, den // g
        g1, g2 = math.gcd(num, term_den), math.gcd(term_num, den)
        term_num = (term_num // g2) * (num // g1)
        term_den = (term_den // g1) * (den // g2)
        total += Fraction((w_step * k + w_start) * term_num, term_den)
    return total


def eval_truncated_residue(spec: SeriesSpec, ctx: PadicContext) -> Residue:
    """Residue mod p^K of the truncated sum of a rational spec, in O(N)
    integer multiplies mod p^K.

    Each step's ratio is split into an integer numerator and denominator
    (``_integer_ratios``).  The running term and the running sum share one
    denominator, the product of the ratio denominators so far, which is
    inverted once at the end.  That is exact when every denominator factor
    of a nonzero term, and the weight's denominator, is prime to p;
    NonIntegralInputError is raised otherwise.  The sum stops early at a
    term that is exactly zero (a terminating upper parameter).
    """
    values = list(spec.upper) + list(spec.lower) + [spec.argument] + list(spec.weight)
    if any(isinstance(v, CycElement) for v in values):
        raise TypeError("the residue route takes rational parameters only")
    p, modulus = ctx.p, ctx.modulus
    ratios = _integer_ratios(spec)
    w_step, w_start, w_den = _integer_weight(spec.weight)
    if w_den % p == 0:
        raise NonIntegralInputError(f"the weight's denominator is divisible by {p}")
    total = w_start if spec.truncation else 0  # the partial sum times den
    term = den = 1  # the current term times den, and den
    for k, (num, step_den) in enumerate(ratios, 1):
        if num == 0:
            break
        if step_den % p == 0:
            raise NonIntegralInputError(
                f"the term ratio's denominator at k = {k - 1} is divisible by {p}"
            )
        # move the sum onto term k's denominator den * step_den
        term = term * num % modulus
        total = (total * step_den + (w_step * k + w_start) * term) % modulus
        den = den * step_den % modulus
    value = total * pow(den * w_den, -1, modulus) % modulus
    return Residue(value, ctx)


def hypergeometric_sum(upper, lower, n_terms: int, argument: Scalar = 1) -> Scalar:
    """Plain (weightless) truncated series with a single k! factor."""
    return eval_truncated(
        SeriesSpec(
            upper=tuple(upper),
            lower=tuple(lower),
            argument=argument,
            truncation=n_terms,
        )
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _nonzero_or_pole(*factors) -> None:
    for f in factors:
        if f == 0:
            raise PoleInRangeError("prefactor denominator vanishes")


def _whipple_sides(a, b, c, d, e, n: int):
    """The classical reduction of a terminating well-poised series of seven
    parameter slots to a four-slot series with a rising-factorial prefactor,
    returned unevaluated for reuse: (seven-slot series, prefactor,
    four-slot series)."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    a, b, c, d, e = _scalars([a, b, c, d, e])
    half = Fraction(1, 2)
    lhs = hypergeometric_sum(
        upper=(a, 1 + half * a, b, c, d, e, Fraction(-n)),
        lower=(half * a, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a + n),
        n_terms=n + 1,
    )
    den1 = rising(1 + a - d, n)
    den2 = rising(1 + a - e, n)
    _nonzero_or_pole(den1, den2)
    prefactor = rising(a + 1, n) * rising(a - d - e + 1, n) / (den1 * den2)
    series = hypergeometric_sum(
        upper=(1 + a - b - c, d, e, Fraction(-n)),
        lower=(d + e - a - n, 1 + a - b, 1 + a - c),
        n_terms=n + 1,
    )
    return lhs, prefactor, series


def check_whipple(a, b, c, d, e, n: int) -> bool:
    """Returns True iff both sides of ``_whipple_sides`` agree exactly."""
    lhs, prefactor, series = _whipple_sides(a, b, c, d, e, n)
    return lhs == prefactor * series


def check_karlsson_minton(n: int, bs, ms) -> bool:
    """Vanishing of the terminating series with integrally shifted
    parameter pairs: upper (-n, b_i + m_i), lower (b_i), unit argument.

    Requires nonnegative integers m_i with n > sum(m_i); violating that
    side condition raises IdentityPreconditionError because the sum need
    not vanish there.
    """
    if len(bs) != len(ms):
        raise ValueError("parameter lists must have equal length")
    if any(int(m) != m or m < 0 for m in ms):
        raise IdentityPreconditionError("shifts must be nonnegative integers")
    if not (isinstance(n, int) and n > sum(ms)):
        raise IdentityPreconditionError(
            f"need integer n > sum of shifts; got n={n}, sum={sum(ms)}"
        )
    bs = _scalars(bs)
    value = hypergeometric_sum(
        upper=(Fraction(-n), *(b + m for b, m in zip(bs, ms))),
        lower=bs,
        n_terms=n + 1,
    )
    return value == 0


def _d1_sides(t, a, b, c, n: int, m: int):
    """Both sides of the seven-to-four slot transformation used by the
    sixth-power claim chain, returned unevaluated for reuse: (seven-slot
    series, rising-factorial ratio, linear factor, terminating tail)."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative integers")
    t, a, b, c = _scalars([t, a, b, c])
    half = Fraction(1, 2)
    lhs = hypergeometric_sum(
        upper=(t, 1 + half * t, Fraction(-n), t - a, t - b, t - c, 1 - t - m + n + a + b + c),
        lower=(half * t, 1 + t + n, 1 + a, 1 + b, 1 + c, 2 * t + m - n - a - b - c),
        n_terms=n + 1,
    )
    den = (
        rising(1 + a, n)
        * rising(1 + b, n)
        * rising(1 + c, n)
        * rising(a + b + c + 1 - m - 2 * t, n)
    )
    _nonzero_or_pole(den)
    ratio = (
        rising(1 + t, n)
        * rising(a + b + 2 - m - t, n)
        * rising(a + c + 2 - m - t, n)
        * rising(b + c + 2 - m - t, n)
        / den
    )
    lin_num = (a + b + 1 - m - t) * (a + c + 1 - m - t) * (b + c + 1 - m - t)
    lin_den = (
        (a + b + n + 1 - m - t)
        * (a + c + n + 1 - m - t)
        * (b + c + n + 1 - m - t)
    )
    _nonzero_or_pole(lin_den)
    linear = lin_num / lin_den
    tail = hypergeometric_sum(
        upper=(
            Fraction(-m),
            Fraction(-n),
            a + b + c + 1 - m - 2 * t,
            a + b + c + 1 + n - m - t,
        ),
        lower=(a + b + 1 - m - t, a + c + 1 - m - t, b + c + 1 - m - t),
        n_terms=min(m, n) + 1,
    )
    return lhs, ratio, linear, tail


def check_d1(t, a, b, c, n: int, m: int) -> bool:
    """Exact check of the seven-to-four slot transformation."""
    lhs, ratio, linear, tail = _d1_sides(t, a, b, c, n, m)
    return lhs == ratio * linear * tail


def conjugate_product_congruence(a, b, p: int, k: int, order: int) -> bool:
    """Check that the full conjugate-orbit product of shifted rising
    factorials collapses to a power of the plain one:

    * order 4: prod_{j<4} (a + b*i^j*p)_k is rational and congruent to
      (a)_k^4 mod p^4, with both two-factor halves congruent to (a)_k^2
      mod p^2;
    * order 5: the five-fold product is rational and congruent to (a)_k^5
      mod p^5.
    """
    if order not in (4, 5):
        raise ValueError("order must be 4 or 5")
    a = as_rational(a)
    b = as_rational(b)
    if vp(a, p) < 0 or vp(b, p) < 0:
        raise ValueError(f"arguments must be {p}-adic integers")
    root = CycElement.zeta(order)
    base = CycElement.from_rational(order, a)
    step = CycElement.from_rational(order, b * p)
    plain = pochhammer(a, k)
    factors = [rising(base + step * root ** j, k) for j in range(order)]
    full = CycElement.one(order)
    for f in factors:
        full = full * f
    if not full.is_rational:
        return False
    if order == 5:
        return vp(full.rational_value() - plain ** 5, p) >= 5
    if vp(full.rational_value() - plain ** 4, p) < 4:
        return False
    imag_pair = factors[1] * factors[3]  # shifts by +/- b*i*p
    real_pair = factors[0] * factors[2]  # shifts by +/- b*p
    for pair in (imag_pair, real_pair):
        if not pair.is_rational:
            return False
        if vp(pair.rational_value() - plain ** 2, p) < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Seeded fuzzing
# ---------------------------------------------------------------------------

FUZZ_DENOMINATORS = (1, 2, 3, 5, 7)


@dataclass
class IdentityFuzzResult:
    name: str
    trials: int
    seed: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_rng(seed: int, index: int) -> random.Random:
    # String seeding is stable across platforms and runs.
    return random.Random(f"{seed}:{index}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice(FUZZ_DENOMINATORS))


def fuzz_whipple(trials: int = 200, seed: int = 0, max_n: int = 6) -> IdentityFuzzResult:
    result = IdentityFuzzResult("whipple", trials, seed)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        while True:  # skip-and-resample on poles
            params = tuple(_random_rational(rng) for _ in range(5))
            n = rng.randint(0, max_n)
            try:
                ok = check_whipple(*params, n)
            except (PoleInRangeError, ZeroDivisionError):
                continue
            break
        if not ok:
            result.failures.append((*params, n))
    return result


def fuzz_karlsson_minton(trials: int = 200, seed: int = 0, max_n: int = 6) -> IdentityFuzzResult:
    result = IdentityFuzzResult("km", trials, seed)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        while True:
            depth = rng.randint(1, 3)
            ms = [rng.randint(0, 2) for _ in range(depth)]
            if sum(ms) >= max_n:
                continue
            n = rng.randint(sum(ms) + 1, max_n)
            bs = []
            for _ in range(depth):
                bq = _random_rational(rng)
                bs.append(bq if bq != 0 else Fraction(1, 2))
            try:
                ok = check_karlsson_minton(n, bs, ms)
            except (PoleInRangeError, ZeroDivisionError):
                continue
            break
        if not ok:
            result.failures.append((n, tuple(bs), tuple(ms)))
    return result


def fuzz_d1(trials: int = 200, seed: int = 0, max_n: int = 6) -> IdentityFuzzResult:
    result = IdentityFuzzResult("d1", trials, seed)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        while True:
            params = tuple(_random_rational(rng) for _ in range(4))
            n = rng.randint(0, max_n)
            m = rng.randint(0, max_n)
            try:
                ok = check_d1(*params, n, m)
            except (PoleInRangeError, ZeroDivisionError):
                continue
            break
        if not ok:
            result.failures.append((*params, n, m))
    return result


FUZZERS = {
    "whipple": fuzz_whipple,
    "km": fuzz_karlsson_minton,
    "d1": fuzz_d1,
}
