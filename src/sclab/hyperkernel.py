"""Exact truncated hypergeometric sums over Q, Q(i) or Q(zeta_5), and the
three transformation/summation identities the claim checkers replay.

A series here is a finite weighted sum

    sum_{k=0}^{N-1}  (m*k + r) * prod_i (a_i)_k * z^k
                     ---------------------------------
                        k!^e  *  prod_j (b_j)_k

with all scalars in Q or in one cyclotomic field.  One recurrence,
``_weighted_sum``, sums every series on raw integers: each parameter is
split once into an integral numerator over an int denominator.  Rational
values, even when they come as field elements, run as ints; irrational
ones as numerator tuples through ``cyclotomic``'s closed-form products,
and a product that comes out rational (a conjugate pair) drops back to an
int.  ``rationals.pochhammer``, the one rising factorial the identity
sides use, splits its argument the same way.  ``eval_truncated`` divides
its result once, exactly, building one canonical element;
``eval_truncated_residue`` runs it mod p^K, exact whenever the term
denominators are p-adic units.  A check returns True only when both sides
are literally equal as field elements.

Every series of the identity checks comes from one of three builders:
``_well_poised`` (the terminating very-well-poised seven-slot series, the
left side of both transformations), ``_whipple_series`` (Whipple's
four-slot series) and ``_karlsson_minton_series``.  The claim chains take
their series from the same builders and sides the checks use.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from .cyclotomic import _PRODUCT, CycElement
from .padic import NonIntegralInputError, PadicContext, Residue, vp
from .rationals import as_rational, is_prime, pochhammer
from .records import FrozenRecord, Record

Scalar = int | Fraction | CycElement


class PoleInRangeError(ArithmeticError):
    """A lower-parameter rising factorial vanishes inside the truncation."""


class IdentityPreconditionError(ValueError):
    """The identity's side conditions fail; the check is not attempted."""


def _scalars(values: Sequence[Scalar]) -> list:
    """The values as ints, Fractions and CycElements of one order.  Ints
    and Fractions are kept as they are, so a value is normalised once even
    when it passes here again; a rational CycElement becomes a Fraction, so
    only irrational values run field arithmetic.  Floats are rejected."""
    if len({v.order for v in values if isinstance(v, CycElement)}) > 1:
        raise ValueError("mixed cyclotomic orders in one series")
    return [
        (v.rational_value() if v.is_rational else v)
        if isinstance(v, CycElement)
        else v if isinstance(v, int) else as_rational(v)
        for v in values
    ]


class SeriesSpec(FrozenRecord):
    """A truncated weighted hypergeometric sum."""

    __slots__ = (
        "upper", "lower", "argument", "truncation", "weight", "factorial_power",
    )
    _defaults = {
        "argument": 1,
        "truncation": 1,
        "weight": (Fraction(0), Fraction(1)),
        "factorial_power": 1,
    }

    def _check(self) -> None:
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if self.factorial_power < 0:
            raise ValueError("factorial power must be nonnegative")


def _times(u, v, mul):
    """u * v for numerators that are ints or numerator tuples, ``mul`` being
    the order's tuple product.  A product whose non-constant coordinates
    are all zero becomes an int, as that of a conjugate pair of parameters
    does, so the products after it are int products again."""
    if type(u) is int:
        if type(v) is int:
            return u * v
        return tuple([u * c for c in v]) if u else 0
    if type(v) is int:
        return tuple([c * v for c in u]) if v else 0
    out = mul(u, v)
    return out if any(out[1:]) else out[0]


def _plus(u, v):
    """u + v for numerators that are ints or numerator tuples."""
    if type(u) is int:
        if type(v) is int:
            return u + v
        return (v[0] + u, *v[1:])
    if type(v) is int:
        return (u[0] + v, *u[1:])
    return tuple([a + b for a, b in zip(u, v)])


def _weighted_sum(spec: SeriesSpec, modulus: int = 0) -> tuple:
    """The truncated sum as total / den, with total and den integral: ints
    when every parameter is rational, and otherwise each an int or a
    numerator tuple over denominator 1 in the parameters' field.

    Every parameter is split once, through ``numerator``/``denominator``,
    into an integral numerator over an int denominator, so term k+1 =
    term k * num_k / den_k with integral num_k and den_k.  The running term
    and the running sum share one denominator, the weight's times the
    product of the den_k so far.  When every value is rational the loop
    runs on ints, and a nonzero modulus reduces all three after each step;
    otherwise it runs exactly, on ints where a value is rational and on
    numerator tuples through ``_times`` and ``_plus`` where it is not.  The
    sum stops at a term that is exactly zero (a terminating upper
    parameter).  Raises PoleInRangeError when a lower rising factorial
    vanishes inside the truncation.
    """
    *params, z = _scalars([*spec.upper, *spec.lower, spec.argument])
    upper, lower = params[: len(spec.upper)], params[len(spec.upper) :]
    n_terms = spec.truncation
    for b in lower:
        if not isinstance(b, CycElement) and b.denominator == 1 and 0 <= -b < n_terms - 1:
            raise PoleInRangeError(f"lower parameter {b!r} vanishes at shift {-b}")
    ups = [(a.numerator, a.denominator) for a in upper]
    lows = [(b.numerator, b.denominator) for b in lower]
    z_num, z_den = z.numerator, z.denominator
    low_dens = math.prod(bd for _, bd in lows)
    den_const = z_den * math.prod(ad for _, ad in ups)
    w_slope, w_const = (as_rational(w) for w in spec.weight)
    w_step = w_slope.numerator * w_const.denominator
    w_start = w_const.numerator * w_slope.denominator
    e = spec.factorial_power
    total = w_start if n_terms else 0
    term, den = 1, w_slope.denominator * w_const.denominator
    order = next((v.order for v in (z, *params) if isinstance(v, CycElement)), 0)
    if not order:
        num_const = z_num * low_dens
        for k in range(n_terms - 1):
            num = num_const
            for an, ad in ups:
                num = num * (an + k * ad)
            if num == 0:
                break  # every later term is zero too
            step = den_const * (k + 1) ** e
            for bn, bd in lows:
                step = step * (bn + k * bd)
            # term k+1, and the sum moved onto its denominator den * step
            term = term * num
            total = total * step + (w_step * (k + 1) + w_start) * term
            den = den * step
            if modulus:
                term, total, den = term % modulus, total % modulus, den % modulus
        return total, den
    # the rational factors multiply as ints first, and only the irrational
    # ones, as numerator tuples, go through _times; z's numerator is an
    # irrational factor with no shift
    mul = _PRODUCT[order]
    int_ups = [(an, ad) for an, ad in ups if type(an) is int]
    cyc_ups = [(an.nums, ad) for an, ad in ups if type(an) is not int]
    int_lows = [(bn, bd) for bn, bd in lows if type(bn) is int]
    cyc_lows = [(bn.nums, bd) for bn, bd in lows if type(bn) is not int]
    if type(z_num) is not int:
        cyc_ups.append((z_num.nums, 0))
        z_num = 1
    num_const = z_num * low_dens
    for k in range(n_terms - 1):
        num = num_const
        for an, ad in int_ups:
            num *= an + k * ad
        if num == 0:
            break  # every later term is zero too; an irrational factor is never 0
        for an, ad in cyc_ups:
            num = _times(num, (an[0] + k * ad, *an[1:]), mul)
        step = den_const * (k + 1) ** e
        for bn, bd in int_lows:
            step *= bn + k * bd
        for bn, bd in cyc_lows:
            step = _times(step, (bn[0] + k * bd, *bn[1:]), mul)
        term = _times(term, num, mul)
        weight = w_step * (k + 1) + w_start
        total = _plus(_times(total, step, mul), _times(weight, term, mul))
        den = _times(den, step, mul)
    return total, den


def eval_truncated(spec: SeriesSpec) -> Scalar:
    """Exact value of the truncated sum; PoleInRangeError when a lower
    rising factorial vanishes anywhere inside the truncation range.

    The value is a Fraction, or a CycElement when any parameter is one.
    It costs one division, at the end of ``_weighted_sum``, which is also
    where the field elements are built."""
    total, den = _weighted_sum(spec)
    values = (*spec.upper, *spec.lower, spec.argument)
    element = next((v for v in values if isinstance(v, CycElement)), None)
    if element is None:
        return Fraction(total, den)
    order = element.order
    if type(den) is tuple:
        if type(total) is tuple:
            total = CycElement._make(order, total, 1)
        return total / CycElement._make(order, den, 1)
    if type(total) is tuple:
        return CycElement._make(order, total, den)
    return CycElement.from_rational(order, Fraction(total, den))


def eval_truncated_residue(spec: SeriesSpec, ctx: PadicContext) -> Residue:
    """Residue mod p^K of the truncated sum of a rational spec, in O(N)
    integer multiplies mod p^K.

    ``_weighted_sum`` runs mod p^K, and its one denominator is inverted at
    the end.  That is exact when every denominator factor of a nonzero
    term, and the weight's denominator, is prime to p;
    NonIntegralInputError is raised otherwise.
    """
    values = list(spec.upper) + list(spec.lower) + [spec.argument] + list(spec.weight)
    if any(isinstance(v, CycElement) for v in values):
        raise TypeError("the residue route takes rational parameters only")
    total, den = _weighted_sum(spec, ctx.modulus)
    if den % ctx.p == 0:
        raise NonIntegralInputError(
            f"a term's denominator or the weight's is divisible by {ctx.p}"
        )
    return Residue(total * pow(den, -1, ctx.modulus) % ctx.modulus, ctx)


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


def _well_poised(a, params, n: int):
    """The terminating very-well-poised series of seven parameter slots:
    upper a, 1 + a/2, each param and -n; lower a/2, 1 + a - x for each
    param x, and 1 + a + n."""
    half = a * Fraction(1, 2)  # a may be an int
    return hypergeometric_sum(
        upper=(a, 1 + half, *params, -n),
        lower=(half, *(1 + a - x for x in params), 1 + a + n),
        n_terms=n + 1,
    )


def _whipple_series(a, b, c, d, e, n: int):
    """Whipple's terminating four-slot series: upper 1 + a - b - c, d, e,
    -n; lower d + e - a - n, 1 + a - b, 1 + a - c."""
    return hypergeometric_sum(
        upper=(1 + a - b - c, d, e, -n),
        lower=(d + e - a - n, 1 + a - b, 1 + a - c),
        n_terms=n + 1,
    )


def _whipple_sides(a, b, c, d, e, n: int):
    """Whipple's reduction of the well-poised series at params (b, c, d, e)
    to his four-slot series with a rising-factorial prefactor, returned
    unevaluated for reuse: (seven-slot series, prefactor, four-slot
    series)."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    a, b, c, d, e = _scalars([a, b, c, d, e])
    lhs = _well_poised(a, (b, c, d, e), n)
    den1 = pochhammer(1 + a - d, n)
    den2 = pochhammer(1 + a - e, n)
    _nonzero_or_pole(den1, den2)
    prefactor = pochhammer(a + 1, n) * pochhammer(a - d - e + 1, n) / (den1 * den2)
    return lhs, prefactor, _whipple_series(a, b, c, d, e, n)


def check_whipple(a, b, c, d, e, n: int) -> bool:
    """Returns True iff both sides of ``_whipple_sides`` agree exactly."""
    lhs, prefactor, series = _whipple_sides(a, b, c, d, e, n)
    return lhs == prefactor * series


def _karlsson_minton_series(n: int, bs, ms):
    """The terminating series with integrally shifted parameter pairs:
    upper -n and b_i + m_i, lower b_i, unit argument.

    Karlsson-Minton says it vanishes for nonnegative integers m_i with
    n > sum(m_i); violating that side condition raises
    IdentityPreconditionError because the sum need not vanish there.
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
    return hypergeometric_sum(
        upper=(-n, *(b + m for b, m in zip(bs, ms))), lower=bs, n_terms=n + 1
    )


def check_karlsson_minton(n: int, bs, ms) -> bool:
    """Exact check of the Karlsson-Minton vanishing; see
    ``_karlsson_minton_series`` for the side conditions."""
    return _karlsson_minton_series(n, bs, ms) == 0


def _d1_sides(t, a, b, c, n: int, m: int):
    """Both sides of the seven-to-four slot transformation used by the
    sixth-power claim chain, returned unevaluated for reuse: (seven-slot
    series, the tail's lower parameters x, the ratio's upper rising
    factorials, the product of its lower ones, linear factor, tail).

    With s = a + b + c + 1 - m - t, the x are s - c, s - b, s - a; the
    ratio is (1 + t)_n prod (x + 1)_n, its upper factors in that order,
    over (1 + a)_n (1 + b)_n (1 + c)_n (s - t)_n; the well-poised series
    has params t - a, t - b, t - c and s + n."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative integers")
    t, a, b, c = _scalars([t, a, b, c])
    s = a + b + c + 1 - m - t
    lows = (s - c, s - b, s - a)
    top, w = s - t, s + n
    lhs = _well_poised(t, (t - a, t - b, t - c, w), n)
    lower = math.prod(pochhammer(x, n) for x in (1 + a, 1 + b, 1 + c, top))
    _nonzero_or_pole(lower)
    uppers = (pochhammer(1 + t, n), *(pochhammer(x + 1, n) for x in lows))
    lin_den = math.prod(x + n for x in lows)
    _nonzero_or_pole(lin_den)
    linear = math.prod(lows, start=Fraction(1)) / lin_den  # lows may be ints
    tail = hypergeometric_sum(upper=(-m, -n, top, w), lower=lows, n_terms=min(m, n) + 1)
    return lhs, lows, uppers, lower, linear, tail


def check_d1(t, a, b, c, n: int, m: int) -> bool:
    """Exact check of the seven-to-four slot transformation."""
    lhs, _, uppers, lower, linear, tail = _d1_sides(t, a, b, c, n, m)
    return lhs == math.prod(uppers) / lower * linear * tail


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = as_rational(a)
    b = as_rational(b)
    if vp(a, p) < 0 or vp(b, p) < 0:
        raise NonIntegralInputError(f"arguments must be {p}-adic integers")
    root = CycElement.zeta(order)
    base = CycElement.from_rational(order, a)
    step = CycElement.from_rational(order, b * p)
    plain = pochhammer(a, k)
    factors = [pochhammer(base + step * root ** j, k) for j in range(order)]
    mul = _PRODUCT[order]

    def rational_product(elements):
        """The product of the elements as a Fraction, folded on their
        numerator tuples, or None when it is irrational."""
        nums = functools.reduce(mul, [u.nums for u in elements])
        if any(nums[1:]):
            return None
        return Fraction(nums[0], math.prod(u.den for u in elements))

    full = rational_product(factors)
    if full is None:
        return False
    if order == 5:
        return vp(full - plain ** 5, p) >= 5
    if vp(full - plain ** 4, p) < 4:
        return False
    # the shifts by +/- b*i*p, then those by +/- b*p
    for pair in (factors[1::2], factors[0::2]):
        value = rational_product(pair)
        if value is None or vp(value - plain ** 2, p) < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Seeded fuzzing
# ---------------------------------------------------------------------------

FUZZ_DENOMINATORS = (1, 2, 3, 5, 7)
FUZZ_MAX_N = 6  # the largest n (and m) a fuzzer draws


class IdentityFuzzResult(Record):
    __slots__ = ("name", "trials", "seed", "failures")
    _defaults = {"failures": None}

    def _check(self) -> None:
        if self.failures is None:
            self.failures = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_rng(seed: int, index: int) -> random.Random:
    # String seeding is stable across platforms and runs.  random is
    # imported here: only the fuzzers draw, and a cold start would pay for it.
    import random

    return random.Random(f"{seed}:{index}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice(FUZZ_DENOMINATORS))


def _fuzz(name, trials, seed, draw, check) -> IdentityFuzzResult:
    """Run ``check`` on one draw per trial.  A draw of None, or one whose
    check meets a pole, is skipped and resampled from the trial's stream;
    a failing draw is recorded as its argument tuple."""
    result = IdentityFuzzResult(name, trials, seed)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        while True:
            args = draw(rng)
            if args is None:
                continue
            try:
                ok = check(*args)
            except (PoleInRangeError, ZeroDivisionError):
                continue
            break
        if not ok:
            result.failures.append(args)
    return result


def fuzz_whipple(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        params = tuple(_random_rational(rng) for _ in range(5))
        return (*params, rng.randint(0, FUZZ_MAX_N))

    return _fuzz("whipple", trials, seed, draw, check_whipple)


def fuzz_karlsson_minton(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        depth = rng.randint(1, 3)
        ms = tuple(rng.randint(0, 2) for _ in range(depth))
        if sum(ms) >= FUZZ_MAX_N:
            return None
        n = rng.randint(sum(ms) + 1, FUZZ_MAX_N)
        bs = tuple(_random_rational(rng) or Fraction(1, 2) for _ in range(depth))
        return n, bs, ms

    return _fuzz("km", trials, seed, draw, check_karlsson_minton)


def fuzz_d1(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        params = tuple(_random_rational(rng) for _ in range(4))
        return (*params, rng.randint(0, FUZZ_MAX_N), rng.randint(0, FUZZ_MAX_N))

    return _fuzz("d1", trials, seed, draw, check_d1)


FUZZERS = {
    "whipple": fuzz_whipple,
    "km": fuzz_karlsson_minton,
    "d1": fuzz_d1,
}
