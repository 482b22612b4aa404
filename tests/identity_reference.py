"""Reference identity checks, evaluated as field values.

Each check evaluates its sides as Fractions or CycElements, through
``hypergeometric_sum`` and ``rising_product``, and compares values with
``==``.  ``sclab.hyperkernel`` runs the same checks on integral numerators
and compares cross-products; the equivalence tests hold the two to the same
bool, or the same exception type, on every draw.  ``factor_sum`` is the
series kernel's reference: each step formed factor by factor, whose
(total, den) pair ``hyperkernel._sum`` must give exactly.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from sclab import hyperkernel
from sclab.cyclotomic import _PRODUCT, CycElement
from sclab.hyperkernel import (
    IdentityPreconditionError,
    PoleInRangeError,
    hypergeometric_sum,
)
from sclab.padic import NonIntegralInputError, vp
from sclab.rationals import as_rational, is_prime, pochhammer


def rising_product(x, n):
    """(x)_n as the product of values x(x + 1)...(x + n - 1), the empty
    product being 1 in x's domain.  It uses no ``rationals.rising``, the
    kernel of the integer routes under test."""
    out = CycElement.one(x.order) if isinstance(x, CycElement) else Fraction(1)
    for j in range(n):
        out = out * (x + j)
    return out


def scalars(values):
    """Ints and Fractions as they are, a rational CycElement as a Fraction;
    floats and mixed orders are refused."""
    if len({v.order for v in values if isinstance(v, CycElement)}) > 1:
        raise ValueError("mixed cyclotomic orders in one series")
    return [
        (v.rational_value() if v.is_rational else v)
        if isinstance(v, CycElement)
        else v if isinstance(v, int) else as_rational(v)
        for v in values
    ]


def nonzero_or_pole(*factors):
    for f in factors:
        if f == 0:
            raise PoleInRangeError("prefactor denominator vanishes")


def well_poised(a, params, n):
    half = a * Fraction(1, 2)
    return hypergeometric_sum(
        upper=(a, 1 + half, *params, -n),
        lower=(half, *(1 + a - x for x in params), 1 + a + n),
        n_terms=n + 1,
    )


def whipple_series(a, b, c, d, e, n):
    return hypergeometric_sum(
        upper=(1 + a - b - c, d, e, -n),
        lower=(d + e - a - n, 1 + a - b, 1 + a - c),
        n_terms=n + 1,
    )


def whipple_sides(a, b, c, d, e, n):
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    a, b, c, d, e = scalars([a, b, c, d, e])
    lhs = well_poised(a, (b, c, d, e), n)
    den1 = rising_product(1 + a - d, n)
    den2 = rising_product(1 + a - e, n)
    nonzero_or_pole(den1, den2)
    prefactor = rising_product(a + 1, n) * rising_product(a - d - e + 1, n) / (den1 * den2)
    return lhs, prefactor, whipple_series(a, b, c, d, e, n)


def check_whipple(a, b, c, d, e, n):
    lhs, prefactor, series = whipple_sides(a, b, c, d, e, n)
    return lhs == prefactor * series


def karlsson_minton_series(n, bs, ms):
    if len(bs) != len(ms):
        raise ValueError("parameter lists must have equal length")
    if any(int(m) != m or m < 0 for m in ms):
        raise IdentityPreconditionError("shifts must be nonnegative integers")
    if not (isinstance(n, int) and n > sum(ms)):
        raise IdentityPreconditionError(
            f"need integer n > sum of shifts; got n={n}, sum={sum(ms)}"
        )
    bs = scalars(bs)
    return hypergeometric_sum(
        upper=(-n, *(b + m for b, m in zip(bs, ms))), lower=bs, n_terms=n + 1
    )


def check_karlsson_minton(n, bs, ms):
    return karlsson_minton_series(n, bs, ms) == 0


def d1_sides(t, a, b, c, n, m):
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative integers")
    t, a, b, c = scalars([t, a, b, c])
    s = a + b + c + 1 - m - t
    lows = (s - c, s - b, s - a)
    top, w = s - t, s + n
    lhs = well_poised(t, (t - a, t - b, t - c, w), n)
    lower = math.prod(rising_product(x, n) for x in (1 + a, 1 + b, 1 + c, top))
    nonzero_or_pole(lower)
    uppers = (rising_product(1 + t, n), *(rising_product(x + 1, n) for x in lows))
    lin_den = math.prod(x + n for x in lows)
    nonzero_or_pole(lin_den)
    linear = math.prod(lows, start=Fraction(1)) / lin_den
    tail = hypergeometric_sum(upper=(-m, -n, top, w), lower=lows, n_terms=min(m, n) + 1)
    return lhs, lows, uppers, lower, linear, tail


def check_d1(t, a, b, c, n, m):
    lhs, _, uppers, lower, linear, tail = d1_sides(t, a, b, c, n, m)
    return lhs == math.prod(uppers) / lower * linear * tail


def conjugate_product_congruence(a, b, p, k, order):
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
    factors = [rising_product(base + step * root ** j, k) for j in range(order)]
    mul = _PRODUCT[order]

    def rational_product(elements):
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
    for pair in (factors[1::2], factors[0::2]):
        value = rational_product(pair)
        if value is None or vp(value - plain ** 2, p) < 2:
            return False
    return True


def factor_sum(ups, lows, n_terms, mul, z=(1, 1), e=1, weight=((0, 1), (1, 1))):
    """``hyperkernel._sum``'s exact (total, den) pair, folded one step at a
    time, each step's numerator and denominator formed factor by factor
    through ``_times``: an int or a numerator tuple per parameter, with no
    polynomial in k and no runs."""
    times, plus = hyperkernel._times, hyperkernel._plus
    (w_slope, w_slope_den), (w_const, w_const_den) = weight
    w_step, w_start = w_slope * w_const_den, w_const * w_slope_den
    total = w_start if n_terms else 0
    term, den = 1, w_slope_den * w_const_den

    def shifted(an, ad, k):
        return an + k * ad if type(an) is int else (an[0] + k * ad, *an[1:])

    for k in range(n_terms - 1):
        num, step = z[0], z[1] * (k + 1) ** e
        for an, ad in ups:
            num, step = times(num, shifted(an, ad, k), mul), times(step, ad, mul)
        for bn, bd in lows:
            num, step = times(num, bd, mul), times(step, shifted(bn, bd, k), mul)
        if num == 0:
            break
        term = times(term, num, mul)
        total = plus(times(total, step, mul), times(w_step * (k + 1) + w_start, term, mul))
        den = times(den, step, mul)
    return total, den


# ---------------------------------------------------------------------------
# Seeded draws, and the draws on which a check and its reference disagree
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 5, 7, 9)
MAX_N = 8  # the largest n, m or Karlsson-Minton n drawn


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _draw_whipple(rng):
    return (*(_rational(rng) for _ in range(5)), rng.randint(0, MAX_N))


def _draw_d1(rng):
    return (*(_rational(rng) for _ in range(4)), rng.randint(0, MAX_N), rng.randint(0, MAX_N))


def _draw_km(rng):
    while True:
        ms = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        if sum(ms) < MAX_N:
            n = rng.randint(sum(ms) + 1, MAX_N)
            return n, tuple(_rational(rng) for _ in ms), ms


# name: (draw, reference check, name of the package check)
IDENTITIES = {
    "whipple": (_draw_whipple, check_whipple, "check_whipple"),
    "d1": (_draw_d1, check_d1, "check_d1"),
    "km": (_draw_km, check_karlsson_minton, "check_karlsson_minton"),
}


def outcome(check, args):
    """The check's bool, or the type of the exception it raises."""
    try:
        return check(*args)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


def disagreements(name, draws, seed):
    """The draws of ``name`` on which the package check and the reference
    give different outcomes, and how often each outcome came up."""
    draw, reference, check_name = IDENTITIES[name]
    check = getattr(hyperkernel, check_name)
    rng = random.Random(f"{name}:{seed}")
    bad, seen = [], {}
    for _ in range(draws):
        args = draw(rng)
        got, want = outcome(check, args), outcome(reference, args)
        seen[want] = seen.get(want, 0) + 1
        if got != want or type(got) is not type(want):
            bad.append((args, got, want))
    return bad, seen


def conjugate_cases(count, seed):
    """Seeded conjugate-product cases: p-adic unit rationals a, b at a small
    prime p, k up to MAX_N, order 4 or 5."""
    rng = random.Random(f"conjugate:{seed}")
    cases = []
    for _ in range(count):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a, b = (_unit(rng, p) for _ in range(2))
        cases.append((a, b, p, rng.randint(0, MAX_N), rng.choice([4, 5])))
    return cases


def _unit(rng, p):
    while True:
        den = rng.randint(1, 20)
        if den % p:
            return Fraction(rng.randint(-20, 20), den)
