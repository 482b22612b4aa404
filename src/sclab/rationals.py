"""Exact rational scalars, the rising factorial, and prime enumeration.

Rational scalars are ``fractions.Fraction``, which already maintains the
canonical form the rest of the package relies on: positive denominator,
numerator and denominator coprime.  The hot kernels take them apart into
integers: cyclotomic elements are integer numerators over one
denominator, quotient-ring coefficients are ``int``, and series steps and
residues run on integer numerators and denominators; ``_cleared`` brings
a list of rationals over one denominator for ``cyclotomic`` and ``qring``
alike.  No floating point enters any value.  ``rising`` forms a rising
factorial's numerator over den^n, on an int numerator or on a numerator
tuple of Q(i) or Q(zeta_5) with the order's product passed in; it folds
up to _FOLD_MAX factors and halves longer products, a balanced tree.
``pochhammer``, the rising factorial of a rational, builds its Fraction
once from it and refuses a field element: ``cyclotomic`` imports this
module, never the other way round.  ``iter_primes`` enumerates primes from a segmented sieve, in memory
O(sqrt(hi)), and ``primes_in`` lists them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter


def as_rational(x) -> Fraction:
    """An int, Fraction or Decimal as the Fraction of its exact value; a
    Fraction is returned as it is, Fractions being immutable.  A float or a
    str raises TypeError, as does any other type ``Fraction`` refuses."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a Fraction or int")
    if isinstance(x, str):
        raise TypeError(f"strings are not parsed; pass a Fraction or int, not {x!r}")
    return Fraction(x)


_denominator = attrgetter("denominator")


def _cleared(coeffs):
    """(nums, den): ints and Fractions as integer numerators over the lcm
    of their denominators.  A list with no Fraction comes back as it is."""
    if Fraction not in set(map(type, coeffs)):
        return coeffs, 1
    den = math.lcm(*map(_denominator, coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


# The longest fold of rising factors or series steps: past it, multiplying
# one small factor into a huge running product costs more than balancing.
_FOLD_MAX = 24


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1) of a rational ``a``, with the empty
    product 1 for n = 0.  ``a`` is read through ``as_rational`` (a float,
    a complex or a field element raises TypeError), ``rising`` multiplies
    the n integral factors of its numerator, and the product is divided
    once by den^n.  A field element's rising factorial is ``rising`` on its
    numerator tuple.

    A nonpositive integer ``a`` legitimately yields 0 once the factors
    cross zero (terminating series); that is not an error.
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    a = as_rational(a)
    return Fraction(rising(a.numerator, a.denominator, n), a.denominator ** n)


def rising(num, den: int, n: int, mul=None):
    """The numerator of (num/den)_n over den^n, n >= 0, with no gcd: the
    factors num + j*den of an int ``num``, or (num0 + j*den, num1, ...) of
    a numerator tuple multiplied by the order's product ``mul``; past
    _FOLD_MAX factors, the product of its two halves."""
    if n > _FOLD_MAX:
        h = n // 2
        if type(num) is int:
            return rising(num, den, h) * rising(num + h * den, den, n - h)
        return mul(rising(num, den, h, mul), rising((num[0] + h * den, *num[1:]), den, n - h, mul))
    if type(num) is int:
        return math.prod(range(num, num + n * den, den))
    head, rest = num[0], num[1:]
    out = num if n else 1
    for j in range(1, n):
        out = mul(out, (head + j * den, *rest))
    return out


# Trial division is the faster below 10^6, even on primes (~11 us each way
# at 10^6 on Python 3.11).  Miller-Rabin on these 13 bases has no strong
# pseudoprime below _MR_BOUND (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division below 10^6, Miller-Rabin
    with fixed bases from there up to 3.3 * 10^24, where it is exact; at and
    above that bound ValueError is raised."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    if n < 10**6:
        d = 5
        while d * d <= n:
            if n % d == 0 or n % (d + 2) == 0:
                return False
            d += 6
        return True
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Numbers sieved at a time: 64 KiB of bytearray, well inside the L2 cache.
_SEGMENT = 1 << 16


def iter_primes(lo: int, hi: int):
    """The primes p with lo <= p <= hi, ascending, as an iterator.

    A segmented sieve: each segment of _SEGMENT numbers is crossed off by
    the primes up to the square root of its top, which are themselves
    sieved on demand.  Memory is O(sqrt(hi) + _SEGMENT), so the first
    primes of a range up to 10^15 come at once instead of after a
    hi-byte sieve."""
    if lo > hi:
        raise ValueError("empty range: lo must not exceed hi")
    return _sieved(max(lo, 2), hi)


def _sieved(lo: int, hi: int):
    """The primes in [lo, hi] for lo >= 2, segment by segment."""
    base: list[int] = []  # every prime up to base_top
    base_top = 1
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT, hi + 1)
        root = math.isqrt(stop - 1)
        if root > base_top:
            base += _sieved(base_top + 1, root)
            base_top = root
        segment = bytearray([1]) * (stop - start)
        for p in base:
            first = max(p * p, -(-start // p) * p)
            if first < stop:
                segment[first - start :: p] = bytes((stop - 1 - first) // p + 1)
        yield from itertools.compress(range(start, stop), segment)


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return list(iter_primes(lo, hi))
