"""Exact rational scalars, the rising factorial, and prime enumeration.

Rational scalars are ``fractions.Fraction``, which already maintains the
canonical form the rest of the package relies on: positive denominator,
numerator and denominator coprime.  The hot kernels take them apart into
integers: cyclotomic elements are integer numerators over one
denominator, quotient-ring coefficients are ``int``, and series steps and
residues run on integer numerators and denominators.  No floating point
is used anywhere.  ``pochhammer`` is the one rising factorial over Q,
Q(i) and Q(zeta_5): it reads its argument through ``numerator`` and
``denominator``, which int, Fraction and CycElement all have.
"""

from __future__ import annotations

import math
from fractions import Fraction

def as_rational(x) -> Fraction:
    """Coerce an int or Fraction to Fraction.  Floats are rejected.  A
    Fraction is returned as it is: Fractions are immutable."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a Fraction or int")
    return Fraction(x)


def pochhammer(a, n: int):
    """Rising factorial a(a+1)...(a+n-1), with the empty product 1 for n = 0:
    a Fraction for an int or Fraction ``a``, a CycElement of a's order for a
    field element.  ``a`` is split once into an integral numerator over an
    int denominator; the n integral factors are multiplied without a gcd,
    and the product is divided once by den^n.

    A nonpositive integer ``a`` legitimately yields 0 once the factors
    cross zero (terminating series); that is not an error.
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if isinstance(a, float):
        raise TypeError("floats are not exact; pass a Fraction, int or CycElement")
    num, den = a.numerator, a.denominator
    out = num if n else num ** 0  # the empty product in num's domain
    for j in range(1, n):
        out = out * (num + j * den)
    scale = den ** n
    if type(out) is int:
        return Fraction(out, scale)
    return out if scale == 1 else out * Fraction(1, scale)


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


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if lo > hi:
        raise ValueError("empty range: lo must not exceed hi")
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
