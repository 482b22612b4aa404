"""Arithmetic in Q(zeta_n) for n in {1, 4, 5}, as Q[x] modulo the n-th
cyclotomic polynomial.

Order 4 supplies the square root of -1, order 5 a primitive fifth root of
unity, and order 1 is plain Q.  Only these three orders exist here; there
is no general number-field machinery.

An element is phi(n) integer numerators over one positive integer
denominator, in canonical form: gcd(den, *nums) = 1, so two elements are
equal exactly when their fields are.  Phi_n is monic with coefficients
0 and +-1, so products are reduced in integers.  The inverse comes from the
norm: u * prod_j sigma_j(u) = N(u) is rational, where sigma_j sends x to
x^j over the units j mod n other than 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rationals import as_rational

# Phi_n below its leading x^deg term, low degree first:
# x - 1,  x^2 + 1,  x^4 + x^3 + x^2 + x + 1.
_MODULUS = {1: (-1,), 4: (1, 0), 5: (1, 1, 1, 1)}
# sigma_j: x -> x^j for the units j mod n other than 1.
_CONJUGATES = {1: (), 4: (3,), 5: (2, 3, 4)}

SUPPORTED_ORDERS = tuple(sorted(_MODULUS))


class OrderMismatchError(ValueError):
    """Raised when two elements from different cyclotomic orders are mixed."""


def _reduce(order: int, nums: list[int]) -> list[int]:
    """The remainder of an integer polynomial mod Phi_n, of length phi(n)."""
    mod = _MODULUS[order]
    deg = len(mod)
    for i in range(len(nums) - 1, deg - 1, -1):
        lead = nums[i]
        if lead:
            for j in range(deg):
                if mod[j]:
                    nums[i - deg + j] -= lead * mod[j]
    return nums[:deg] + [0] * (deg - len(nums))


def _convolve(u, v) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return out


def _conjugate(order: int, nums, j: int) -> list[int]:
    """The numerators of sigma_j(u): coefficient i moves to x^(i*j mod n)."""
    out = [0] * order
    for i, a in enumerate(nums):
        out[i * j % order] += a
    return _reduce(order, out)


class CycElement:
    """An element of Q[x]/Phi_n(x), n in {1, 4, 5}: ``nums`` over ``den``."""

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs) -> "CycElement":
        if order not in _MODULUS:
            raise ValueError(f"unsupported cyclotomic order {order}")
        vec = [as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec)) if vec else 1
        nums = [c.numerator * (den // c.denominator) for c in vec]
        return cls._make(order, _reduce(order, nums), den)

    @classmethod
    def _make(cls, order: int, nums, den: int) -> "CycElement":
        """nums/den, reduced mod Phi_n and den nonzero, in canonical form."""
        if den < 0:
            nums, den = [-a for a in nums], -den
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums, den = [a // g for a in nums], den // g
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)  # past the immutable __setattr__
        object.__setattr__(out, "nums", tuple(nums))
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("CycElement is immutable")

    @classmethod
    def from_rational(cls, order: int, value) -> "CycElement":
        if order not in _MODULUS:
            raise ValueError(f"unsupported cyclotomic order {order}")
        if type(value) is not Fraction:
            value = as_rational(value)
        nums = [0] * len(_MODULUS[order])
        nums[0] = value.numerator
        return cls._make(order, nums, value.denominator)

    @classmethod
    def zeta(cls, order: int) -> "CycElement":
        """The residue class of x: i for order 4, a fifth root for order 5."""
        return cls(order, [0, 1])

    @classmethod
    def zero(cls, order: int) -> "CycElement":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "CycElement":
        return cls(order, [1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, x, ..., x^(phi(n)-1) as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- coercion ---------------------------------------------------------

    def _wrap(self, other) -> "CycElement":
        if isinstance(other, CycElement):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cannot mix orders {self.order} and {other.order}"
                )
            return other
        return CycElement.from_rational(self.order, other)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        den = self.den
        if type(other) is int:
            return CycElement._make(self.order, (self.nums[0] + den * other,) + self.nums[1:], den)
        other = self._wrap(other)
        d2 = other.den
        if den == d2:
            nums = [a + b for a, b in zip(self.nums, other.nums)]
            return CycElement._make(self.order, nums, den)
        g = math.gcd(den, d2)
        s1, s2 = d2 // g, den // g
        nums = [a * s1 + b * s2 for a, b in zip(self.nums, other.nums)]
        return CycElement._make(self.order, nums, den * s1)

    __radd__ = __add__

    def __neg__(self):
        return CycElement._make(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if not isinstance(other, CycElement):  # a rational scalar
            c = other if type(other) is Fraction else as_rational(other)
            nums = [a * c.numerator for a in self.nums]
            return CycElement._make(self.order, nums, self.den * c.denominator)
        other = self._wrap(other)
        nums = _reduce(self.order, _convolve(self.nums, other.nums))
        return CycElement._make(self.order, nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._wrap(other).inverse()

    def __rtruediv__(self, other):
        return self._wrap(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = CycElement.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "CycElement":
        """Multiplicative inverse from the norm: u^-1 = prod_j sigma_j(u) / N(u)."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        order = self.order
        cofactor = [1]
        for j in _CONJUGATES[order]:
            cofactor = _reduce(order, _convolve(cofactor, _conjugate(order, self.nums, j)))
        # nums * cofactor is the integer N(nums), a rational element
        norm = _reduce(order, _convolve(self.nums, cofactor))[0]
        return CycElement._make(order, [self.den * a for a in cofactor], norm)

    # -- predicates ---------------------------------------------------------

    def __eq__(self, other):
        try:
            other = self._wrap(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_rational(self) -> bool:
        """True when every coefficient beyond the constant term is zero."""
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"element is not rational: {self!r}")
        return Fraction(self.nums[0], self.den)

    def __repr__(self):
        return f"CycElement(order={self.order}, coeffs={self.coeffs})"


def root_power_sum_check(n: int) -> bool:
    """Check that 1 + x + x^2 + x^3 + x^4 vanishes in Q[x]/Phi_5.

    Only n = 5 is meaningful; other orders are rejected.
    """
    if n != 5:
        raise ValueError("the vanishing power sum is specific to order 5")
    total = CycElement.zero(5)
    z = CycElement.zeta(5)
    for e in range(5):
        total = total + z ** e
    return total.is_zero
