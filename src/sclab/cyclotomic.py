"""Arithmetic in Q(zeta_n) for n in {1, 4, 5}, as Q[x] modulo the n-th
cyclotomic polynomial.

Order 4 supplies the square root of -1, order 5 a primitive fifth root of
unity, and order 1 is plain Q.  Only these three orders exist here; there
is no general number-field machinery.

An element is phi(n) integer numerators over one positive integer
denominator, in canonical form: gcd(den, *nums) = 1, so two elements are
equal exactly when their fields are.  The product of two numerator
vectors is one closed form per order (``_PRODUCT``): at phi(n) <= 4
coefficients a straight-line formula beats a convolution loop followed by
a reduction.  The inverse comes from the norm through the same products:
u * prod_j sigma_j(u) = N(u) is rational, where sigma_j sends x to x^j
over the units j mod n other than 1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .rationals import as_rational
from .records import slot_setters

# Phi_n below its leading x^deg term, low degree first:
# x - 1,  x^2 + 1,  x^4 + x^3 + x^2 + x + 1.
_MODULUS = {1: (-1,), 4: (1, 0), 5: (1, 1, 1, 1)}
# sigma_j: x -> x^j for the units j mod n other than 1.
_CONJUGATES = {1: (), 4: (3,), 5: (2, 3, 4)}

SUPPORTED_ORDERS = tuple(sorted(_MODULUS))


class OrderMismatchError(ValueError):
    """Raised when two elements from different cyclotomic orders are mixed."""


def _degree(order: int) -> int:
    """phi(n), the number of numerators; ValueError for an unsupported n."""
    if order not in _MODULUS:
        raise ValueError(f"unsupported cyclotomic order {order}")
    return len(_MODULUS[order])


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


def _mul1(u, v) -> tuple[int]:
    return (u[0] * v[0],)


def _mul4(u, v) -> tuple[int, int]:
    """(a0 + a1 x)(b0 + b1 x) with x^2 = -1."""
    a0, a1 = u
    b0, b1 = v
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)


def _mul5(u, v) -> tuple[int, int, int, int]:
    """The 7-term convolution c reduced by x^5 = 1 and then
    x^4 = -(1 + x + x^2 + x^3): c_i + c_(i+5) - c_4, with c_7 = c_8 = 0."""
    a0, a1, a2, a3 = u
    b0, b1, b2, b3 = v
    c4 = a1 * b3 + a2 * b2 + a3 * b1
    return (
        a0 * b0 + a2 * b3 + a3 * b2 - c4,
        a0 * b1 + a1 * b0 + a3 * b3 - c4,
        a0 * b2 + a1 * b1 + a2 * b0 - c4,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4,
    )


# The product of two numerator vectors in Q[x]/Phi_n, by order.
_PRODUCT = {1: _mul1, 4: _mul4, 5: _mul5}


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
        _degree(order)
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
        # the slot descriptors write past the immutable __setattr__
        _set_order(out, order)
        _set_nums(out, tuple(nums))
        _set_den(out, den)
        return out

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("CycElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("CycElement is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the fields, not from coefficients
        return CycElement._make, (self.order, self.nums, self.den)

    @classmethod
    def from_rational(cls, order: int, value) -> "CycElement":
        value = as_rational(value)
        nums = [0] * _degree(order)
        nums[0] = value.numerator
        return cls._make(order, nums, value.denominator)

    @classmethod
    def zeta(cls, order: int) -> "CycElement":
        """The residue class of x: i for order 4, a fifth root for order 5."""
        _degree(order)
        return cls._make(order, _reduce(order, [0, 1]), 1)

    @classmethod
    def zero(cls, order: int) -> "CycElement":
        return cls._make(order, [0] * _degree(order), 1)

    @classmethod
    def one(cls, order: int) -> "CycElement":
        return cls._make(order, [1] + [0] * (_degree(order) - 1), 1)

    @property
    def numerator(self) -> "CycElement":
        """den * self, integral with denominator 1, as for int and Fraction."""
        return CycElement._make(self.order, self.nums, 1)

    @property
    def denominator(self) -> int:
        return self.den

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

    def _combine(self, other, sign: int):
        """self + sign * other for sign = 1 or -1, over one denominator."""
        den = self.den
        if type(other) is int:
            return CycElement._make(self.order, (self.nums[0] + sign * den * other,) + self.nums[1:], den)
        other = self._wrap(other)
        d2 = other.den
        if den == d2:
            nums = [a + sign * b for a, b in zip(self.nums, other.nums)]
            return CycElement._make(self.order, nums, den)
        g = math.gcd(den, d2)
        s1, s2 = d2 // g, sign * (den // g)
        nums = [a * s1 + b * s2 for a, b in zip(self.nums, other.nums)]
        return CycElement._make(self.order, nums, den * s1)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycElement._make(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __mul__(self, other):
        if type(other) is CycElement:
            if other.order != self.order:
                self._wrap(other)  # raises OrderMismatchError
            nums = _PRODUCT[self.order](self.nums, other.nums)
            return CycElement._make(self.order, nums, self.den * other.den)
        if type(other) is int:
            return CycElement._make(self.order, [a * other for a in self.nums], self.den)
        c = as_rational(other)  # a rational scalar; floats raise TypeError
        nums = [a * c.numerator for a in self.nums]
        return CycElement._make(self.order, nums, self.den * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._wrap(other).inverse()

    def __rtruediv__(self, other):
        return self._wrap(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return CycElement.one(self.order)
        # square up to the lowest set bit, then fold in the higher ones;
        # no product by one and no square past the top bit
        base, e = self, exponent
        while not e & 1:
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    def inverse(self) -> "CycElement":
        """Multiplicative inverse from the norm: u^-1 = prod_j sigma_j(u) / N(u)."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        order, nums = self.order, self.nums
        mul = _PRODUCT[order]
        # order 1 has no conjugates: the cofactor is 1 and N(u) = u
        conjugates = [_conjugate(order, nums, j) for j in _CONJUGATES[order]]
        cofactor = functools.reduce(mul, conjugates) if conjugates else (1,)
        # nums * cofactor is the integer N(nums), a rational element
        norm = mul(nums, cofactor)[0]
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


_set_order, _set_nums, _set_den = slot_setters(CycElement)


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
