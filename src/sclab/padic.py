"""p-adic valuations, residues mod p^k, and the congruence predicate.

A congruence ``a = b (mod p^k)`` between rationals means, throughout this
package, that v_p(a - b) >= k.  Defining it through the valuation of the
difference (rather than residue equality) keeps statements checkable even
when individual terms of a sum are p-integral only after cancellation.
"""

from __future__ import annotations

import math

from .rationals import as_rational, is_prime
from .records import FrozenRecord

Valuation = int | float  # int, or math.inf for the zero element


class NonIntegralInputError(ValueError):
    """Input is not a p-adic integer (its denominator is divisible by p)."""


def vp(x, p: int) -> Valuation:
    """p-adic valuation of a rational; +infinity for 0, negative for
    denominators divisible by p.  Raises ValueError for p < 2, where no
    valuation exists.  An int is read as it is, with denominator 1."""
    if p < 2:
        raise ValueError(f"a valuation needs p >= 2, got {p}")
    if not isinstance(x, int):
        x = as_rational(x)
    if x == 0:
        return math.inf
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class PadicContext(FrozenRecord):
    """A prime power modulus p^k with its cached integer value."""

    __slots__ = ("p", "k", "modulus")

    def __init__(self, p: int, k: int):
        if type(p) is not int or type(k) is not int:
            raise TypeError(f"p and k must be ints, got p={p!r}, k={k!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be at least 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", p ** k)

    def reduce(self, x) -> "Residue":
        """The unique residue of a p-adic integer x mod p^k, computed as
        numerator * denominator^-1 mod p^k; an int is reduced as it is."""
        if type(x) is int:
            return Residue(x % self.modulus, self)
        x = as_rational(x)
        if vp(x, self.p) < 0:
            raise NonIntegralInputError(
                f"{x} is not a {self.p}-adic integer (valuation "
                f"{vp(x, self.p)})"
            )
        value = (
            x.numerator * pow(x.denominator, -1, self.modulus)
        ) % self.modulus
        return Residue(value, self)


class Residue(FrozenRecord):
    """An integer in [0, p^k) tagged with its context."""

    __slots__ = ("value", "context")

    def _check(self) -> None:
        if not 0 <= self.value < self.context.modulus:
            raise ValueError(
                f"residue {self.value} out of range for modulus {self.context.modulus}"
            )

    def _same_context(self, other: "Residue") -> None:
        if other.context != self.context:
            raise ValueError("mixed p-adic contexts")

    def __add__(self, other: "Residue") -> "Residue":
        self._same_context(other)
        return Residue((self.value + other.value) % self.context.modulus, self.context)

    def __sub__(self, other: "Residue") -> "Residue":
        self._same_context(other)
        return Residue((self.value - other.value) % self.context.modulus, self.context)

    def __mul__(self, other: "Residue") -> "Residue":
        self._same_context(other)
        return Residue((self.value * other.value) % self.context.modulus, self.context)

    def __pow__(self, exponent: int) -> "Residue":
        return Residue(
            pow(self.value, exponent, self.context.modulus), self.context
        )

    def inverse(self) -> "Residue":
        return self ** -1

    def __int__(self) -> int:
        return self.value


class CongruenceCheck(FrozenRecord):
    """Outcome of a congruence test together with its witness valuation."""

    __slots__ = ("holds", "valuation")

    def __bool__(self) -> bool:
        return self.holds


def congruent(a, b, ctx: PadicContext) -> CongruenceCheck:
    """Whether v_p(a - b) >= k, always reporting the witness valuation."""
    w = vp(as_rational(a) - as_rational(b), ctx.p)
    return CongruenceCheck(w >= ctx.k, w)
