"""p-adic valuations, residues mod p^k, and the congruence predicate.

A congruence ``a = b (mod p^k)`` between rationals means, throughout this
package, that v_p(a - b) >= k.  Defining it through the valuation of the
difference (rather than residue equality) keeps statements checkable even
when individual terms of a sum are p-integral only after cancellation.
"""

from __future__ import annotations

import math

from .rationals import as_rational, is_prime
from .records import FrozenRecord, slot_setters

Valuation = int | float  # int, or math.inf for the zero element


class NonIntegralInputError(ValueError):
    """Input is not a p-adic integer (its denominator is divisible by p)."""


def vp(x, p: int) -> Valuation:
    """p-adic valuation of a rational; +infinity for 0, negative for
    denominators divisible by p.  Raises ValueError for p < 2, where no
    valuation exists."""
    if p < 2:
        raise ValueError(f"a valuation needs p >= 2, got {p}")
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
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be at least 1")
        _set_p(self, p)
        _set_k(self, k)
        _set_modulus(self, p ** k)

    def reduce(self, x) -> "Residue":
        """The unique residue of a p-adic integer x mod p^k, computed as
        numerator * denominator^-1 mod p^k."""
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


_set_p, _set_k, _set_modulus = slot_setters(PadicContext)


class Residue(FrozenRecord):
    """An integer in [0, p^k) tagged with its context."""

    __slots__ = ("value", "context")

    def __init__(self, value: int, context: PadicContext):
        if not 0 <= value < context.modulus:
            raise ValueError(
                f"residue {value} out of range for modulus {context.modulus}"
            )
        _set_value(self, value)
        _set_context(self, context)

    def _check(self, other: "Residue") -> None:
        if other.context != self.context:
            raise ValueError("mixed p-adic contexts")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value + other.value) % self.context.modulus, self.context)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value - other.value) % self.context.modulus, self.context)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value * other.value) % self.context.modulus, self.context)

    def __pow__(self, exponent: int) -> "Residue":
        return Residue(
            pow(self.value, exponent, self.context.modulus), self.context
        )

    def inverse(self) -> "Residue":
        return self ** -1

    def __int__(self) -> int:
        return self.value


_set_value, _set_context = slot_setters(Residue)


class CongruenceCheck(FrozenRecord):
    """Outcome of a congruence test together with its witness valuation."""

    __slots__ = ("holds", "valuation")

    def __init__(self, holds: bool, valuation: Valuation):
        _set_holds(self, holds)
        _set_valuation(self, valuation)

    def __bool__(self) -> bool:
        return self.holds


_set_holds, _set_valuation = slot_setters(CongruenceCheck)


def congruent(a, b, ctx: PadicContext) -> CongruenceCheck:
    """Whether v_p(a - b) >= k, always reporting the witness valuation."""
    w = vp(as_rational(a) - as_rational(b), ctx.p)
    return CongruenceCheck(w >= ctx.k, w)
