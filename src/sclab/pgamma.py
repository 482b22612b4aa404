"""The Morita p-adic Gamma function mod p^k, and rising factorials through it.

At a nonnegative integer m the function is the signed partial product

    G_p(m) = (-1)^m  *  prod of j for 0 < j < m with p not dividing j,

and it extends continuously to all p-adic integers.  A rational argument x
with denominator prime to p is evaluated through its integer representative
m in [0, p^k): arguments congruent mod p^N have values congruent mod p^N,
so the representative determines the value to the working precision.  The
stability test in the suite pins that assumption.

The product is not formed one unit at a time, which would cost O(p^k).
Write m = pT + s with 0 <= s < p.  The units below pT fall into T full
blocks {pt + i : 0 < i < p}, and block t contributes Q(t), where

    Q(t) = prod over 0 < i < p of (i + p t)

is a polynomial in t whose t^n coefficient is divisible by p^n.  Products
and Taylor shifts t -> t + A keep that property, so every coefficient of
degree k or more vanishes mod p^k and dropping it is exact: no truncation
error and no guard digits.  The T blocks multiply to F_T(0), where
F_A(t) = Q(t) Q(t+1) ... Q(t+A-1).  A table per (p, p^k) holds F_1 = Q,
F_2, F_4, ..., each level built from the one below by
F_2A(t) = F_A(t) F_A(t+A) when a call first needs it.  F_T(0) is then the
product, over the set bits 2^s of T from the top, of F_(2^s)(offset) by
Horner, where offset sums the bits already taken.  The fewer than p tail
units pT+1 ... pT+s-1 cost one multiply and one reduction each, by the
defining loop that the tests also pin the block route against.  The cost
is O(p k) to build Q and O(k^2) per table level, each once per (p, p^k),
then O(k log m) per value plus O(p) for the tail.  A tail formed as one
exact product and reduced once is quadratic in its length: `verify conj3`
at (100019, -1) took 49.8 s CPU that way and takes ~0.5 s.

Only odd p is supported; the sign conventions below are wrong at p = 2.
"""

from __future__ import annotations

from functools import lru_cache

from .padic import PadicContext, Residue
from .rationals import as_rational, pochhammer


class OddPrimeRequiredError(ValueError):
    """The p-adic Gamma evaluator rejects p = 2."""


class SpanHitsMultipleOfPError(ValueError):
    """Some a + j in the rising-factorial span lies in pZ_p."""


def ap(x, p: int) -> int:
    """The representative of x mod p in {1, ..., p}."""
    return PadicContext(p, 1).reduce(x).value or p


def _unit_range_product(lo: int, hi: int, p: int, modulus: int) -> int:
    """Product of j in [lo, hi) coprime to p, one multiply and one
    reduction per element.

    This is the defining computation.  _gamma_at_integer multiplies its
    tail with it, and the tests pin the block-polynomial route against it.
    """
    acc = 1
    for j in range(lo, hi):
        if j % p:
            acc = acc * j % modulus
    return acc


@lru_cache(maxsize=64)
def _doubling_table(p: int, modulus: int) -> list:
    """[F_1, F_2, F_4, ...] below degree k, where modulus = p^k: level s
    holds F_(2^s)(t) = prod_{t' < 2^s} Q(t + t').  The list starts with
    F_1 = Q alone, and _block_product appends each level a call first needs."""
    k = 1
    while p ** k < modulus:
        k += 1
    coeffs = [1] + [0] * (k - 1)
    for i in range(1, p):
        for n in range(k - 1, 0, -1):
            coeffs[n] = (i * coeffs[n] + p * coeffs[n - 1]) % modulus
        coeffs[0] = i * coeffs[0] % modulus
    return [coeffs]


def _mul_truncated(f, g, modulus: int) -> list:
    """f * g mod modulus for coefficient lists of one length k, dropping
    degrees k and up."""
    return [
        sum(f[i] * g[n - i] for i in range(n + 1)) % modulus
        for n in range(len(f))
    ]


def _shift(f, a: int, modulus: int) -> list:
    """Coefficients of f(t + a) mod modulus, by repeated synthetic division."""
    c = list(f)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = (c[j] + a * c[j + 1]) % modulus
    return c


def _block_product(blocks: int, p: int, modulus: int) -> int:
    """Product of the units in [1, p * blocks) mod modulus: F_T(0) for
    T = blocks, as the product over the set bits s of T, from the top, of
    F_(2^s)(offset), each by Horner, where offset counts the blocks done."""
    table = _doubling_table(p, modulus)
    while len(table) < blocks.bit_length():
        f = table[-1]
        table.append(_mul_truncated(f, _shift(f, 1 << (len(table) - 1), modulus), modulus))
    acc, offset = 1, 0
    for s in range(blocks.bit_length() - 1, -1, -1):
        if blocks >> s & 1:
            value = 0
            for c in reversed(table[s]):
                value = (value * offset + c) % modulus
            acc = acc * value % modulus
            offset += 1 << s
    return acc


@lru_cache(maxsize=512)
def _gamma_at_integer(m: int, p: int, modulus: int) -> int:
    blocks = m // p
    tail = _unit_range_product(p * blocks + 1, m, p, modulus)
    sign = -1 if m % 2 else 1
    return sign * _block_product(blocks, p, modulus) * tail % modulus


def gamma_p_int(m: int, ctx: PadicContext) -> Residue:
    """Gamma value at a nonnegative integer representative m.

    m may exceed the modulus; representatives congruent mod p^k give
    residues congruent mod p^k, which the property suite checks.
    """
    if ctx.p == 2:
        raise OddPrimeRequiredError("p = 2 is outside the supported range")
    if m < 0:
        raise ValueError("integer representative must be nonnegative")
    return Residue(_gamma_at_integer(m, ctx.p, ctx.modulus), ctx)


def gamma_p(x, ctx: PadicContext) -> Residue:
    """Gamma of a p-adic integer rational, mod p^k."""
    return gamma_p_int(ctx.reduce(x).value, ctx)


def pochhammer_residue_via_gamma(a, n: int, ctx: PadicContext) -> Residue:
    """Residue of the rising factorial (a)_n computed through Gamma:
    (a)_n = (-1)^n G_p(a+n) / G_p(a), valid when no a + j (0 <= j < n)
    lies in pZ_p."""
    a = as_rational(a)
    j = (ctx.p - ap(a, ctx.p)) % ctx.p  # the first j with p | a + j
    if j < n:
        raise SpanHitsMultipleOfPError(
            f"{a} + {j} is divisible by {ctx.p}; the Gamma quotient "
            "form does not apply"
        )
    num = gamma_p(a + n, ctx)
    den = gamma_p(a, ctx)
    out = num * den.inverse()
    if n % 2:
        out = Residue(-out.value % ctx.modulus, ctx)
    return out


def pochhammer_residue_direct(a, n: int, ctx: PadicContext) -> Residue:
    """Reference route: exact rising factorial, then one reduction."""
    return ctx.reduce(pochhammer(a, n))
