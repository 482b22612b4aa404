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
error and no guard digits.  The T blocks multiply to the constant term of
F_T(t) = Q(t) Q(t+1) ... Q(t+T-1), built by binary doubling with
F_2A(t) = F_A(t) F_A(t+A) and F_A+1(t) = F_A(t) Q(t+A).  The fewer than
p tail units pT+1 ... pT+s-1 cost one multiply and one reduction each, by
the defining loop that the tests also pin the block route against.  One
evaluation costs O(p k) to build Q (cached per p^k), O(k^2 log m) for the
doubling and O(p) for the tail.  A tail formed as one exact product and
reduced once is quadratic in its length: `verify` at p ~ 10^5 took
19-50 s that way and takes under 0.5 s per unit (CPU, one run each):
conj3 (100019, -1) 49.8 -> 0.46 s, d2 100003 30.4 -> 0.49 s, conj1
(100003, -1) 19.2 -> 0.46 s, lr3 100049 18.7 -> 0.38 s.

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
def _block_polynomial(p: int, modulus: int) -> tuple:
    """Coefficients of Q(t) = prod_{0<i<p} (i + p t) below degree k, where
    modulus = p^k; the t^n coefficient is divisible by p^n, so the dropped
    degrees vanish mod p^k."""
    k = 1
    while p ** k < modulus:
        k += 1
    coeffs = [1] + [0] * (k - 1)
    for i in range(1, p):
        for n in range(k - 1, 0, -1):
            coeffs[n] = (i * coeffs[n] + p * coeffs[n - 1]) % modulus
        coeffs[0] = i * coeffs[0] % modulus
    return tuple(coeffs)


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
    """Product of the units in [1, p * blocks) mod modulus: the constant
    term of F_T(t) = prod_{t' < T} Q(t + t') for T = blocks, built from the
    top bit of T down."""
    q = _block_polynomial(p, modulus)
    f = [1] + [0] * (len(q) - 1)
    a = 0  # f holds F_a
    for bit in bin(blocks)[2:]:
        f = _mul_truncated(f, _shift(f, a, modulus), modulus)
        a *= 2
        if bit == "1":
            f = _mul_truncated(f, _shift(q, a, modulus), modulus)
            a += 1
    return f[0]


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
