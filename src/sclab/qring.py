"""Polynomial arithmetic over Q, the quotient ring Q[q]/(Phi_p(q)^power),
q-integers and q-shifted factorials, and the q-side analogue checker for
the fifth-power vanishing claim.

Divisibility by Phi_p^4 is tested over Q[q]; Phi_p is monic, so for
integer polynomials this coincides with divisibility over Z[q] and no
content bookkeeping is needed.  For the same reason coefficients stay in
Z: every modulus here is monic up to sign, so multiplying, adding and
reducing integer polynomials never leaves Z.  A coefficient is an ``int``
whenever it is integral and a ``Fraction`` only when it is not, which
happens only in the ring inverse.

Two kernels keep the ring off quadratic pure-Python loops:

* Packed multiply.  A dense product packs each operand's signed ``int``
  coefficients into one integer, in byte-aligned slots wide enough for
  the product's coefficients (Kronecker substitution), multiplies the two
  integers with CPython's bignum multiply and unpacks the slots with a
  per-slot bias.  ``Fraction`` operands are cleared to integer numerators
  over one denominator first, and the product is divided once at the end.
  An operand with at most ``SPARSE_TERMS`` nonzero terms (route 1's
  folded factors) is multiplied by a zero-skipping loop instead.
* Sparse fold.  Phi_p^power divides (q^p - 1)^power, which is monic with
  power + 1 terms, so a polynomial is reduced mod (q^p - 1)^power in
  O((power + 1) n), then mod Phi_p^power in at most ``power`` division
  steps; the first step is a ring homomorphism, so the residue is the
  same.  Powers of q enter the ring folded (``QRing._q_terms``).

The q-analogue check describes its cleared sum once (``_summand``) and
runs the same Horner steps over it in two arithmetics.  Route 1 runs
them in the ring, where each folded factor has at most 24 terms.  Route
2 builds no polynomial: it evaluates at q = X (1 + eps), X = 2^64, mod
(X^p - 1, eps^4), the evaluation at roots of unity of Guo and Zudilin's
"q-microscope" (Adv. Math. 346, 2019) with the root X packed into one
integer.  Phi_p(q)^4 maps to 0 mod (Phi_p(X), eps^4), so route 2's zero
is a necessary condition for route 1's.  Negative powers of q are legal
everywhere: q folds for every integer power, and X is a unit mod X^p - 1.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import attrgetter

from .rationals import as_rational, is_prime
from .records import FrozenRecord


class NonUnitFactorError(ValueError):
    """A q-shifted factorial factor is not invertible in the ring."""


def _coefficient(c):
    """An exact scalar as an int when it is integral, else as a Fraction.
    Floats are rejected."""
    if type(c) is int:
        return c
    c = as_rational(c)
    return c.numerator if c.denominator == 1 else c


# An operand with at most this many nonzero terms multiplies by the
# zero-skipping loop; packing it would cost more than it saves.  Route
# 1's six-term factors, folded mod (q^p - 1)^4, have up to 6 * 4 terms.
SPARSE_TERMS = 24

_denominator = attrgetter("denominator")


def _cleared(coeffs):
    """Integer numerators over one common denominator: (nums, den).  A
    Fraction coefficient is never integral, so all-int coefficients are
    the only case with den = 1."""
    if Fraction not in set(map(type, coeffs)):
        return coeffs, 1
    den = lcm(*map(_denominator, coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _divided(nums, den) -> list:
    """nums / den in canonical coefficient form (int when integral)."""
    if den == 1:
        return nums
    return [c // den if not c % den else Fraction(c, den) for c in nums]


def _monic_remainder(coeffs, divisor) -> list:
    """coeffs mod a monic divisor, both low degree first: the remainder's
    dv = len(divisor) - 1 coefficients, with no quotient formed."""
    dv = len(divisor) - 1
    rem = list(coeffs)
    lower = divisor[:-1]
    for top in range(len(rem) - 1, dv - 1, -1):
        c = rem[top]
        if c:
            base = top - dv
            rem[base:top] = [x - c * d for x, d in zip(rem[base:top], lower)]
    return rem[:dv]


def _slot_bias(count: int, nbytes: int) -> int:
    """half * sum_{i<count} 2^(8 nbytes i), half = 2^(8 nbytes - 1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def _pack(coeffs, nbytes: int, half: int) -> int:
    """sum c_i 2^(8 nbytes i) for signed c_i with |c_i| < half."""
    raw = b"".join([(c + half).to_bytes(nbytes, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _slot_bias(len(coeffs), nbytes)


def _max_bits(coeffs) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


def _packed_mul(a, b) -> list:
    """The product of two int coefficient sequences by Kronecker
    substitution.  Each slot holds |c| < half, so adding half to every
    slot makes them all nonnegative and carry-free."""
    width = _max_bits(a) + _max_bits(b) + min(len(a), len(b)).bit_length() + 1
    nbytes = (width + 7) // 8
    half = 1 << (8 * nbytes - 1)
    packed_a = _pack(a, nbytes, half)
    packed_b = packed_a if b is a else _pack(b, nbytes, half)
    n = len(a) + len(b) - 1
    product = packed_a * packed_b + _slot_bias(n, nbytes)
    data = product.to_bytes(n * nbytes, "little")
    from_bytes = int.from_bytes
    return [
        from_bytes(data[i:i + nbytes], "little") - half
        for i in range(0, n * nbytes, nbytes)
    ]


def _sparse_mul(sparse, dense) -> list:
    """The product by a loop over the nonzero terms of ``sparse``."""
    width = len(dense)
    out = [0] * (len(sparse) + width - 1)
    for i, a in enumerate(sparse):
        if a:
            out[i:i + width] = [x + a * y for x, y in zip(out[i:i + width], dense)]
    return out


class QPolynomial(FrozenRecord):
    """Dense polynomial over Q; zero is the empty coefficient tuple.

    Integral coefficients are stored as ``int`` and the rest as
    ``Fraction``, so integer polynomials run in plain integer arithmetic.
    A frozen record: equal and hashed by ``coeffs``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # the inline int test spares a call per coefficient on the hot path
        vec = [c if type(c) is int else _coefficient(c) for c in coeffs]
        while vec and vec[-1] == 0:
            vec.pop()
        object.__setattr__(self, "coeffs", tuple(vec))

    @classmethod
    def _trusted(cls, vec) -> "QPolynomial":
        """A polynomial from kernel output already in canonical coefficient
        form; only the trailing zeros are trimmed."""
        end = len(vec)
        while end and not vec[end - 1]:
            end -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(vec[:end]))
        return self

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._trusted([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero or other.is_zero:
            return QPolynomial.zero()
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs) if other is not self else (a, da)
        if len(a) - a.count(0) <= SPARSE_TERMS:
            out = _sparse_mul(a, b)
        elif len(b) - b.count(0) <= SPARSE_TERMS:
            out = _sparse_mul(b, a)
        else:
            out = _packed_mul(a, b)
        return QPolynomial._trusted(_divided(out, da * db))

    def __divmod__(self, divisor: "QPolynomial"):
        """Quotient and remainder.  A leading coefficient of +-1 is its own
        inverse, so integer operands stay in integer arithmetic; any other
        leading coefficient divides exactly through Fraction."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = divisor.degree
        lead = divisor.coeffs[-1]
        unit_lead = lead == 1 or lead == -1
        if len(rem) <= dv:
            return QPolynomial.zero(), QPolynomial(rem)
        lower = divisor.coeffs[:-1]
        quo = [0] * (len(rem) - dv)
        for top in range(len(rem) - 1, dv - 1, -1):
            c = rem[top]
            if not c:
                continue
            c = c * lead if unit_lead else Fraction(c) / lead
            quo[top - dv] = c
            rem[top] = 0
            base = top - dv
            rem[base:top] = [x - c * d for x, d in zip(rem[base:top], lower)]
        return QPolynomial(quo), QPolynomial(rem)

    def __mod__(self, divisor: "QPolynomial") -> "QPolynomial":
        return divmod(self, divisor)[1]


def cyclotomic_poly(p: int) -> QPolynomial:
    """Phi_p(q) = 1 + q + ... + q^(p-1) for prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return QPolynomial((1,) * p)


# ---------------------------------------------------------------------------
# The quotient ring Q[q] / Phi_p(q)^power
# ---------------------------------------------------------------------------


class QRing(FrozenRecord):
    """Q[q] modulo Phi_p(q)^power, the power-th power (default 4) of the
    p-th cyclotomic polynomial.

    Elements hold their canonical remainder mod Phi_p^power.  A polynomial
    is reduced in two steps: a sparse fold mod (q^p - 1)^power, which
    Phi_p^power divides, then the dense remainder mod Phi_p^power, which
    the fold leaves at most ``power`` division steps.  The constructor
    computes the fields after ``p`` and ``power``: ``modulus`` = Phi_p^power,
    its ``degree_bound`` and the ``_fold`` coefficients.
    """

    __slots__ = ("p", "power", "modulus", "degree_bound", "_fold")

    def __init__(self, p: int, power: int = 4):
        if power < 1:
            raise ValueError("power must be positive")
        modulus = prod([cyclotomic_poly(p)] * power, start=QPolynomial.one())
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree_bound", modulus.degree)
        # With Q = q^p: Q^power = sum_{j<power} fold[j] Q^j mod (Q - 1)^power.
        fold = tuple((-1) ** (power - j + 1) * comb(power, j) for j in range(power))
        object.__setattr__(self, "_fold", fold)

    def _reduce(self, poly: QPolynomial) -> QPolynomial:
        """The remainder of ``poly`` mod Phi_p^power, through the fold mod
        (q^p - 1)^power.  Both steps are Z-linear, so a Fraction polynomial
        is reduced as integer numerators over one denominator."""
        nums, den = _cleared(poly.coeffs)
        rem = _monic_remainder(_fold(nums, self.p, self._fold), self.modulus.coeffs)
        return QPolynomial._trusted(_divided(rem, den))

    def element(self, poly: QPolynomial) -> "QRingElement":
        return QRingElement(self, poly)

    def from_coeffs(self, coeffs) -> "QRingElement":
        return self.element(QPolynomial(coeffs))

    @property
    def zero(self) -> "QRingElement":
        return QRingElement(self, QPolynomial.zero())

    @property
    def one(self) -> "QRingElement":
        return QRingElement(self, QPolynomial.one())

    def _q_terms(self, terms) -> QPolynomial:
        """sum c q^m over (c, m) in terms, m any integer, folded mod
        (q^p - 1)^power to degree < power p.  With m = p n + s, 0 <= s < p,
        Q = q^p: q^m = q^s Q^n, Q^n = sum_{j<power} C(n, j) (Q - 1)^j for
        every integer n, as Q - 1 is nilpotent; C(n, j) is an integer."""
        p, power = self.p, self.power
        out = [0] * (power * p)
        for c, m in terms:
            n, s = divmod(m, p)
            for i in range(power):  # Q^i gets sum_{j>=i} C(n, j) C(j, i) (-1)^(j-i)
                t = power - 1 - i  # = (-1)^t C(n, i) C(n-i-1, t); c is c C(n, i)
                top = prod(range(n - i - t, n - i))  # t! C(n-i-1, t)
                out[s + p * i] += (-1) ** t * c * top // factorial(t)
                c = c * (n - i) // (i + 1)
        return QPolynomial._trusted(out)

    def q_power(self, exponent: int) -> "QRingElement":
        """q^e as a ring element, for any integer e."""
        return self.element(self._q_terms([(1, exponent)]))

    def __repr__(self):
        return f"QRing(p={self.p}, power={self.power})"


class QRingElement(FrozenRecord):
    """An element of ``ring`` as its canonical ``residue``; equal to the
    scalars it wraps, and hashed as a frozen record."""

    __slots__ = ("ring", "residue")

    def __init__(self, ring: QRing, residue: QPolynomial):
        if residue.degree >= ring.degree_bound:
            residue = ring._reduce(residue)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "residue", residue)

    def _wrap(self, other) -> "QRingElement":
        if isinstance(other, QRingElement):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.from_coeffs([other])

    def __add__(self, other):
        other = self._wrap(other)
        return QRingElement(self.ring, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return QRingElement(self.ring, -self.residue)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        other = self._wrap(other)
        return QRingElement(self.ring, self.residue * other.residue)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out, base = self.ring.one, self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def inverse(self) -> "QRingElement":
        """Inverse from extended Euclid against the radical Phi_p, lifted
        through the nilpotent part by Newton steps.

        An element is a unit mod Phi_p^e iff it is one mod Phi_p, and with
        x inverse mod Phi_p the error 1 - a*x squares with each update
        x <- x(2 - a*x), so ceil(log2(e)) steps reach the full modulus.
        Running Euclid on the degree p-1 radical instead of the full
        modulus sidesteps the rational coefficient blowup of long
        remainder sequences.  The steps run on integers: they invert
        a = a_den * self as x / den, with one gcd a step, and the inverse
        is a_den * x / den.
        """
        ring, phi = self.ring, cyclotomic_poly(self.ring.p)
        a, a_den = _cleared(self.residue.coeffs)
        a = ring.element(QPolynomial._trusted(a))
        x, den = _euclid_inverse(a.residue % phi, phi)
        for _ in range((ring.power - 1).bit_length()):
            x = ring.element(QPolynomial._trusted(x))
            x, den = (x * (2 * den - a * x)).residue.coeffs, den * den
            g = gcd(den, *x)
            x, den = [c // g for c in x], den // g
        return ring.element(QPolynomial._trusted(_divided([a_den * c for c in x], den)))

    def _inverse_full_euclid(self) -> "QRingElement":
        """Reference route: extended Euclid straight against Phi_p^e.
        Exponentially slower coefficient growth; kept to pin the lifted
        inverse in tests."""
        nums, den = _euclid_inverse(self.residue, self.ring.modulus)
        return QRingElement(self.ring, QPolynomial._trusted(_divided(nums, den)))

    def __eq__(self, other):
        try:
            other = self._wrap(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.residue == other.residue

    __hash__ = FrozenRecord.__hash__  # defining __eq__ dropped the inherited one

    @property
    def is_zero(self) -> bool:
        return self.residue.is_zero


def _fold(coeffs, p: int, fold) -> list:
    """coeffs reduced mod (q^p - 1)^power, power = len(fold).

    With Q = q^p the divisor is (Q - 1)^power, so the coefficients are cut
    into rows of p (the Q-digits) and each row from the top down is folded
    into the ``power`` rows below it: O((power + 1) n) work in all.
    """
    power = len(fold)
    n = len(coeffs)
    if n <= p * power:
        return coeffs
    coeffs = list(coeffs) + [0] * (-n % p)
    rows = [coeffs[i:i + p] for i in range(0, len(coeffs), p)]
    for t in range(len(rows) - 1, power - 1, -1):
        top = rows[t]
        if any(top):
            for j, c in enumerate(fold, t - power):
                rows[j] = [x + c * y for x, y in zip(rows[j], top)]
    return [c for row in rows[:power] for c in row]


def _euclid_inverse(value: QPolynomial, modulus: QPolynomial) -> tuple:
    """(nums, den) with s = nums / den, s*value = 1 mod modulus and
    deg s < deg modulus, by extended Euclid; NonUnitFactorError when the
    gcd is not a nonzero constant."""
    r0, s0 = modulus, QPolynomial.zero()
    r1, s1 = value, QPolynomial.one()
    while not r1.is_zero and r1.degree > 0:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    if r1.is_zero:
        raise NonUnitFactorError("element shares a factor with the ring modulus")
    nums, den = _cleared(s1.coeffs)
    g = as_rational(r1.coeffs[0])  # the gcd: s = s1 / g
    return [g.denominator * c for c in nums], g.numerator * den


def q_integer(n: int, ring: QRing) -> "QRingElement":
    """[n] = (1 - q^n)/(1 - q) in the ring; [n] = -q^n [-n] for n < 0."""
    if n >= 0:
        return ring.from_coeffs((1,) * n)
    return -(ring.q_power(n) * q_integer(-n, ring))


def q_pochhammer(a_exponent: int, step: int, k: int, ring: QRing) -> "QRingElement":
    """(q^a; q^step)_k = prod_{j<k} (1 - q^(a + step*j)) in the ring.

    Each factor must be a unit, which for the Phi_p^4 modulus means p must
    not divide a + step*j; otherwise NonUnitFactorError is raised.
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    if step < 1:
        raise ValueError("step must be positive")
    out = ring.one
    for j in range(k):
        e = a_exponent + step * j
        if e % ring.p == 0:
            raise NonUnitFactorError(
                f"factor 1 - q^{e} is not a unit: {ring.p} divides {e}"
            )
        out = out * (ring.one - ring.q_power(e))
    return out


# ---------------------------------------------------------------------------
# The q-side analogue of the fifth-power vanishing claim
# ---------------------------------------------------------------------------


class QAnalogueReport(FrozenRecord):
    """``ring_zero``: the sum is 0 in Q[q]/Phi_p^4, decided exactly.
    ``division_zero``: the cleared sum T vanishes at q = X (1 + eps),
    X = 2^64, mod (Phi_p(X), eps^4), the image of Phi_p^4 | T under that
    map, so it is necessary for ``ring_zero`` (the name is older than the
    jet route)."""

    __slots__ = (
        "p", "r", "exponent_twist", "ring_zero", "division_zero", "elapsed_ms",
    )

    @property
    def methods_agree(self) -> bool:
        return self.ring_zero == self.division_zero

    @property
    def zero(self) -> bool:
        return self.ring_zero and self.division_zero


def verify_q_conjecture(p: int, r: int, exponent_twist: int = 0) -> QAnalogueReport:
    """Decide whether sum_{k<p} [10k+r] (q^r;q^5)_k^5 (q^5;q^5)_k^-5
    q^(5(3-r)k/2) vanishes in Q[q]/(Phi_p^4).  The cleared sum
    T = sum_k (1 - q^(10k+r)) q^(step*k) (q^r;q^5)_k^5 S_k^5, with
    S_k = prod_{k<j<p} (1 - q^(5j)), is described once (``_summand``) and
    built in two arithmetics: exactly in the quotient ring (``_ring_sum``)
    and as jets at q = 2^64 (1 + eps) mod Phi_p(2^64) (``_jet_sum``).  The
    routes cross-check the arithmetic; tests pin the description against
    T's definition.  The sum is T / ((1 - q) S_0^5); route 1 returns T and
    that unit, and inverts the unit once.

    ``exponent_twist`` adds twist*k to the power of q in term k; the honest
    statement is twist 0, and a nonzero twist is the built-in negative
    control (it must break the divisibility).
    """
    from .claims import InadmissibleInstanceError, admissible

    adm = admissible("thm1", p, r)
    if not adm:
        raise InadmissibleInstanceError(f"(q-analogue, p={p}, r={r}): {adm.reason}")
    started = time.perf_counter()
    step = 5 * (3 - r) // 2 + exponent_twist  # r is odd for admissible instances

    total, block = _ring_sum(QRing(p), r, step)
    ring_zero = (total * block.inverse()).is_zero
    division_zero = not any(_jet_sum(p, r, step))

    elapsed = (time.perf_counter() - started) * 1000.0
    return QAnalogueReport(p, r, exponent_twist, ring_zero, division_zero, elapsed)


def _summand(p: int, r: int, step: int):
    """The cleared sum T as data: for k = 0 .. p-1, the term lists
    (D_k, F_k, C_k), each [(c, m)] standing for sum c q^m, with
    D_k = (1 - q^(5k))^5, F_k = (1 - q^(r+5k-5))^5 (both 1 at k = 0) and
    C_k = q^(step k) - q^((step+10)k + r).  From V = 0 and R = 1 the
    Horner steps R <- R F_k, V <- V D_k + C_k R give R = (q^r;q^5)_k^5 at
    step k and leave V = T at k = p - 1.  Both routes run these steps."""
    for k in range(p):
        # (1 - q^e)^5 = sum_i (-1)^i C(5, i) q^(ei)
        d, f = ([((-1) ** i * comb(5, i), e * i) for i in range(6)] if k else [(1, 0)]
                for e in (5 * k, r + 5 * k - 5))
        yield d, f, [(1, step * k), (-1, (step + 10) * k + r)]


def _ring_sum(ring: QRing, r: int, step: int) -> tuple:
    """Route 1: (T, (1 - q) S_0^5) in the ring, T and S_0 as in
    ``verify_q_conjecture``, by the Horner steps of ``_summand``; the block
    gathers every D_k.  Each list enters the ring folded to degree < 4p
    (at most 24 terms), so every product takes the sparse multiply."""

    def times(x, factor):
        """x * factor; the factor leads, so its few terms drive the loop."""
        return QRingElement(ring, factor * x.residue)

    total, block, rising = ring.zero, ring.from_coeffs((1, -1)), ring.one
    for d, f, c in _summand(ring.p, r, step):
        d = ring._q_terms(d)
        rising = times(rising, ring._q_terms(f))
        total = times(total, d) + times(rising, ring._q_terms(c))
        block = times(block, d)
    return total, block


# Route 2 evaluates at q = X (1 + eps), X = 2^JET_BITS: one 64-bit slot
# per power of X mod X^p - 1.  Its zero is necessary for route 1's at any
# X; a false zero needs Phi_p(X) to divide all four jet coefficients.
JET_BITS = 64


def _jet_sum(p: int, r: int, step: int) -> tuple:
    """Route 2: T(X (1 + eps)) mod (Phi_p(X), eps^4), X = 2^JET_BITS, as
    its four eps-coefficients in [0, Phi_p(X)), by the Horner steps of
    ``_summand``.  Each coefficient is one int mod X^p - 1 = 2^n - 1,
    n = JET_BITS p, which Phi_p(X) divides: c q^m shifts a jet by
    JET_BITS (m mod p) bits (X^p = 1) and mixes its coefficients with c
    (1, m, C(m,2), C(m,3)), the binomials of (1 + eps)^m, for negative m
    too.  No jet is inverted; a step is a few dozen shifts and small
    multiples of n-bit ints, O(p^2) in all."""
    n = JET_BITS * p
    mask = (1 << n) - 1
    steps = [
        [[(JET_BITS * (m % p), c, c * m, c * m * (m - 1) // 2, c * m * (m - 1) * (m - 2) // 6)
          for c, m in terms] for terms in lists]
        for lists in _summand(p, r, step)
    ]

    def fold(x):
        """x mod 2^n - 1 (2^n = 1), signed, back to about n bits."""
        x = (x & mask) + (x >> n)
        return (x & mask) + (x >> n)

    def times(jet, terms, out=(0, 0, 0, 0)):
        """out + jet * sum c q^m over terms, unfolded."""
        a0, a1, a2, a3 = jet
        o0, o1, o2, o3 = out
        for s, b0, b1, b2, b3 in terms:
            o0 += (b0 * a0) << s
            o1 += (b0 * a1 + b1 * a0) << s
            o2 += (b0 * a2 + b1 * a1 + b2 * a0) << s
            o3 += (b0 * a3 + b1 * a2 + b2 * a1 + b3 * a0) << s
        return o0, o1, o2, o3

    total, rising = (0, 0, 0, 0), (1, 0, 0, 0)
    for d, f, c in steps:
        rising = tuple(map(fold, times(rising, f)))
        total = tuple(map(fold, times(rising, c, times(total, d))))
    phi = mask // ((1 << JET_BITS) - 1)  # Phi_p(X) = (X^p - 1) / (X - 1)
    return tuple(x % phi for x in total)
