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

The q-analogue check has two routes.  Route 1 builds the cleared sum in
the ring forward by Horner's rule, so each product has a factor of at
most six terms (24 once folded) and takes the zero-skipping loop.  Route
2 builds no polynomial: for a prime ell = 1 (mod p), Phi_p splits mod
ell into distinct linear factors q - omega, so a polynomial is 0 in
F_ell[q]/Phi_p^4 exactly when its expansion at q = omega (1 + eps)
vanishes mod eps^4 at every root omega.  It runs on these 4-term jets,
the evaluation at roots of unity of Guo and Zudilin's "q-microscope"
(Adv. Math. 346, 2019).  Negative powers of q are legal everywhere: q is
a unit in the ring, q^m folds for every integer m, and its jet is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import attrgetter

from .rationals import as_rational, is_prime


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
    """Integer numerators over one common denominator: (nums, den)."""
    den = lcm(*map(_denominator, coeffs))
    if den == 1:
        return coeffs, 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _divided(nums, den) -> list:
    """nums / den in canonical coefficient form (int when integral)."""
    if den == 1:
        return nums
    return [c // den if not c % den else Fraction(c, den) for c in nums]


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


class QPolynomial:
    """Dense polynomial over Q; zero is the empty coefficient tuple.

    Integral coefficients are stored as ``int`` and the rest as
    ``Fraction``, so integer polynomials run in plain integer arithmetic.
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

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

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

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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

    def scale(self, factor) -> "QPolynomial":
        factor = _coefficient(factor)
        return QPolynomial([c * factor for c in self.coeffs])

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

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"


def cyclotomic_poly(p: int) -> QPolynomial:
    """Phi_p(q) = 1 + q + ... + q^(p-1) for prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return QPolynomial((1,) * p)


# ---------------------------------------------------------------------------
# The quotient ring Q[q] / Phi_p(q)^power
# ---------------------------------------------------------------------------


class QRing:
    """Q[q] modulo Phi_p(q)^power, the power-th power (default 4) of the
    p-th cyclotomic polynomial.

    Elements hold their canonical remainder mod Phi_p^power.  A polynomial
    is reduced in two steps: a sparse fold mod (q^p - 1)^power, which
    Phi_p^power divides, then the dense remainder mod Phi_p^power, which
    the fold leaves at most ``power`` division steps.
    """

    def __init__(self, p: int, power: int = 4):
        if power < 1:
            raise ValueError("power must be positive")
        self.p = p
        self.power = power
        phi = cyclotomic_poly(p)
        modulus = QPolynomial.one()
        for _ in range(power):
            modulus = modulus * phi
        self.modulus = modulus
        self.degree_bound = modulus.degree
        # With Q = q^p: Q^power = sum_{j<power} fold[j] Q^j mod (Q - 1)^power.
        self._fold = [(-1) ** (power - j + 1) * comb(power, j) for j in range(power)]

    def _reduce(self, poly: QPolynomial) -> QPolynomial:
        """The remainder of ``poly`` mod Phi_p^power, through the fold mod
        (q^p - 1)^power.  Both steps are Z-linear, so a Fraction polynomial
        is reduced as integer numerators over one denominator."""
        nums, den = _cleared(poly.coeffs)
        folded = QPolynomial._trusted(_fold(nums, self.p, self._fold))
        rem = folded % self.modulus
        return rem if den == 1 else QPolynomial._trusted(_divided(rem.coeffs, den))

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

    def __eq__(self, other):
        return isinstance(other, QRing) and (other.p, other.power) == (self.p, self.power)

    def __hash__(self):
        return hash((self.p, self.power))

    def __repr__(self):
        return f"QRing(p={self.p}, power={self.power})"


class QRingElement:
    __slots__ = ("ring", "residue")

    def __init__(self, ring: QRing, residue: QPolynomial):
        if residue.degree >= ring.degree_bound:
            residue = ring._reduce(residue)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "residue", residue)

    def __setattr__(self, name, value):
        raise AttributeError("QRingElement is immutable")

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
        remainder sequences.
        """
        phi = cyclotomic_poly(self.ring.p)
        seed = _euclid_inverse(self.residue % phi, phi)
        x = QRingElement(self.ring, seed)
        for _ in range((self.ring.power - 1).bit_length()):
            x = x * (2 - self * x)
        return x

    def _inverse_full_euclid(self) -> "QRingElement":
        """Reference route: extended Euclid straight against Phi_p^e.
        Exponentially slower coefficient growth; kept to pin the lifted
        inverse in tests."""
        return QRingElement(self.ring, _euclid_inverse(self.residue, self.ring.modulus))

    def __eq__(self, other):
        try:
            other = self._wrap(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.residue == other.residue

    def __hash__(self):
        return hash((self.ring, self.residue))

    @property
    def is_zero(self) -> bool:
        return self.residue.is_zero

    def __repr__(self):
        return f"QRingElement({self.ring!r}, {self.residue!r})"


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


def _euclid_inverse(value: QPolynomial, modulus: QPolynomial) -> QPolynomial:
    """s with s*value = gcd (a nonzero constant) mod modulus, normalized;
    NonUnitFactorError when the gcd is not constant."""
    r0, s0 = modulus, QPolynomial.zero()
    r1, s1 = value, QPolynomial.one()
    while not r1.is_zero and r1.degree > 0:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    if r1.is_zero:
        raise NonUnitFactorError("element shares a factor with the ring modulus")
    return s1.scale(Fraction(1) / r1.coeffs[0]) % modulus


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


@dataclass(frozen=True)
class QAnalogueReport:
    """``ring_zero``: the sum is 0 in Q[q]/Phi_p^4, decided exactly.
    ``division_zero``: the cleared sum T vanishes to order 4 at every root
    of Phi_p in F_ell (the name is older than the jet route)."""

    p: int
    r: int
    exponent_twist: int
    ring_zero: bool
    division_zero: bool
    elapsed_ms: float

    @property
    def methods_agree(self) -> bool:
        return self.ring_zero == self.division_zero

    @property
    def zero(self) -> bool:
        return self.ring_zero and self.division_zero


def verify_q_conjecture(p: int, r: int, exponent_twist: int = 0) -> QAnalogueReport:
    """Decide whether sum_{k<p} [10k+r] (q^r;q^5)_k^5 (q^5;q^5)_k^-5
    q^(5(3-r)k/2) vanishes in Q[q]/(Phi_p^4), by two independent
    constructions: exactly in the quotient ring (``_ring_sum``), and by
    jets at the roots of Phi_p mod a prime (``_root_jets``) of the cleared
    sum T = sum_k (1 - q^(10k+r)) q^(step*k) (q^r;q^5)_k^5 S_k^5, with
    S_k = prod_{k<j<p} (1 - q^(5j)).  The sum is T / ((1 - q) S_0^5); route
    1 returns T and that unit, and inverts the unit once.

    ``exponent_twist`` adds twist*k to the power of q in term k; the honest
    statement is twist 0, and a nonzero twist is the built-in negative
    control (it must break the divisibility).
    """
    from .claims import InadmissibleInstanceError, admissible

    adm = admissible("thm1", p, r)
    if not adm:
        raise InadmissibleInstanceError(f"(q-analogue, p={p}, r={r}): {adm.reason}")
    started = time.perf_counter()
    exponent_num = 5 * (3 - r)
    assert exponent_num % 2 == 0  # r is odd for admissible instances
    step = exponent_num // 2 + exponent_twist

    total, block = _ring_sum(QRing(p), r, step)
    ring_zero = (total * block.inverse()).is_zero
    division_zero = not any(map(any, _root_jets(p, r, step)))

    elapsed = (time.perf_counter() - started) * 1000.0
    return QAnalogueReport(p, r, exponent_twist, ring_zero, division_zero, elapsed)


def _ring_sum(ring: QRing, r: int, step: int) -> tuple:
    """Route 1: (T, (1 - q) S_0^5) in the ring, T and S_0 as in
    ``verify_q_conjecture``.  With D_k = (1 - q^(5k))^5, the Horner step
    V <- V D_k + (1 - q^(10k+r)) q^(step*k) (q^r;q^5)_k^5 leaves V = T at
    k = p - 1, and the block gathers every D_k.  Every factor has at most
    six terms and enters the sparse multiply folded to degree < 4p."""

    def fifth(e):
        """(1 - q^e)^5 = sum_i (-1)^i C(5, i) q^(ei), folded."""
        return ring._q_terms([((-1) ** i * comb(5, i), e * i) for i in range(6)])

    def times(x, factor):
        """x * factor; the factor leads, so its few terms drive the loop."""
        return QRingElement(ring, factor * x.residue)

    total, block, rising5 = ring.zero, ring.from_coeffs((1, -1)), ring.one
    for k in range(ring.p):
        if k:
            d = fifth(5 * k)
            total, block = times(total, d), times(block, d)
            # the terms stop once rising5 holds Phi_p^5, the D_k do not:
            # the whole block is p^5 (1 - q) mod Phi_p and inverts at once
            rising5 = times(rising5, fifth(r + 5 * (k - 1)))
        if not rising5.is_zero:
            cleared = ring._q_terms([(1, step * k), (-1, (step + 10) * k + r)])
            total = total + times(rising5, cleared)
    return total, block


def _jet_prime(p: int) -> tuple:
    """(ell, omega): the first prime ell = 1 (mod p) above 2^61, and a
    primitive p-th root of unity omega mod ell, the first h^((ell-1)/p)
    other than 1 for h = 2, 3, ..."""
    ell = (1 << 61) + 1 + -(1 << 61) % p
    while not is_prime(ell):
        ell += p
    h = 2
    while pow(h, (ell - 1) // p, ell) == 1:
        h += 1
    return ell, pow(h, (ell - 1) // p, ell)


def _jet_mul(a, b, ell: int) -> tuple:
    """The product of two jets mod (ell, eps^4)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 % ell,
        (a0 * b1 + a1 * b0) % ell,
        (a0 * b2 + a1 * b1 + a2 * b0) % ell,
        (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0) % ell,
    )


def _root_jets(p: int, r: int, step: int):
    """Route 2: yields the jets T(omega^i (1 + eps)) mod (ell, eps^4) for
    i = 1 .. p-1 in turn, from the suffix products S_k.  T has no
    denominators, so no jet is inverted, and each root costs O(p) jet
    products."""
    ell, omega = _jet_prime(p)

    def jet(terms, powers):
        """The jet of sum c q^m over (c, m) in terms: c w^m (1 + eps)^m."""
        out = [0, 0, 0, 0]
        for c, m in terms:
            x = c * powers[m % p]
            binomials = (1, m, m * (m - 1) // 2, m * (m - 1) * (m - 2) // 6)
            out = [o + x * b for o, b in zip(out, binomials)]
        return tuple(o % ell for o in out)

    for i in range(1, p):
        w = pow(omega, i, ell)
        powers = [1] * p  # powers[j] = w^j
        for j in range(1, p):
            powers[j] = powers[j - 1] * w % ell
        suffix = [(1, 0, 0, 0)] * p  # suffix[k] = S_k
        for k in range(p - 2, -1, -1):
            suffix[k] = _jet_mul(suffix[k + 1], jet(((1, 0), (-1, 5 * k + 5)), powers), ell)
        total = (0, 0, 0, 0)
        rising = (1, 0, 0, 0)  # (q^r; q^5)_k
        for k in range(p):
            if k:
                rising = _jet_mul(rising, jet(((1, 0), (-1, r + 5 * k - 5)), powers), ell)
                if not rising[0]:
                    break  # rising^5 vanishes to order 5 from here on
            u = _jet_mul(rising, suffix[k], ell)
            u2 = _jet_mul(u, u, ell)
            u5 = _jet_mul(_jet_mul(u2, u2, ell), u, ell)
            cleared = jet(((1, step * k), (-1, step * k + 10 * k + r)), powers)
            term = _jet_mul(cleared, u5, ell)
            total = tuple((t + v) % ell for t, v in zip(total, term))
        yield total
