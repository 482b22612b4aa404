"""Polynomial arithmetic over Q, the quotient ring Q[q]/(Phi_p(q)^power),
q-integers and q-shifted factorials, and the q-side analogue checker for
the fifth-power vanishing claim.

Divisibility by Phi_p^4 is tested over Q[q]; Phi_p is monic, so for
integer polynomials this coincides with divisibility over Z[q] and no
content bookkeeping is needed.  For the same reason coefficients stay in
Z: every modulus and every (1 - q^e)^n divisor here is monic up to sign,
so multiplying, adding and reducing integer polynomials never leaves Z.
A coefficient is an ``int`` whenever it is integral and a ``Fraction``
only when it is not, which happens only in the ring inverse.

Three kernels keep the check off quadratic pure-Python loops:

* Packed multiply.  A dense product packs each operand's signed ``int``
  coefficients into one integer, in byte-aligned slots wide enough for
  the product's coefficients (Kronecker substitution), multiplies the two
  integers with CPython's bignum multiply and unpacks the slots with a
  per-slot bias.  ``Fraction`` operands are cleared to integer numerators
  over one denominator first, and the product is divided once at the end.
  An operand with at most ``SPARSE_TERMS`` nonzero terms (a binomial, a
  monomial) is multiplied by a zero-skipping loop instead.
* Sparse fold.  Phi_p^power divides (q^p - 1)^power, which is monic with
  power + 1 terms, so a polynomial is first reduced mod (q^p - 1)^power
  in O((power + 1) n) and then mod Phi_p^power in at most ``power``
  division steps.  Reducing mod a multiple of the modulus first is a ring
  homomorphism, so the residue is the same canonical remainder.  Both
  routes of the q-analogue check reduce this way: ring products, and the
  cleared-denominator sum, which enters the ring as one element.
* Sparse passes.  The cleared-denominator route multiplies and divides
  by (1 - q^e)^5 as five shift-and-subtract (or prefix-sum) passes over a
  coefficient list, and sums its terms into one running list.

Negative powers of q are legal everywhere: q is a unit in the quotient
ring, and the polynomial route tracks a Laurent shift that is a unit as
well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import comb, lcm
from operator import add, attrgetter, sub

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
# zero-skipping loop; packing it would cost more than it saves.
SPARSE_TERMS = 16

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

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "QPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * degree + (coefficient,))

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

    def shift(self, amount: int) -> "QPolynomial":
        """Multiply by q^amount (amount >= 0)."""
        if amount < 0:
            raise ValueError("use LaurentPolynomial for negative shifts")
        if self.is_zero:
            return self
        return QPolynomial._trusted((0,) * amount + self.coeffs)

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

    def exact_div(self, divisor: "QPolynomial") -> "QPolynomial":
        quo, rem = divmod(self, divisor)
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quo

    def evaluate(self, x) -> Fraction:
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"


def cyclotomic_poly(p: int) -> QPolynomial:
    """Phi_p(q) = 1 + q + ... + q^(p-1) for prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return QPolynomial((1,) * p)


def binomial_factor(exponent: int) -> QPolynomial:
    """The polynomial 1 - q^e for e >= 1."""
    if exponent < 1:
        raise ValueError("exponent must be positive")
    return QPolynomial((1,) + (0,) * (exponent - 1) + (-1,))


# ---------------------------------------------------------------------------
# Laurent polynomials: q^shift * poly, for the clear-denominator route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPolynomial:
    poly: QPolynomial
    shift: int = 0

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(QPolynomial.one(), 0)

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentPolynomial":
        return cls(QPolynomial.one(), exponent)

    @classmethod
    def unit_minus_q_power(cls, exponent: int) -> "LaurentPolynomial":
        """1 - q^e for any integer e (including e <= 0)."""
        if exponent == 0:
            return cls(QPolynomial.zero(), 0)
        if exponent > 0:
            return cls(binomial_factor(exponent), 0)
        # 1 - q^e = -q^e (1 - q^-e)
        return cls(-binomial_factor(-exponent), exponent)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return LaurentPolynomial(self.poly * other.poly, self.shift + other.shift)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        lo = min(self.shift, other.shift)
        return LaurentPolynomial(
            self.poly.shift(self.shift - lo) + other.poly.shift(other.shift - lo),
            lo,
        )

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + LaurentPolynomial(-other.poly, other.shift)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def evaluate(self, x) -> Fraction:
        x = as_rational(x)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        return self.poly.evaluate(x) * x ** self.shift


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
        # q is a unit: the modulus has constant term 1, so
        # q * (-(modulus - 1)/q) = 1 - modulus = 1 in the ring.
        inv_coeffs = [-c for c in modulus.coeffs[1:]]
        self._q_inverse = QRingElement(self, QPolynomial(inv_coeffs))

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

    def q_power(self, exponent: int) -> "QRingElement":
        """q^e as a ring element, for any integer e."""
        if exponent >= 0:
            return self.element(QPolynomial.monomial(exponent))
        return self._q_inverse ** (-exponent)

    def __eq__(self, other):
        return (
            isinstance(other, QRing)
            and other.p == self.p
            and other.power == self.power
        )

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
        out = self.ring.one
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
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
        return QRingElement(
            self.ring, _euclid_inverse(self.residue, self.ring.modulus)
        )

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
    constructions:

    * directly in the quotient ring, and
    * clearing denominators to a Laurent polynomial, built with no ring
      operation, whose divisibility by Phi_p^4 the ring's reduction tests.

    ``exponent_twist`` adds twist*k to the power of q in term k; the honest
    statement is twist 0, and a nonzero twist is the built-in negative
    control (it must break the divisibility).
    """
    from .claims import InadmissibleInstanceError, admissible

    adm = admissible("thm1", p, r)
    if not adm:
        raise InadmissibleInstanceError(f"(q-analogue, p={p}, r={r}): {adm.reason}")
    if p == 5:
        raise InadmissibleInstanceError("p = 5 collides with the step of the q-shifted factorials")
    started = time.perf_counter()
    exponent_num = 5 * (3 - r)
    assert exponent_num % 2 == 0  # r is odd for admissible instances
    estep = exponent_num // 2

    # Route 1: the quotient ring.  (q^5;q^5)_k^-5 is rebuilt as the suffix
    # product (prod_{k<j<p} (1-q^(5j)))^5 times one global inverse, so the
    # extended Euclid runs once rather than once per term.  The inverse is
    # common to every term and multiplies the sum once at the end: the
    # terms stay in Z[q], and only the inverse carries denominators.
    ring = QRing(p)
    suffix = [ring.one] * (p + 1)  # suffix[k] = prod_{j=k+1}^{p-1} (1-q^(5j))^5
    for k in range(p - 2, -1, -1):
        step_factor = (ring.one - ring.q_power(5 * (k + 1))) ** 5
        suffix[k] = suffix[k + 1] * step_factor
    global_inverse = suffix[0].inverse()  # of (q^5;q^5)_(p-1)^5
    total = ring.zero
    rising5 = ring.one  # (q^r; q^5)_k^5, maintained incrementally
    for k in range(p):
        if k:
            rising5 = rising5 * (ring.one - ring.q_power(r + 5 * (k - 1))) ** 5
        term = (
            q_integer(10 * k + r, ring)
            * ring.q_power(estep * k + exponent_twist * k)
            * rising5
            * suffix[k]
        )
        total = total + term
    total = total * global_inverse
    ring_zero = total.is_zero

    # Route 2: clear denominators.  With U_k = (q^r;q^5)_k^5 S_k^5 (S_k the
    # polynomial suffix product) and [n] = (1-q^n)/(1-q), the sum vanishes
    # mod Phi_p^4 iff  T = sum_k (1-q^(10k+r)) U_k q^(estep*k)  does, since
    # 1-q, q and the cleared block are all units.
    cleared = _cleared_sum(p, r, estep + exponent_twist)
    division_zero = ring.element(cleared.poly).is_zero

    elapsed = (time.perf_counter() - started) * 1000.0
    return QAnalogueReport(
        p=p,
        r=r,
        exponent_twist=exponent_twist,
        ring_zero=ring_zero,
        division_zero=division_zero,
        elapsed_ms=elapsed,
    )


def _cleared_sum(p: int, r: int, step: int) -> LaurentPolynomial:
    """T = sum_{k<p} (1 - q^(10k+r)) U_k q^(step*k), the cleared-denominator
    form of the q-analogue sum, U_k = (q^r;q^5)_k^5 S_k^5 with
    S_k = prod_{k<j<p} (1 - q^(5j)).

    U_k is maintained by one exact division and one multiplication by a
    binomial fifth power per step, both as sparse passes, and T is summed
    into one running coefficient list from q^base up.
    """
    u_poly = [1]
    for j in range(1, p):
        u_poly = _mul_binomial_power(u_poly, 5 * j, 5)
    u_shift = 0
    total, base = [], 0
    for k in range(p):
        if k:
            u_poly = _div_binomial_power(u_poly, 5 * k, 5)
            e = r + 5 * (k - 1)
            if e >= 0:
                u_poly = _mul_binomial_power(u_poly, e, 5)
            else:
                # (1 - q^e)^5 = -q^(5e) (1 - q^-e)^5
                u_poly = [-c for c in _mul_binomial_power(u_poly, -e, 5)]
                u_shift += 5 * e
        shift = u_shift + step * k
        base = _add_shifted(total, base, u_poly, shift, add)
        base = _add_shifted(total, base, u_poly, shift + 10 * k + r, sub)
    return LaurentPolynomial(QPolynomial._trusted(total), base)


def _binomial_power(exponent: int, power: int) -> QPolynomial:
    """(1 - q^e)^power as a dense polynomial; the reference the sparse
    passes are tested against."""
    out = QPolynomial.one()
    for _ in range(power):
        out = out * binomial_factor(exponent)
    return out


def _mul_binomial_power(coeffs: list, exponent: int, power: int) -> list:
    """coeffs * (1 - q^e)^power by ``power`` shift-and-subtract passes."""
    pad = (0,) * exponent
    out = coeffs
    for _ in range(power):
        out = list(map(sub, chain(out, pad), chain(pad, out)))
    return out


def _div_binomial_power(coeffs: list, exponent: int, power: int) -> list:
    """coeffs / (1 - q^e)^power by ``power`` running sums along each residue
    class mod e; ValueError when the division is not exact.

    Q = P / (1 - q^e) satisfies Q_i = P_i + Q_(i-e).  Run over the whole of
    P, the ``power`` sums leave the top power*e entries zero exactly when
    the division is exact, and what lies below them is the quotient.
    """
    out = list(coeffs)
    for s in range(min(exponent, len(out))):
        column = out[s::exponent]
        for _ in range(power):
            column = accumulate(column)
        out[s::exponent] = column
    cut = max(len(out) - power * exponent, 0)
    if any(out[cut:]):
        raise ValueError("division is not exact")
    del out[cut:]
    return out


def _add_shifted(total: list, base: int, coeffs: list, shift: int, op) -> int:
    """total <- op(total, q^shift * coeffs) in place, where total holds the
    coefficients from q^base up; returns the new base."""
    if shift < base:
        total[:0] = [0] * (base - shift)
        base = shift
    lo = shift - base
    hi = lo + len(coeffs)
    if hi > len(total):
        total.extend([0] * (hi - len(total)))
    total[lo:hi] = map(op, total[lo:hi], coeffs)
    return base
