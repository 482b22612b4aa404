from fractions import Fraction
from math import factorial, prod

import pytest

from sclab import qring
from sclab.claims import InadmissibleInstanceError
from sclab.qring import (
    NonUnitFactorError,
    QPolynomial,
    QRing,
    _jet_sum,
    _ring_sum,
    _summand,
    cyclotomic_poly,
    q_integer,
    q_pochhammer,
    verify_q_conjecture,
)
from sclab.rationals import pochhammer


def test_polynomial_canonical_form():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert QPolynomial([0, 0]).is_zero
    assert QPolynomial.zero().degree == -1


def test_polynomial_divmod_roundtrip(rng):
    for _ in range(60):
        u = QPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 9))])
        v = QPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        if v.is_zero:
            continue
        quo, rem = divmod(u, v)
        assert quo * v + rem == u
        assert rem.degree < v.degree


def test_cyclotomic_poly():
    assert cyclotomic_poly(5).coeffs == (Fraction(1),) * 5
    assert cyclotomic_poly(2).coeffs == (Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        cyclotomic_poly(6)


def test_q_integer_examples():
    ring = QRing(7)
    assert q_integer(1, ring) == ring.one
    assert q_integer(3, ring) == ring.from_coeffs([1, 1, 1])
    assert q_integer(0, ring).is_zero


def test_q_integer_negative():
    # [-2] * (1 - q) must equal 1 - q^-2
    ring = QRing(7)
    lhs = q_integer(-2, ring) * (ring.one - ring.q_power(1))
    rhs = ring.one - ring.q_power(-2)
    assert lhs == rhs


def test_q_power_inverse():
    ring = QRing(5)
    assert ring.q_power(-3) * ring.q_power(3) == ring.one


def test_q_pochhammer_examples():
    ring = QRing(7)
    assert q_pochhammer(1, 5, 0, ring) == ring.one
    assert q_pochhammer(1, 5, 1, ring) == ring.one - ring.q_power(1)
    # (q^5; q^5)_(p-1) is a unit: its inverse exists
    block = q_pochhammer(5, 5, 6, ring)
    assert block * block.inverse() == ring.one


def test_q_pochhammer_non_unit_factor():
    ring = QRing(7)
    with pytest.raises(NonUnitFactorError):
        q_pochhammer(7, 5, 1, ring)  # 1 - q^7 shares Phi_7 with the modulus


def test_ring_axioms(rng):
    ring = QRing(5)
    elems = [
        ring.from_coeffs([rng.randint(-4, 4) for _ in range(rng.randint(1, 10))])
        for _ in range(6)
    ]
    for u in elems:
        for v in elems:
            assert u * v == v * u
            for w in elems:
                assert (u * v) * w == u * (v * w)
                assert u * (v + w) == u * v + u * w


def test_lifted_inverse_matches_full_euclid(rng):
    # the Newton-lifted inverse agrees with extended Euclid run directly
    # against Phi_p^4 (tractable only at small p), on integer and rational
    # elements: the lift runs on integer numerators over one denominator
    for p in (2, 3, 5):
        ring = QRing(p)
        for _ in range(8):
            u = ring.from_coeffs(
                [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                 for _ in range(rng.randint(1, 2 * p))]
            )
            try:
                lifted = u.inverse()
            except NonUnitFactorError:
                continue
            assert lifted == u._inverse_full_euclid()
            assert u * lifted == ring.one


def test_screened_q_pochhammer_is_invertible(rng):
    # any factor the screen lets through is a unit of the ring
    for _ in range(25):
        p = rng.choice([3, 7, 11])
        ring = QRing(p)
        k = rng.randint(0, 5)
        a = rng.randint(-6, 6)
        step = rng.choice([1, 5])
        try:
            value = q_pochhammer(a, step, k, ring)
        except NonUnitFactorError:
            continue
        assert value * value.inverse() == ring.one


def test_ring_inverse_of_non_unit_rejected():
    ring = QRing(5)
    phi_image = ring.element(cyclotomic_poly(5))
    with pytest.raises(NonUnitFactorError):
        phi_image.inverse()


# Laurent polynomials q^shift * poly as test-local (QPolynomial, shift) pairs


def _binomial(e):
    """1 - q^e for e != 0; 1 - q^e = q^e (q^-e - 1) when e < 0."""
    if e > 0:
        return QPolynomial((1,) + (0,) * (e - 1) + (-1,)), 0
    return QPolynomial((-1,) + (0,) * (-e - 1) + (1,)), e


def _pair_mul(a, b):
    return a[0] * b[0], a[1] + b[1]


def _pair_add(a, b):
    low = min(a[1], b[1])
    lifted = [QPolynomial((0,) * (s - low) + poly.coeffs) for poly, s in (a, b)]
    return lifted[0] + lifted[1], low


def _evaluate(pair, x):
    poly, shift = pair
    return sum(Fraction(c) * Fraction(x) ** (i + shift) for i, c in enumerate(poly.coeffs))


def _q_integer_laurent(n: int):
    """[n] = 1 + q + ... + q^(n-1), and [n] = -q^n [-n] for n < 0."""
    if n >= 0:
        return QPolynomial((1,) * n), 0
    return -QPolynomial((1,) * (-n)), n


def test_summand_specializes_to_rational_term():
    # rewriting a q-side summand through q-integers and sending q -> 1
    # reproduces the rational fifth-power summand exactly
    for p, r in [(7, 1), (13, -1)]:
        for k in range(4):
            value = Fraction(10 * k + r)
            for j in range(k):
                value *= (
                    _evaluate(_q_integer_laurent(r + 5 * j), 1)
                    / _evaluate(_q_integer_laurent(5 + 5 * j), 1)
                ) ** 5
            expected = (
                (10 * k + r)
                * pochhammer(Fraction(r, 5), k) ** 5
                / pochhammer(Fraction(1), k) ** 5
            )
            assert value == expected


def test_q_pochhammer_laurent_matches_ring():
    ring = QRing(7)
    for k in range(4):
        poly, shift = QPolynomial.one(), 0
        for j in range(k):
            poly, shift = _pair_mul((poly, shift), _binomial(-1 + 5 * j))
        in_ring = ring.element(poly) * ring.q_power(shift)
        assert in_ring == q_pochhammer(-1, 5, k, ring)


def test_conjecture_holds_small_instances():
    for p, r in [(2, 1), (3, -1), (7, 1)]:
        report = verify_q_conjecture(p, r)
        assert report.ring_zero and report.division_zero
        assert report.methods_agree and report.zero


def test_conjecture_with_deeply_negative_r():
    # r = -9 pushes several q-shifted factors to negative exponents, which
    # the ring reaches through q^-1 and the jets through (1 + eps)^m, m < 0
    report = verify_q_conjecture(7, -9)
    assert report.zero and report.methods_agree


def test_conjecture_negative_control():
    report = verify_q_conjecture(7, 1, exponent_twist=1)
    assert report.methods_agree
    assert not report.zero


def test_conjecture_rejects_inadmissible_pairs():
    with pytest.raises(InadmissibleInstanceError):
        verify_q_conjecture(11, -1)  # fails the mod-5 side condition
    with pytest.raises(InadmissibleInstanceError):
        verify_q_conjecture(3, 1)


def test_conjecture_is_never_admissible_at_p_five():
    # 2p + r = 0 (mod 5) at p = 5 forces 5 | r, and thm1 needs r prime to 5
    for r in range(-60, 2):
        with pytest.raises(InadmissibleInstanceError):
            verify_q_conjecture(5, r)


def _all_int(poly):
    return all(type(c) is int for c in poly.coeffs)


def test_integer_coefficients_stay_int(rng):
    ring = QRing(7)
    for e in (-9, -1, 0, 3, 40):
        assert _all_int(ring.q_power(e).residue)
    for n in (-5, 0, 4, 30):
        assert _all_int(q_integer(n, ring).residue)
    block = q_pochhammer(-1, 5, 3, ring)
    assert _all_int(block.residue)
    assert _all_int((block * q_integer(9, ring)).residue)
    assert _all_int((block ** 5).residue)
    u = QPolynomial([rng.randint(-9, 9) for _ in range(30)])
    for divisor in (cyclotomic_poly(7), _binomial(4)[0], -_binomial(3)[0]):
        assert divisor.coeffs[-1] in (1, -1)
        quo, rem = divmod(u, divisor)
        assert _all_int(quo) and _all_int(rem)
        assert quo * divisor + rem == u
    assert QPolynomial([Fraction(4, 2)]).coeffs == (2,)
    assert _all_int(QPolynomial([Fraction(4, 2)]))
    assert type(QPolynomial([Fraction(1, 2)]).coeffs[0]) is Fraction
    with pytest.raises(TypeError):
        QPolynomial([0.5])


def test_divmod_by_non_monic_integer_divisor(rng):
    u = QPolynomial([rng.randint(-9, 9) for _ in range(12)])
    divisors = [QPolynomial([3, 2])] + [
        QPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
                    + [rng.choice([-3, -2, 2, 5])])
        for _ in range(20)
    ]
    for v in divisors:
        quo, rem = divmod(u, v)
        assert quo * v + rem == u
        assert rem.degree < v.degree


def _route1_terms(p, r, twist):
    """The route-1 summands of verify_q_conjecture without the common
    inverse of (q^5;q^5)_(p-1)^5, rebuilt from the public ring helpers."""
    ring = QRing(p)
    estep = 5 * (3 - r) // 2
    inverse = (q_pochhammer(5, 5, p - 1, ring) ** 5).inverse()
    terms = []
    rising = ring.one  # (q^r;q^5)_k; its factors need not be units
    for k in range(p):
        terms.append(
            q_integer(10 * k + r, ring)
            * ring.q_power((estep + twist) * k)
            * rising ** 5
            * q_pochhammer(5 * (k + 1), 5, p - 1 - k, ring) ** 5
        )
        rising = rising * (ring.one - ring.q_power(r + 5 * k))
    return ring, terms, inverse


@pytest.mark.parametrize("p, r", [(7, 1), (13, -1)])
@pytest.mark.parametrize("twist", [0, 1])
def test_route1_inverse_factors_out_of_the_sum(p, r, twist):
    ring, terms, inverse = _route1_terms(p, r, twist)
    per_term = ring.zero
    for term in terms:
        per_term = per_term + term * inverse
    factored = ring.zero
    for term in terms:
        factored = factored + term
    factored = factored * inverse
    assert per_term == factored
    assert per_term.is_zero == (twist == 0)
    assert verify_q_conjecture(p, r, twist).ring_zero == (twist == 0)


@pytest.mark.parametrize("p, r", [(7, 1), (13, -1), (29, -3)])
@pytest.mark.parametrize("twist", [0, 1])
def test_route1_horner_sum_matches_suffix_terms(p, r, twist):
    # the suffix-form terms over S_0^5 and the Horner sum over its block
    # are the same element: sum(terms) * block == total * S_0^5
    ring, terms, _ = _route1_terms(p, r, twist)
    total, block = _ring_sum(ring, r, 5 * (3 - r) // 2 + twist)
    s0_fifth = q_pochhammer(5, 5, p - 1, ring) ** 5
    expected = ring.zero
    for term in terms:
        expected = expected + term
    assert expected * block == total * s0_fifth
    if p == 29:
        # (q^-3;q^5)_k holds 1 - q^87 from k = 19 on, so the terms stop
        # there, but the block still gathers every factor up to k = p - 1
        assert terms[19].is_zero and not terms[18].is_zero
        assert block == (ring.one - ring.q_power(1)) * s0_fifth


def test_conjecture_at_larger_primes():
    report = verify_q_conjecture(29, -3)
    assert report.ring_zero and report.division_zero
    control = verify_q_conjecture(23, -1, exponent_twist=1)
    assert not control.ring_zero and not control.division_zero
    assert control.methods_agree


def test_conjecture_at_primes_in_the_forties():
    report = verify_q_conjecture(43, -1)
    assert report.ring_zero and report.division_zero
    control = verify_q_conjecture(29, -3, exponent_twist=1)
    assert not control.ring_zero and not control.division_zero


# ---------------------------------------------------------------------------
# Kernels against test-local schoolbook references
# ---------------------------------------------------------------------------


def _schoolbook_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return QPolynomial(out)


def _schoolbook_divmod(u, v):
    """Long division one quotient digit at a time; v's leading coefficient
    is +-1, so it is its own inverse."""
    lead = v[-1]
    assert lead in (1, -1)
    rem = list(u)
    dv = len(v) - 1
    quo = [0] * max(len(rem) - dv, 0)
    for top in range(len(rem) - 1, dv - 1, -1):
        c = rem[top] * lead
        quo[top - dv] = c
        for i, d in enumerate(v):
            rem[top - dv + i] -= c * d
    return QPolynomial(quo), QPolynomial(rem[:dv])


def _canonical(poly):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in poly.coeffs
    )


def _random_coeffs(rng, length, bits, density=1.0):
    return [
        rng.randint(-(1 << bits), 1 << bits) if rng.random() < density else 0
        for _ in range(length)
    ]


def test_packed_mul_matches_schoolbook(rng):
    pairs = []
    for _ in range(60):
        pairs.append((
            _random_coeffs(rng, rng.randint(0, 200), rng.randint(1, 300)),
            _random_coeffs(rng, rng.randint(0, 200), rng.randint(1, 300)),
        ))
    for _ in range(10):  # all-negative operands
        pairs.append((
            [-rng.randint(1, 1 << 90) for _ in range(rng.randint(20, 120))],
            [-rng.randint(1, 1 << 40) for _ in range(rng.randint(20, 120))],
        ))
    for b in (7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256):
        edge = [1 << b, -(1 << b), (1 << b) - 1, 1 - (1 << b)]
        left = [rng.choice(edge) for _ in range(rng.randint(17, 80))]
        right = [rng.choice(edge) for _ in range(rng.randint(17, 80))]
        pairs += [(left, right), (left, left), ([-(1 << b)] * 40, [-(1 << b)] * 33)]
    # slot widths with no byte padding to spare: b + b + bit_length(63) is
    # a multiple of 8, and the products reach 63 (2^b - 1)^2
    for b in (5, 61, 125):
        top = (1 << b) - 1
        for n in (63, 64):
            pairs += [([top] * n, [top] * n), ([-top] * n, [top] * 70), ([-top] * 70, [-top] * n)]
    for a, b in pairs:
        product = QPolynomial(a) * QPolynomial(b)
        assert product == _schoolbook_mul(a, b)
        assert _canonical(product)


def test_sparse_cutoff_sides_match_schoolbook(rng):
    from sclab.qring import SPARSE_TERMS

    for terms in (1, 2, SPARSE_TERMS - 1, SPARSE_TERMS, SPARSE_TERMS + 1, 40):
        for _ in range(6):
            sparse = [0] * rng.randint(terms, 300)
            for i in rng.sample(range(len(sparse)), terms):
                sparse[i] = rng.choice([-1, 1, rng.randint(-(1 << 200), 1 << 200)])
            dense = _random_coeffs(rng, rng.randint(1, 150), rng.randint(1, 120))
            assert QPolynomial(sparse) * QPolynomial(dense) == _schoolbook_mul(sparse, dense)
            assert QPolynomial(dense) * QPolynomial(sparse) == _schoolbook_mul(dense, sparse)
            assert QPolynomial(sparse) * QPolynomial(sparse) == _schoolbook_mul(sparse, sparse)


def test_mixed_fraction_products_stay_canonical(rng):
    for _ in range(40):
        a = [
            Fraction(rng.randint(-99, 99), rng.choice([1, 1, 2, 3, 6]))
            for _ in range(rng.randint(1, 60))
        ]
        b = [
            rng.choice([rng.randint(-(1 << 70), 1 << 70), Fraction(rng.randint(-9, 9), 4)])
            for _ in range(rng.randint(1, 60))
        ]
        product = QPolynomial(a) * QPolynomial(b)
        assert product == _schoolbook_mul(QPolynomial(a).coeffs, QPolynomial(b).coeffs)
        assert _canonical(product)
    # integral products of non-integral operands come back as int
    half = QPolynomial([Fraction(1, 2)] * 20)
    doubled = QPolynomial([2] * 20)
    assert all(type(c) is int for c in (half * doubled).coeffs)
    assert (half * doubled) == QPolynomial(list(range(1, 21)) + list(range(19, 0, -1)))


def test_divmod_matches_schoolbook(rng):
    # long and short cyclotomic powers, and random divisors of degree 26 to
    # 60 with leading coefficient +-1
    divisors = [cyclotomic_poly(p) for p in (29, 31)]
    divisors += [QRing(13).modulus, QRing(29, 2).modulus]
    divisors += [cyclotomic_poly(19), QRing(7).modulus]
    divisors += [
        QPolynomial(_random_coeffs(rng, rng.randint(26, 60), 2) + [rng.choice([1, -1])])
        for _ in range(4)
    ]
    for v in divisors:
        for length in (0, len(v.coeffs), 2 * len(v.coeffs) + 1, 6 * len(v.coeffs)):
            u = _random_coeffs(rng, length, rng.randint(1, 200))
            quo, rem = divmod(QPolynomial(u), v)
            assert (quo, rem) == _schoolbook_divmod(u, v.coeffs)
            assert _all_int(quo) and _all_int(rem)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
@pytest.mark.parametrize("power", [1, 2, 4])
def test_ring_fold_matches_dense_remainder(rng, p, power):
    ring = QRing(p, power)
    modulus = ring.modulus.coeffs
    for degree in (0, p * power, 12 * p * p, rng.randint(0, 12 * p * p)):
        u = _random_coeffs(rng, degree + 1, rng.randint(1, 80))
        expected = _schoolbook_divmod(u, modulus)[1]
        assert ring.element(QPolynomial(u)).residue == expected
        assert QPolynomial(u) % ring.modulus == expected
    for _ in range(2):
        den = rng.choice([2, 3, 12, 35])
        u = [Fraction(rng.randint(-999, 999), den) for _ in range(rng.randint(1, 12 * p * p))]
        nums = [c * den for c in u]
        expected = _schoolbook_divmod([int(c) for c in nums], modulus)[1]
        expected = QPolynomial([Fraction(c, den) for c in expected.coeffs])
        residue = ring.element(QPolynomial(u)).residue
        assert residue == expected and _canonical(residue)
    # q^-1 = -(Phi_p^power - 1)/q: the modulus has constant term 1
    q_inverse = ring.from_coeffs([-c for c in modulus[1:]])
    top = 5 * p * p
    exponents = {0, 1, p, p * power, top, rng.randint(0, top)}
    for e in sorted(exponents | {-e for e in exponents}):
        if e >= 0:
            monomial = [0] * e + [1]
            assert ring.q_power(e).residue == _schoolbook_divmod(monomial, modulus)[1]
        else:
            assert ring.q_power(e) == q_inverse ** -e
        assert ring.q_power(e) * ring.q_power(-e) == ring.one


def _fifth_power(pair):
    square = _pair_mul(pair, pair)
    return _pair_mul(_pair_mul(square, square), pair)


def _dense_cleared_sum(p, r, step):
    """The cleared sum T = sum_k (1 - q^(10k+r)) q^(step k) (q^r;q^5)_k^5
    S_k^5 as a (poly, shift) pair, from dense products, exact divisions and
    Laurent additions."""
    u = QPolynomial.one(), 0
    for j in range(1, p):
        u = _pair_mul(u, _fifth_power(_binomial(5 * j)))
    total = QPolynomial.zero(), 0
    for k in range(p):
        if k:
            quo, rem = divmod(u[0], _fifth_power(_binomial(5 * k))[0])
            assert rem.is_zero
            u = _pair_mul((quo, u[1]), _fifth_power(_binomial(r + 5 * (k - 1))))
        term = _pair_mul(_binomial(10 * k + r), (u[0], u[1] + step * k))
        total = _pair_add(total, term)
    return total


def _jets_at_x(poly, shift, p):
    """poly(q) q^shift at q = X (1 + eps), X = 2^64, mod (Phi_p(X), eps^4),
    X^m taken straight mod Phi_p(X) (X is a unit there: Phi_p(X) is odd);
    the coefficient of eps^j in (1 + eps)^m is m (m-1) ... (m-j+1) / j!."""
    x = 1 << 64
    phi = sum(x ** i for i in range(p))
    jet = [0] * 4
    for m, c in enumerate(poly.coeffs, shift):
        w = c * pow(x, m, phi)
        for j in range(4):
            jet[j] += w * (prod(m - t for t in range(j)) // factorial(j))
    return tuple(v % phi for v in jet)


@pytest.mark.parametrize("p, r", [(7, 1), (7, -9), (13, -1)])
@pytest.mark.parametrize("twist", [0, 1, 2, 3])
def test_route2_jets_match_dense_cleared_sum(p, r, twist):
    # route 2's coefficients are the image of the dense T's residue mod
    # Phi_p^4 at q = X (1 + eps); they vanish exactly without a twist
    step = 5 * (3 - r) // 2 + twist
    poly, shift = _dense_cleared_sum(p, r, step)
    residue = divmod(poly, QRing(p).modulus)[1]
    jets = _jet_sum(p, r, step)
    assert jets == _jets_at_x(residue, shift, p)
    assert jets == _jets_at_x(poly, shift, p)
    assert (not any(jets)) == (twist == 0)


@pytest.mark.parametrize("p, r", [(29, -3), (43, -1)])
@pytest.mark.parametrize("twist", [0, 1, -40])
def test_route2_jets_match_route1_pre_inverse_sum(p, r, twist):
    # route 1's sum before its one inverse is T itself; at twist -40 the
    # power step*k of q is negative for every k > 0
    step = 5 * (3 - r) // 2 + twist
    total, _ = _ring_sum(QRing(p), r, step)
    jets = _jet_sum(p, r, step)
    assert jets == _jets_at_x(total.residue, 0, p)
    assert (not any(jets)) == (twist == 0)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
@pytest.mark.parametrize("m", [0, 1, -7, 3 * 13 + 2])
def test_route2_zero_test_sees_order_four_exactly(monkeypatch, p, m):
    # route 2 on a description whose Horner steps build q^m Phi_p^power:
    # power steps R <- R Phi_p, then V <- q^m R; Phi_p^4 is accepted and
    # Phi_p^3, which vanishes to order exactly 3, is rejected
    phi = [(1, i) for i in range(p)]

    def description(power):
        return [([(1, 0)], phi, [])] * power + [([(1, 0)], [(1, 0)], [(1, m)])]

    for power, zero in ((4, True), (3, False)):
        monkeypatch.setattr(qring, "_summand", lambda p, r, step: description(power))
        assert (not any(_jet_sum(p, 1, 0))) is zero


@pytest.mark.parametrize("p, r", [(7, 1), (13, -1), (29, -3), (43, -1)])
@pytest.mark.parametrize("twist", [0, 1, -40])
def test_summand_horner_steps_give_the_cleared_sum_at_q_2(p, r, twist):
    # both routes run the Horner steps over the same description, so the
    # description itself is pinned here, in exact arithmetic at q = 2,
    # against T = sum_k (1 - q^(10k+r)) q^(step k) (q^r;q^5)_k^5 S_k^5
    # with S_k = prod_{k<j<p} (1 - q^(5j))
    q = Fraction(2)
    step = 5 * (3 - r) // 2 + twist

    def at(terms):
        return sum(c * q ** m for c, m in terms)

    total, rising = 0, 1
    for d, f, c in _summand(p, r, step):
        rising *= at(f)
        total = total * at(d) + at(c) * rising
    expected = sum(
        (1 - q ** (10 * k + r)) * q ** (step * k)
        * prod(1 - q ** (r + 5 * j) for j in range(k)) ** 5
        * prod(1 - q ** (5 * j) for j in range(k + 1, p)) ** 5
        for k in range(p)
    )
    assert total == expected != 0


@pytest.mark.parametrize("p, r", [(29, -3), (43, -1)])
def test_route1_operands_stay_below_power_p(monkeypatch, p, r):
    # every power of q enters route 1 folded mod (q^p - 1)^4, so no factor
    # is as long as the raw (1 - q^(5k))^5, of degree 25k, and each product
    # has a factor of at most 24 terms, which takes the zero-skipping loop
    from sclab.qring import SPARSE_TERMS

    ring = QRing(p)
    lengths, fewest_terms = [], []
    mul = QPolynomial.__mul__

    def spy(a, b):
        lengths.extend((len(a.coeffs), len(b.coeffs)))
        fewest_terms.append(min(sum(map(bool, a.coeffs)), sum(map(bool, b.coeffs))))
        return mul(a, b)

    monkeypatch.setattr(QPolynomial, "__mul__", spy)
    _ring_sum(ring, r, 5 * (3 - r) // 2)
    assert lengths and max(lengths) <= ring.power * p
    assert max(fewest_terms) <= SPARSE_TERMS


def test_conjecture_near_p_100():
    report = verify_q_conjecture(103, -1)
    assert report.ring_zero and report.division_zero
    control = verify_q_conjecture(103, -1, exponent_twist=1)
    assert not control.ring_zero and not control.division_zero


def test_ring_arithmetic_refuses_mixed_rings():
    a, b = QRing(5).one, QRing(7).one
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(ValueError, match="^mixed rings$"):
            op(b)
    with pytest.raises(ValueError, match="^mixed rings$"):
        QRing(5, power=2).one + a
