import math
import random
from fractions import Fraction

import pytest

from sclab.cyclotomic import (
    CycElement,
    SUPPORTED_ORDERS,
    OrderMismatchError,
    root_power_sum_check,
)
from conftest import random_rational, rising_element


def test_square_root_of_minus_one():
    i = CycElement.zeta(4)
    assert i * i == CycElement.from_rational(4, -1)


def test_fifth_root_power_cycle():
    z = CycElement.zeta(5)
    assert z ** 4 * z == CycElement.one(5)


def test_reduction_of_high_powers():
    # 1 + z + z^2 + z^3 equals -z^4, so multiplying by z^4 lands on -z^3:
    # oracle by brute-force polynomial division of x^8 by the order-5 modulus.
    z = CycElement.zeta(5)
    u = CycElement(5, [1, 1, 1, 1])
    expected = CycElement(5, [0, 0, 0, -1])
    assert u * z ** 4 == expected
    assert u == -(z ** 4)


def test_inverse_of_i_is_minus_i():
    i = CycElement.zeta(4)
    assert i.inverse() == -i


def test_inverse_of_rational_element():
    u = CycElement.from_rational(1, Fraction(2, 3))
    assert u.inverse() == CycElement.from_rational(1, Fraction(3, 2))


def test_inverse_of_one_minus_zeta():
    z = CycElement.zeta(5)
    u = CycElement.one(5) - z
    assert u * u.inverse() == CycElement.one(5)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycElement.zero(5).inverse()


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        CycElement.zeta(4) * CycElement.zeta(5)


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        CycElement(7, [1])
    for build in (CycElement.one, CycElement.zero, CycElement.zeta):
        with pytest.raises(ValueError):
            build(7)
    with pytest.raises(ValueError):
        CycElement.from_rational(7, 1)


def test_constants_match_general_constructor():
    for order in (1, 4, 5):
        assert CycElement.one(order) == CycElement(order, [1])
        assert CycElement.zero(order) == CycElement(order, [])
        assert CycElement.zeta(order) == CycElement(order, [0, 1])
        for u in (CycElement.one(order), CycElement.zero(order), CycElement.zeta(order)):
            assert type(u.den) is int and all(type(a) is int for a in u.nums)
        assert CycElement.zeta(order) ** 0 == CycElement.one(order)
        # integral Fractions clear to denominator 1; a float is refused
        whole = CycElement(order, [Fraction(4, 2), Fraction(-3)])
        assert whole.den == 1 and whole == CycElement(order, [2, -3])
        with pytest.raises(TypeError):
            CycElement(order, [1, 0.5])
    assert CycElement.zeta(1) == CycElement.one(1)


def test_root_power_sum():
    assert root_power_sum_check(5) is True
    for bad in (1, 4, 6):
        with pytest.raises(ValueError):
            root_power_sum_check(bad)


def test_order_four_power_sums():
    # 1 + x + x^2 + x^3 factors as (1 + x)(1 + x^2), so it vanishes mod
    # x^2 + 1; the three-term sum does not
    i = CycElement.zeta(4)
    assert (CycElement.one(4) + i + i ** 2 + i ** 3).is_zero
    truncated = CycElement.one(4) + i + i ** 2
    assert not truncated.is_zero
    assert truncated == i  # brute-force reduction oracle: 1 + x - 1


def test_mul_inverse_roundtrip(rng):
    for order in (4, 5):
        for _ in range(60):
            coeffs = [random_rational(rng, 9, 6) for _ in CycElement.zero(order).coeffs]
            u = CycElement(order, coeffs)
            if u.is_zero:
                continue
            assert u * u.inverse() == CycElement.one(order)


def test_division_matches_inverse(rng):
    z = CycElement.zeta(5)
    u = 3 + 2 * z - z ** 3
    v = CycElement.one(5) + z
    assert (u / v) * v == u


def test_galois_symmetric_products_are_rational(rng):
    # conjugate-orbit products of rising factorials collapse to Q
    for order in (4, 5):
        root = CycElement.zeta(order)
        for _ in range(25):
            a = random_rational(rng, 9, 6)
            b = random_rational(rng, 9, 6)
            p = rng.choice([3, 5, 7, 11])
            k = rng.randint(0, 6)
            product = CycElement.one(order)
            for j in range(order):
                shifted = (
                    CycElement.from_rational(order, a)
                    + CycElement.from_rational(order, b * p) * root ** j
                )
                product = product * rising_element(shifted, k)
            assert product.is_rational


def test_rational_value_guard():
    z = CycElement.zeta(5)
    with pytest.raises(ValueError):
        z.rational_value()
    assert (z * CycElement.zero(5)).rational_value() == 0


# -- reference model: Q[x]/Phi_n over Fraction, reduced and inverted by
# polynomial division and extended Euclid --------------------------------

_REF_MODULUS = {
    1: (Fraction(-1), Fraction(1)),
    4: (Fraction(1), Fraction(0), Fraction(1)),
    5: (Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
}


def _ref_reduce(order, coeffs):
    mod = _REF_MODULUS[order]
    deg = len(mod) - 1
    coeffs = [Fraction(c) for c in coeffs]
    for i in range(len(coeffs) - 1, deg - 1, -1):
        lead = coeffs[i]
        if lead:
            coeffs[i] = Fraction(0)
            for j in range(deg):
                coeffs[i - deg + j] -= lead * mod[j]
    coeffs = coeffs[:deg] + [Fraction(0)] * (deg - len(coeffs))
    return tuple(coeffs[:deg])


def _ref_degree(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _ref_poly_mul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1 if u and v else 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _ref_poly_sub(u, v):
    out = [Fraction(0)] * max(len(u), len(v))
    for i, a in enumerate(u):
        out[i] += a
    for i, b in enumerate(v):
        out[i] -= b
    return out


def _ref_poly_divmod(u, v):
    dv = _ref_degree(v)
    rem = list(u)
    du = _ref_degree(rem)
    quo = [Fraction(0)] * max(du - dv + 1, 1)
    while du >= dv:
        coef = rem[du] / v[dv]
        quo[du - dv] = coef
        for i in range(dv + 1):
            rem[du - dv + i] -= coef * v[i]
        du = _ref_degree(rem)
    return quo, rem


def _ref_mul(order, u, v):
    return _ref_reduce(order, _ref_poly_mul(list(u), list(v)))


def _ref_inverse(order, u):
    r0, s0 = list(_REF_MODULUS[order]), [Fraction(0)]
    r1, s1 = list(u), [Fraction(1)]
    while _ref_degree(r1) > 0:
        q, r = _ref_poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_poly_sub(s0, _ref_poly_mul(q, s1))
    g = r1[0]
    return _ref_reduce(order, [c / g for c in s1])


def _random_coeffs(rng, order):
    """Coefficient lists up to twice phi(n) + 1 long, with some rational,
    zero and equal-denominator elements mixed in."""
    deg = len(_REF_MODULUS[order]) - 1
    shape = rng.random()
    if shape < 0.1:
        return []
    if shape < 0.25:
        return [random_rational(rng, 40, 12)]
    den = rng.randint(1, 12)
    length = rng.randint(1, 2 * deg + 1)
    if shape < 0.4:
        return [Fraction(rng.randint(-40, 40), den) for _ in range(length)]
    return [random_rational(rng, 40, 12) for _ in range(length)]


def _assert_canonical(u):
    assert u.den > 0
    assert math.gcd(u.den, *u.nums) == 1
    if u.is_zero:
        assert u.den == 1
    assert all(type(a) is int for a in u.nums) and type(u.den) is int


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_kernel_matches_fraction_reference(order):
    rng = random.Random(f"cyclotomic-reference:{order}")
    for _ in range(300):
        cu, cv = _random_coeffs(rng, order), _random_coeffs(rng, order)
        u, v = CycElement(order, cu), CycElement(order, cv)
        ru, rv = _ref_reduce(order, cu), _ref_reduce(order, cv)
        assert u.coeffs == ru and v.coeffs == rv
        cases = [
            (u + v, tuple(a + b for a, b in zip(ru, rv))),
            (u - v, tuple(a - b for a, b in zip(ru, rv))),
            (-u, tuple(-a for a in ru)),
            (u * v, _ref_mul(order, ru, rv)),
        ]
        if any(rv):
            ref_inv = _ref_inverse(order, rv)
            cases += [(v.inverse(), ref_inv), (u / v, _ref_mul(order, ru, ref_inv))]
        else:
            with pytest.raises(ZeroDivisionError):
                v.inverse()
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == want
            assert got == CycElement(order, want)
            assert got.is_zero == (not any(want))
            assert got.is_rational == (not any(want[1:]))
            if got.is_rational:
                assert got.rational_value() == want[0]
                assert got == want[0]
        assert (u == v) == (ru == rv)


def test_canonical_form_and_hash_across_routes():
    for order in SUPPORTED_ORDERS:
        half = CycElement.from_rational(order, Fraction(1, 2))
        for other in (
            CycElement(order, [Fraction(2, 4)]),
            CycElement(order, [Fraction(1, 2), 0, 0, 0, 0][: len(half.nums)]),
            CycElement.one(order) / 2,
            CycElement.one(order) - Fraction(1, 2),
            (CycElement.one(order) * 2).inverse(),
        ):
            assert other == half and hash(other) == hash(half)
            assert (other.nums, other.den) == (half.nums, half.den)
        zero = CycElement(order, [Fraction(3, 7), Fraction(-3, 7)]) if order == 1 else (
            CycElement.zeta(order) - CycElement.zeta(order)
        )
        assert zero.den == 1 and zero == CycElement.zero(order)
        assert hash(zero) == hash(CycElement.zero(order))
    z = CycElement.zeta(5)
    # two routes to -x^4 = 1 + x + x^2 + x^3
    assert -(z ** 4) == CycElement(5, [1, 1, 1, 1])
    assert hash(-(z ** 4)) == hash(CycElement(5, [1, 1, 1, 1]))
    u = CycElement(5, [Fraction(6, 4), Fraction(-9, 6), 0, Fraction(3, 2)])
    assert (u.nums, u.den) == ((3, -3, 0, 3), 2)
    assert repr(u) == (
        "CycElement(order=5, coeffs=(Fraction(3, 2), Fraction(-3, 2), "
        "Fraction(0, 1), Fraction(3, 2)))"
    )



def _big_coeffs(rng, order, den):
    """phi(n) coefficients with 2000-4000-bit numerators of both signs, as
    the proof chains reach at p ~ 400, over ``den``."""
    deg = len(_REF_MODULUS[order]) - 1
    return [
        Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(2000, 4000)), den)
        for _ in range(deg)
    ]


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_closed_form_products_match_reference_on_large_numerators(order):
    rng = random.Random(f"cyclotomic-large:{order}")
    for trial in range(12):
        dens = (1, 1) if trial % 2 else (rng.getrandbits(80) | 1, rng.randint(2, 10**6))
        cu, cv = _big_coeffs(rng, order, dens[0]), _big_coeffs(rng, order, dens[1])
        u, v = CycElement(order, cu), CycElement(order, cv)
        ru, rv = tuple(cu), tuple(cv)
        got = u * v
        _assert_canonical(got)
        assert got.coeffs == _ref_mul(order, ru, rv)
        assert (v * u) == got
        inv = u.inverse()
        _assert_canonical(inv)
        assert inv.coeffs == _ref_inverse(order, ru)
        assert (u - v).coeffs == tuple(a - b for a, b in zip(ru, rv))
        assert (u ** 3).coeffs == _ref_mul(order, _ref_mul(order, ru, ru), ru)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_scalars_on_either_side(order):
    rng = random.Random(f"cyclotomic-scalars:{order}")
    u = CycElement(order, _random_coeffs(rng, order) or [3])
    for c in (0, 1, -7, 2**70, Fraction(-3, 14), Fraction(5), True, False):
        want = u * CycElement.from_rational(order, c)
        for got in (u * c, c * u):
            _assert_canonical(got)
            assert got == want and (got.nums, got.den) == (want.nums, want.den)
        c_elem = CycElement.from_rational(order, c)
        for got, ref in ((u - c, u - c_elem), (c - u, c_elem - u), (u + c, u + c_elem)):
            _assert_canonical(got)
            assert (got.nums, got.den) == (ref.nums, ref.den)
        assert (c - u).coeffs == tuple(
            Fraction(c) * (i == 0) - a for i, a in enumerate(u.coeffs)
        )
    for bad in (1.0, 0.5):
        with pytest.raises(TypeError):
            u * bad
        with pytest.raises(TypeError):
            bad * u
    other = CycElement.zeta(5 if order != 5 else 4)
    with pytest.raises(OrderMismatchError):
        u * other
    with pytest.raises(OrderMismatchError):
        other * u


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_powers_match_repeated_products(order):
    u = CycElement(order, [Fraction(3, 2), -1, Fraction(2, 5), 7][: len(CycElement.one(order).nums)])
    acc = CycElement.one(order)
    for e in range(18):
        got = u ** e
        assert (got.nums, got.den) == (acc.nums, acc.den)
        inv = u ** -e
        assert inv * acc == CycElement.one(order)
        acc = acc * u
    assert u ** 1 is u


@pytest.mark.parametrize("order", [4, 5])
def test_long_pochhammer_matches_reference_fold(order):
    # (a)_300 folds 300 factors whose numerators reach thousands of bits
    deg = len(_REF_MODULUS[order]) - 1
    a = CycElement(order, [Fraction(3, 7), Fraction(2, 5), Fraction(-1, 3), Fraction(5, 11)][:deg])
    ref = _ref_reduce(order, [1])
    base = a.coeffs
    for j in range(300):
        ref = _ref_mul(order, ref, (base[0] + j,) + base[1:])
    got = rising_element(a, 300)
    _assert_canonical(got)
    assert got.coeffs == ref
    assert max(abs(c).bit_length() for c in got.nums) > 2000


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_short_pochhammer_is_canonical(order):
    # n = 0 is the order's one and n = 1 is a itself, as the reference fold
    # gives them; neither may skip the canonical form
    deg = len(_REF_MODULUS[order]) - 1
    for coeffs in ([Fraction(6, 4), Fraction(-9, 6), Fraction(3, 2), 0], [Fraction(-5, 3)], [4, 2, 0, -6]):
        a = CycElement(order, coeffs[:deg])
        ref = _ref_reduce(order, [1])
        for n in (0, 1):
            got = rising_element(a, n)
            _assert_canonical(got)
            assert got.order == order and got.coeffs == ref
            ref = _ref_mul(order, ref, a.coeffs)
        assert (rising_element(a, 1).nums, rising_element(a, 1).den) == (a.nums, a.den)


def _make_by_gcd(nums, den):
    """Reference canonical form: the sign on the numerators, then one gcd."""
    if den < 0:
        nums, den = [-a for a in nums], -den
    g = math.gcd(den, *nums)
    return tuple(a // g for a in nums), den // g


def test_make_matches_the_gcd_route(rng):
    # dens 2^a q^b, q in (3, 5, 7), as den^n of a rising factorial gives,
    # on both sides of 2^512 and with or without another factor; each draw
    # shares a random part of den with the numerators
    routes = set()
    for trial in range(400):
        order = rng.choice(SUPPORTED_ORDERS)
        q = rng.choice((3, 5, 7))
        smooth = 2 ** rng.randint(0, 400) * q ** rng.randint(0, 250)
        extra = rng.choice((1, 1, 1, 11, 10007, 2**61 - 1, 3 * 5 * 7))
        den = smooth * extra * rng.choice((1, -1))
        common = math.gcd(den, 2 ** rng.randint(0, 420) * q ** rng.randint(0, 260) * extra)
        nums = [
            0 if rng.random() < 0.25 else common * rng.randint(-(10**30), 10**30)
            for _ in range(len(CycElement.one(order).nums))
        ]
        if trial % 40 == 0:
            den = rng.choice((1, -1))
        got = CycElement._make(order, nums, den)
        assert (got.nums, got.den) == _make_by_gcd(nums, den), (order, nums, den)
        routes.add((abs(den) >= 2**512, extra == 1))
    assert routes == {(True, True), (True, False), (False, True), (False, False)}
    # 3f agrees with 3^400 mod 2^64 but is no power of 3, so a shortcut
    # for powers that looked at the low 64 bits would cancel it wrongly
    f = 3**399 + 2**64
    got = CycElement._make(5, [7 * f, 0, 2 * f, 5 * f], 3 * f)
    assert (got.nums, got.den) == ((7, 0, 2, 5), 3)
