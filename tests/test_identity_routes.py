"""The integer-route identity checks against their field-value references
(``identity_reference``): the same bool, or the same exception type, on
seeded draws, on field parameters, on refused inputs, and on every way a
conjugate product can fail."""

import random
from fractions import Fraction

import pytest

import identity_reference as ref
from conftest import (
    pair_d1_sides,
    pair_karlsson_minton_series,
    pair_whipple_sides,
    random_padic_rational,
)
from sclab import claims, cyclotomic, hyperkernel, rationals
from sclab.cyclotomic import _PRODUCT, CycElement
from sclab.hyperkernel import (
    IdentityPreconditionError,
    check_d1,
    check_karlsson_minton,
    check_whipple,
    conjugate_product_congruence,
)


@pytest.mark.parametrize("name", sorted(ref.IDENTITIES))
def test_checks_match_the_reference_on_widened_draws(name):
    # numerators -9..9 over {1, 2, 3, 5, 7, 9}, n and m up to 8
    bad, seen = ref.disagreements(name, 3000, seed=20240517)
    assert bad == []
    assert seen[True] > 1500 and seen[hyperkernel.PoleInRangeError] > 300


def _field_value(rng, order):
    if rng.random() < 0.4:
        return Fraction(rng.randint(-9, 9), rng.choice(ref.DENOMINATORS))
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range({4: 2, 5: 4}[order])]
    return CycElement(order, coeffs)


def test_identity_sides_match_the_reference_over_fields():
    # the sides as values of the pairs the checks compare and the chains
    # read, over Q(i) and Q(zeta_5); d, e are sometimes a conjugate pair
    rng = random.Random(5)
    evaluated = 0
    for _ in range(300):
        order = rng.choice([4, 5])
        whipple = [_field_value(rng, order) for _ in range(5)] + [rng.randint(0, 6)]
        if order == 4 and rng.random() < 0.3:
            shift = CycElement(4, [0, Fraction(rng.randint(1, 9), rng.randint(1, 5))])
            whipple[3], whipple[4] = whipple[0] + shift, whipple[0] - shift
        d1 = [_field_value(rng, order) for _ in range(4)] + [rng.randint(0, 6), rng.randint(0, 6)]
        ms = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        km = (sum(ms) + rng.randint(1, 4), tuple(_field_value(rng, order) for _ in ms), ms)
        for new, old, args in [
            (pair_whipple_sides, ref.whipple_sides, whipple),
            (check_whipple, ref.check_whipple, whipple),
            (pair_d1_sides, ref.d1_sides, d1),
            (check_d1, ref.check_d1, d1),
            (pair_karlsson_minton_series, ref.karlsson_minton_series, km),
            (check_karlsson_minton, ref.check_karlsson_minton, km),
        ]:
            want = ref.outcome(old, args)
            assert ref.outcome(new, args) == want, (new.__name__, args)
            evaluated += not isinstance(want, type)
    assert evaluated > 1000


def test_cross_products_read_a_rational_tuple_as_an_int():
    # (-1/2 + i)_2 = -5/4 is rational though its argument is not, and its
    # numerator comes back from rising as the tuple (-5, 0)
    mul = _PRODUCT[4]
    x = rationals.rising((-1, 2), 2, 2, mul)
    assert x == (-5, 0)
    assert hyperkernel._same((-5, 4), (x, 4), mul)
    assert not hyperkernel._same((-5, 4), (x, 2), mul)


def _criterion_11_cases():
    rng = random.Random(3111)
    cases = []
    for order in [4] * 100 + [5] * 100:
        p = rng.choice([3, 5, 7, 11, 13])
        a = random_padic_rational(rng, p, 20)
        b = random_padic_rational(rng, p, 20)
        cases.append((a, b, p, rng.randint(0, 6), order))
    return cases


def test_conjugate_products_match_the_reference():
    cases = _criterion_11_cases()
    cases += [(a, b, p, 0, order) for a, b, p, _, order in cases[::20]]  # k = 0
    cases += [(a, 0, p, k, order) for a, _, p, k, order in cases[::20]]  # b = 0
    cases += ref.conjugate_cases(200, seed=1)
    for case in cases:
        assert ref.outcome(conjugate_product_congruence, case) is True
        assert ref.outcome(ref.conjugate_product_congruence, case) is True


def _perturbed_rising(rules):
    """``rising`` with (x)_n changed where x's coordinates match a rule:
    rules are (match, ("add", i, c) or ("times", m)) pairs."""
    true_rising = rationals.rising

    def perturbed(num, den, n, mul=None):
        out = true_rising(num, den, n, mul)
        coords = [Fraction(c, den) for c in (num if type(num) is tuple else (num,))]
        for match, (how, *change) in rules:
            if not match(coords):
                continue
            nums = list(out) if type(out) is tuple else [out]
            if how == "add":
                i, c = change
                nums[i] += c * den ** n
            else:
                nums = [v * change[0] for v in nums]
            out = tuple(nums) if type(out) is tuple else nums[0]
        return out

    return perturbed


def _perturbed_product(rules):
    """The reference's ``rising_product`` changed as ``_perturbed_rising``
    changes ``rising``, on the values of the field factors it is given:
    ("add", i, c) adds c zeta^i, ("times", m) multiplies by m."""
    true_product = ref.rising_product

    def perturbed(x, n):
        out = true_product(x, n)
        for match, (how, *change) in rules:
            if not match(x.coeffs):
                continue
            if how == "add":
                i, c = change
                out = out + c * CycElement.zeta(x.order) ** i
            else:
                out = out * change[0]
        return out

    return perturbed


def _at(value):
    return lambda coords: coords[0] == value and not any(coords[1:])


def _first_root(coords):
    # the factor shifted by b*p*zeta, b > 0: zeta's coordinate is positive
    return len(coords) > 1 and coords[1] > 0


A, B, P, K = Fraction(1, 3), Fraction(2, 3), 7, 2  # (a)_k is a 7-adic unit


@pytest.mark.parametrize(
    "case, rules",
    [
        # the orbit product is irrational
        ((A, B, P, K, 4), [(_first_root, ("add", 1, 1))]),
        ((A, B, P, K, 5), [(_first_root, ("add", 1, 1))]),
        # the orbit product is off mod p^m
        ((A, B, P, K, 4), [(_first_root, ("add", 0, P))]),
        ((A, B, P, K, 5), [(_first_root, ("add", 0, P))]),
        # order 4: the product holds mod p^4 but the +-b*i*p half fails,
        # as (1 + p)(1 - p + p^2 - p^3) = 1 - p^4
        (
            (A, B, P, K, 4),
            [(_first_root, ("times", 1 + P)), (_at(A + B * P), ("times", 1 - P + P**2 - P**3))],
        ),
        # order 4 at a = 0, where (a)_k = 0: the +-b*i*p half gains a
        # factor p and the +-b*p half loses one, so only that half fails
        ((0, B, P, K, 4), [(_first_root, ("times", P)), (_at(B * P), ("add", 0, 1))]),
    ],
    ids=["irrational-4", "irrational-5", "full-4", "full-5", "odd-half", "even-half"],
)
def test_conjugate_product_false_paths_match_the_reference(monkeypatch, case, rules):
    assert conjugate_product_congruence(*case) and ref.conjugate_product_congruence(*case)
    monkeypatch.setattr(hyperkernel, "rising", _perturbed_rising(rules))
    monkeypatch.setattr(ref, "rising_product", _perturbed_product(rules))
    assert conjugate_product_congruence(*case) is False
    assert ref.conjugate_product_congruence(*case) is False


def _refusals():
    """(check, reference, args) with one float, or one non-int count."""
    whipple = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(2), Fraction(3), 2)
    d1 = (Fraction(2, 3), Fraction(1, 2), Fraction(1, 5), Fraction(3), 2, 1)
    conj = (A, B, P, K, 4)
    out = []
    for check, reference, args in [
        (check_whipple, ref.check_whipple, whipple),
        (check_d1, ref.check_d1, d1),
        (conjugate_product_congruence, ref.conjugate_product_congruence, conj),
    ]:
        for i in range(len(args)):
            out.append((check, reference, args[:i] + (float(args[i]),) + args[i + 1:]))
    km = (3, (Fraction(1, 2), Fraction(1, 3)), (1, 0))
    out += [
        (check_karlsson_minton, ref.check_karlsson_minton, args)
        for args in [
            (3.0, km[1], km[2]),
            (3, (0.5, km[1][1]), km[2]),
            (3, (km[1][0], 1.0), km[2]),
            (3, km[1], (1.0, 0)),
            (3, km[1], (1, 0.0)),
            (3, km[1], (-1.0, 0)),
            (3, km[1], (Fraction(3, 2), 0)),
            (Fraction(3), km[1], km[2]),
        ]
    ]
    out += [
        (check_whipple, ref.check_whipple, whipple[:5] + (Fraction(2),)),
        (check_whipple, ref.check_whipple, whipple[:5] + (Fraction(5, 2),)),
        (check_d1, ref.check_d1, d1[:4] + (Fraction(2), 1)),
        (check_d1, ref.check_d1, d1[:4] + (2, Fraction(1))),
    ]
    return out


@pytest.mark.parametrize(
    "check, reference, args",
    [pytest.param(*case, id=f"{case[0].__name__}-{i}") for i, case in enumerate(_refusals())],
)
def test_refused_inputs_raise_as_the_reference(check, reference, args):
    with pytest.raises(Exception) as want:
        reference(*args)
    with pytest.raises(Exception) as got:
        check(*args)
    assert type(got.value) is type(want.value)
    if "floats are not exact" in str(want.value):
        assert "floats are not exact" in str(got.value)


def test_non_int_counts_are_refused():
    # floats are refused by message; a Fraction m above n, which the
    # reference lets through its tail's min(m, n), is refused like every
    # non-int count
    args = (Fraction(2, 3), Fraction(1, 2), Fraction(1, 5), Fraction(3))
    with pytest.raises(TypeError, match="floats are not exact"):
        check_d1(*args, 2.0, 1)
    with pytest.raises(TypeError, match="must be ints"):
        check_d1(*args, 2, Fraction(5))
    # an integral Fraction shift is an int shift, as for the reference
    km = (3, (Fraction(1, 2), Fraction(1, 3)))
    assert check_karlsson_minton(*km, (Fraction(1), 0)) is True
    assert ref.check_karlsson_minton(*km, (Fraction(1), 0)) is True
    with pytest.raises(IdentityPreconditionError):
        check_karlsson_minton(3.0, *km[1:], (1, 0))


# ---------------------------------------------------------------------------
# The series kernel against its factor-by-factor reference
# ---------------------------------------------------------------------------


def _conjugates(order, nums):
    """The Galois conjugates of a numerator tuple other than itself."""
    return [tuple(cyclotomic._conjugate(order, nums, j)) for j in cyclotomic._CONJUGATES[order]]


def _series_draw(rng, order, shape, n_terms):
    """_sum's (ups, lows, z, e, weight) of one shape over Q(i) or Q(zeta_5),
    with rational parameters besides and a weight over denominators."""
    width = {4: 2, 5: 4}[order]

    def irrational():
        while True:
            nums = tuple(rng.randint(-9, 9) for _ in range(width))
            if any(nums[1:]):
                return nums, rng.choice((1, 2, 3))

    def rational(lower):
        num, den = rng.randint(-9, 9), rng.choice((1, 2, 3, 5))
        # a lower parameter stays off the nonpositive integers
        return (num * 5 + rng.randint(1, 4), 5) if lower and num % den == 0 else (num, den)

    ups = [rational(False) for _ in range(rng.randint(0, 2))]
    lows = [rational(True) for _ in range(rng.randint(0, 2))]
    z = rng.choice((-2, 1, 3)), rng.choice((1, 7))
    if shape == "irrational-z":
        z = irrational()
        ups += [irrational() for _ in range(rng.randint(0, 1))]
        lows += [irrational() for _ in range(rng.randint(0, 1))]
    elif shape in ("conjugates", "conjugates-plus-one"):
        # the full orbit; or, with one conjugate dropped at order 5, three
        # of the four conjugates plus one more factor, as in the thm2 chain
        for side in (ups, lows):
            nums, den = irrational()
            orbit = [nums, *_conjugates(order, nums)]
            if shape == "conjugates-plus-one":
                orbit = orbit[: 3 if order == 5 else 2] + [irrational()[0]]
            side += [(x, den) for x in orbit]
    elif shape == "rational-at-zero":
        # x + k and conj(x)/2 + k multiply to a rational value at k = 0 only
        for side in (ups, lows):
            nums, den = irrational()
            side += [(nums, den), (_conjugates(order, nums)[-1], 2 * den)]
    elif shape == "terminating":
        ups += [irrational(), (-rng.randint(0, max(n_terms - 1, 0)), 1)]
        lows += [irrational()]
    rng.shuffle(ups)
    rng.shuffle(lows)
    weight = (rng.randint(-5, 5), rng.choice((1, 2, 3))), (rng.randint(-5, 5), rng.choice((1, 7)))
    return ups, lows, z, rng.randint(0, 3), weight


_SHAPES = ("rational", "irrational-z", "conjugates", "conjugates-plus-one", "rational-at-zero", "terminating")


@pytest.mark.parametrize("order", [4, 5])
@pytest.mark.parametrize("n_terms", [0, 1, 2, 23, 24, 25, 60])
def test_sum_matches_the_factor_by_factor_reference(order, n_terms):
    # 24 steps fill one run: 25 terms end a run, and 60 merge three
    rng = random.Random(f"sum:{order}:{n_terms}")
    mul = _PRODUCT[order]
    kinds = set()
    for shape in _SHAPES:
        for _ in range(4):
            ups, lows, z, e, weight = _series_draw(rng, order, shape, n_terms)
            got = hyperkernel._sum(hyperkernel._horner_plan(ups, lows, z, e, weight, mul), n_terms)
            assert got == ref.factor_sum(ups, lows, n_terms, mul, z, e, weight), (shape, ups, lows, z)
            if shape in ("rational", "conjugates"):
                assert all(type(x) is int for x in got), (shape, got)
            kinds.add(tuple(type(x) for x in got))
    if n_terms > 2:
        assert (int, int) in kinds and (tuple, tuple) in kinds


class _Counting:
    """A tuple product that counts its calls."""

    def __init__(self, mul):
        self.mul, self.calls = mul, 0

    def __call__(self, u, v):
        self.calls += 1
        return self.mul(u, v)


def test_a_conjugate_well_poised_series_makes_no_field_product_per_step():
    # the thm1 chain's seven-slot series at p = 211, r = -7, where
    # d, e = a +- (3p/5) i, at two lengths
    p, r = 211, -7
    a = claims.FAMILIES["thm1"].series(r)[0]
    shift = Fraction(3 * p, 5) * CycElement.zeta(4)
    params = [a, Fraction(r + 5, 10), Fraction(r + 3 * p, 5), a + shift, a - shift]
    (a, *params), den, _ = hyperkernel._lift(params)
    calls = []
    for n in (30, 300):
        mul = _Counting(_PRODUCT[4])
        total, sum_den = hyperkernel._well_poised(a, params, n, den, mul)
        assert type(total) is int and type(sum_den) is int
        calls.append(mul.calls)
    assert calls[0] == calls[1]


def test_a_thm2_shaped_series_makes_three_field_products_per_step():
    # three of the four conjugates of x plus one more factor, above and
    # below, as in the thm2 chain's seven-slot series, over 99 steps
    x, y = (3, -1, 4, 1), (2, 7, 1, 8)
    orbit = [x, *_conjugates(5, x)][:3]
    ups = [(1, 3), (7, 6), *((u, 3) for u in orbit), (y, 3), (-99, 1)]
    lows = [(1, 6), *((u, 3) for u in _conjugates(5, y)[:3]), (x, 3), (301, 3)]

    def calls(n_terms):
        mul = _Counting(_PRODUCT[5])
        total, den = hyperkernel._sum(hyperkernel._horner_plan(ups, lows, mul=mul), n_terms)
        assert n_terms == 1 or type(total) is type(den) is tuple
        return mul.calls

    steps, runs = 99, 99 // hyperkernel._FOLD_MAX + 1
    # a merge of two runs makes at most four products
    assert calls(steps + 1) <= calls(1) + 3 * steps + 4 * (runs - 1)
