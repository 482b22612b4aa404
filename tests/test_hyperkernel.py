import math
from fractions import Fraction

import pytest

from conftest import (
    pair_d1_sides,
    pair_karlsson_minton_series,
    pair_whipple_series,
    pair_whipple_sides,
    rising_element,
)
from identity_reference import factor_sum, rising_product
from sclab import claims, hyperkernel
from sclab.cyclotomic import _PRODUCT, CycElement
from sclab.hyperkernel import (
    IdentityPreconditionError,
    PoleInRangeError,
    SeriesSpec,
    check_d1,
    check_karlsson_minton,
    check_whipple,
    conjugate_product_congruence,
    eval_truncated,
    eval_truncated_residue,
    fuzz_d1,
    fuzz_karlsson_minton,
    fuzz_whipple,
    hypergeometric_sum,
)
from sclab.padic import NonIntegralInputError, PadicContext, vp
from sclab.rationals import pochhammer, primes_in, rising

# Frozen by the direct-summation oracle below: the weighted fifth-power sum
# at p = 7, r = 1, whose 7-adic valuation is 4.
WEIGHTED_SUM_7_1 = Fraction(
    2923001004235212095582464, 2910383045673370361328125
)


def direct_weighted_sum(p, r):
    """Independent oracle: literal products, no incremental updates."""
    total = Fraction(0)
    for k in range(p):
        num = Fraction(1)
        for j in range(k):
            num *= Fraction(r, 5) + j
        total += (10 * k + r) * num ** 5 / Fraction(math.factorial(k)) ** 5
    return total


def test_single_term_series():
    spec = SeriesSpec(upper=(), lower=(), truncation=1, factorial_power=0)
    assert eval_truncated(spec) == 1


def test_terminating_two_one_series():
    # upper -2 terminates the sum; the three terms are 1 - 8/3 + 5/3 = 0
    value = hypergeometric_sum(
        upper=(Fraction(-2), Fraction(4)), lower=(Fraction(3),), n_terms=3
    )
    assert value == 0


def test_weighted_fifth_power_sum_frozen_value():
    assert direct_weighted_sum(7, 1) == WEIGHTED_SUM_7_1
    spec = SeriesSpec(
        upper=(Fraction(1, 5),) * 5,
        lower=(),
        truncation=7,
        weight=(Fraction(10), Fraction(1)),
        factorial_power=5,
    )
    assert eval_truncated(spec) == WEIGHTED_SUM_7_1
    assert vp(WEIGHTED_SUM_7_1, 7) >= 4


def test_weight_linearity(rng):
    for _ in range(40):
        upper = tuple(Fraction(rng.randint(1, 9), rng.choice([1, 2, 3])) for _ in range(3))
        n = rng.randint(1, 8)
        m, r = rng.randint(-4, 4), rng.randint(-4, 4)
        build = lambda w: SeriesSpec(
            upper=upper, lower=(), truncation=n, weight=w, factorial_power=3
        )
        combined = eval_truncated(build((Fraction(m), Fraction(r))))
        slope = eval_truncated(build((Fraction(1), Fraction(0))))
        const = eval_truncated(build((Fraction(0), Fraction(1))))
        assert combined == m * slope + r * const


def test_termination_extension():
    # an upper parameter -n makes every term beyond k = n vanish
    short = hypergeometric_sum(
        upper=(Fraction(-3), Fraction(1, 2)), lower=(Fraction(1, 3),), n_terms=4
    )
    long = hypergeometric_sum(
        upper=(Fraction(-3), Fraction(1, 2)), lower=(Fraction(1, 3),), n_terms=9
    )
    assert short == long


def test_pole_detection():
    spec = SeriesSpec(
        upper=(Fraction(1),), lower=(Fraction(-2),), truncation=5
    )
    with pytest.raises(PoleInRangeError):
        eval_truncated(spec)


def test_whipple_trivial_n_zero():
    assert check_whipple(
        Fraction(1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(2), Fraction(3), 0
    )


def test_whipple_quadratic_field_instances():
    # the fifth-power claim's parameter choice over Q(i) at (p, r) = (7, 1)
    # and (13, -1)
    i = CycElement.zeta(4)
    for p, r in [(7, 1), (13, -1)]:
        a = Fraction(r, 5)
        d = CycElement.from_rational(4, a) + CycElement.from_rational(4, Fraction(3 * p, 5)) * i
        e = CycElement.from_rational(4, a) - CycElement.from_rational(4, Fraction(3 * p, 5)) * i
        n = (3 * p - r) // 5
        assert check_whipple(
            a, Fraction(r + 5, 10), Fraction(r + 3 * p, 5), d, e, n
        )


def test_whipple_fuzz():
    result = fuzz_whipple(trials=30, seed=7)
    assert result.passed, result.failures


def test_karlsson_minton_example():
    assert check_karlsson_minton(2, [Fraction(3)], [1])


def test_karlsson_minton_instances_from_the_chain():
    # the fifth-power chain's last step: at d, e = a +- p/5 Whipple's
    # four-slot series is the integrally shifted one, and it vanishes
    for p, r in [(7, 1), (13, -1), (19, -3), (211, -7)]:
        n = (3 * p - r) // 5
        a, b, c = Fraction(r, 5), Fraction(r + 5, 10), Fraction(r + 3 * p, 5)
        bs = [Fraction(2 * r - 3 * p, 5), Fraction(r + 5, 10), Fraction(5 - 3 * p, 5)]
        assert bs == [a - n, 1 + a - b, 1 + a - c]
        ms = [(1 - r) // 2, (2 * p + r - 5) // 10, (2 * p + r - 5) // 5]
        assert sum(ms) < n
        assert check_karlsson_minton(n, bs, ms)
        shift = Fraction(p, 5)
        whipple = pair_whipple_series(a, b, c, a + shift, a - shift, n)
        assert pair_karlsson_minton_series(n, bs, ms) == whipple == 0


def test_karlsson_minton_guard():
    with pytest.raises(IdentityPreconditionError):
        check_karlsson_minton(1, [Fraction(5)], [3])
    with pytest.raises(IdentityPreconditionError):
        check_karlsson_minton(3, [Fraction(5)], [-1])


def test_karlsson_minton_fuzz():
    result = fuzz_karlsson_minton(trials=30, seed=11)
    assert result.passed, result.failures


def test_d1_trivial_n_zero():
    assert check_d1(Fraction(2, 3), Fraction(1, 2), Fraction(1, 5), Fraction(3), 0, 0)


def test_d1_quintic_field_instances():
    # the sixth-power claim's parameter choice over Q(zeta_5); note that
    # (11, -1) is rejected because (2p - r)/3 is not an integer there
    z = CycElement.zeta(5)
    for p, r in [(5, 1), (13, -1)]:
        scale = CycElement.from_rational(5, Fraction(2 * p, 3))
        assert check_d1(
            Fraction(r, 3),
            scale * z,
            scale * z ** 2,
            scale * z ** 3,
            (2 * p - r) // 3,
            1 - r,
        )


def test_d1_fuzz():
    result = fuzz_d1(trials=30, seed=3)
    assert result.passed, result.failures


def test_identity_sides_take_int_parameters():
    # int parameters are lifted as Fractions are; the sides must still be exact
    # and equal to the sides built from the same values as Fractions
    cases = [
        (pair_whipple_sides, (7, 2, 3, 5, 13), (3,)),
        (pair_whipple_sides, (11, 3, 5, 7, Fraction(2, 3)), (3,)),
        (pair_d1_sides, (1, 2, 3, 5), (2, 1)),
        (pair_d1_sides, (11, 2, 3, 5), (2, 2)),
    ]
    for build, params, counts in cases:
        got = build(*params, *counts)
        assert got == build(*map(Fraction, params), *counts)
        if build is pair_d1_sides:
            # the tail's lower parameters are sums of the parameters as given
            lhs, lows, uppers, lower, linear, tail = got
            assert all(type(x) in (int, Fraction) for x in lows)
            got = (lhs, *uppers, lower, linear, tail)
        assert all(isinstance(value, Fraction) for value in got)
    km = pair_karlsson_minton_series
    assert km(4, (5, 2), (1, 2)) == km(4, (Fraction(5), Fraction(2)), (1, 2)) == 0
    assert check_whipple(7, 2, 3, 5, 13, 3)
    assert check_d1(11, 2, 3, 5, 2, 2)
    # 1 + a - b is the int -1 here, a pole inside the four-slot series
    with pytest.raises(PoleInRangeError, match="lower parameter -1 "):
        check_whipple(3, 5, 7, 7, 11, 2)


def test_fuzzers_are_deterministic():
    a = fuzz_whipple(trials=12, seed=99)
    b = fuzz_whipple(trials=12, seed=99)
    assert a.failures == b.failures == []


def test_conjugate_product_examples():
    assert conjugate_product_congruence(Fraction(1, 5), Fraction(3, 5), 7, 2, 4)
    assert conjugate_product_congruence(Fraction(1, 3), Fraction(2, 3), 5, 3, 5)
    # b = 0 collapses to exact equality
    assert conjugate_product_congruence(Fraction(2, 7), Fraction(0), 5, 4, 4)
    assert conjugate_product_congruence(Fraction(2, 7), Fraction(0), 5, 4, 5)


def test_conjugate_product_refuses_non_prime():
    # v_p at p = 4 would count factors of 4 and let this instance pass
    with pytest.raises(ValueError, match="4 is not prime"):
        conjugate_product_congruence(1, 1, 4, 2, 4)


def test_conjugate_product_rejects_non_padic():
    with pytest.raises(NonIntegralInputError):
        conjugate_product_congruence(Fraction(1, 7), Fraction(1), 7, 2, 4)
    with pytest.raises(NonIntegralInputError):
        conjugate_product_congruence(Fraction(1), Fraction(3, 14), 7, 2, 5)


def test_series_with_field_argument():
    # the argument slot accepts field scalars, not just rationals
    i = CycElement.zeta(4)
    spec = SeriesSpec(
        upper=(Fraction(1, 2), Fraction(2)),
        lower=(Fraction(3),),
        argument=i,
        truncation=3,
    )
    value = eval_truncated(spec)
    by_hand = (
        CycElement.one(4)
        + Fraction(1, 2) * Fraction(2) / Fraction(3) * i
        + pochhammer(Fraction(1, 2), 2) * pochhammer(Fraction(2), 2)
        / (Fraction(2) * pochhammer(Fraction(3), 2))
        * (i * i)
    )
    assert value == by_hand


def test_rising_generic_matches_rational():
    # a rational numerator tuple folds to the rational rising factorial
    value = rising_element(CycElement.from_rational(5, Fraction(1, 2)), 4)
    assert value.is_rational
    assert value.rational_value() == pochhammer(Fraction(1, 2), 4)
    assert rising(CycElement.zeta(5).nums, 1, 0, _PRODUCT[5]) == 1


def test_fuzz_failures_are_the_drawn_arguments(monkeypatch):
    # every check is made to fail after it runs, so poles still resample
    # and each trial records its draw; the first draws at seed 0 are frozen
    for name in ("check_whipple", "check_karlsson_minton", "check_d1"):
        check = getattr(hyperkernel, name)
        monkeypatch.setattr(hyperkernel, name, lambda *args, _check=check: _check(*args) and False)
    F = Fraction
    whipple = fuzz_whipple(trials=4, seed=0).failures
    assert whipple[0] == (F(-5, 3), F(-1, 7), F(0), F(-5, 2), F(7, 2), 1)
    km = fuzz_karlsson_minton(trials=4, seed=0).failures
    assert km[:2] == [(3, (F(1, 2),), (1,)), (5, (F(4, 5), F(8, 3), F(-1, 2)), (0, 0, 2))]
    d1 = fuzz_d1(trials=4, seed=0).failures
    assert d1[0] == (F(-5, 3), F(-1, 7), F(0), F(-5, 2), 6, 5)
    assert len(whipple) == len(km) == len(d1) == 4


# References built from the hand-written parameter lists the sides were
# first written with; the builders must give the same values.


def _whipple_sides_by_hand(a, b, c, d, e, n):
    half = Fraction(1, 2)
    lhs = hypergeometric_sum(
        upper=(a, 1 + half * a, b, c, d, e, Fraction(-n)),
        lower=(half * a, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a + n),
        n_terms=n + 1,
    )
    prefactor = (
        rising_product(a + 1, n) * rising_product(a - d - e + 1, n)
        / (rising_product(1 + a - d, n) * rising_product(1 + a - e, n))
    )
    series = hypergeometric_sum(
        upper=(1 + a - b - c, d, e, Fraction(-n)),
        lower=(d + e - a - n, 1 + a - b, 1 + a - c),
        n_terms=n + 1,
    )
    return lhs, prefactor, series


def _d1_sides_by_hand(t, a, b, c, n, m):
    half = Fraction(1, 2)
    lhs = hypergeometric_sum(
        upper=(t, 1 + half * t, Fraction(-n), t - a, t - b, t - c, 1 - t - m + n + a + b + c),
        lower=(half * t, 1 + t + n, 1 + a, 1 + b, 1 + c, 2 * t + m - n - a - b - c),
        n_terms=n + 1,
    )
    lows = (a + b + 1 - m - t, a + c + 1 - m - t, b + c + 1 - m - t)
    uppers = (
        rising_product(1 + t, n),
        rising_product(a + b + 2 - m - t, n),
        rising_product(a + c + 2 - m - t, n),
        rising_product(b + c + 2 - m - t, n),
    )
    lower = (
        rising_product(1 + a, n)
        * rising_product(1 + b, n)
        * rising_product(1 + c, n)
        * rising_product(a + b + c + 1 - m - 2 * t, n)
    )
    if lower == 0:
        raise ZeroDivisionError("the ratio's lower rising factorials vanish")
    linear = (
        (a + b + 1 - m - t) * (a + c + 1 - m - t) * (b + c + 1 - m - t)
        / ((a + b + n + 1 - m - t) * (a + c + n + 1 - m - t) * (b + c + n + 1 - m - t))
    )
    tail = hypergeometric_sum(
        upper=(Fraction(-m), Fraction(-n), a + b + c + 1 - m - 2 * t, a + b + c + 1 + n - m - t),
        lower=(a + b + 1 - m - t, a + c + 1 - m - t, b + c + 1 - m - t),
        n_terms=min(m, n) + 1,
    )
    return lhs, lows, uppers, lower, linear, tail


def _assert_same_sides(built, by_hand, args):
    try:
        expected = by_hand(*args)
    except (PoleInRangeError, ZeroDivisionError):
        with pytest.raises((PoleInRangeError, ZeroDivisionError)):
            built(*args)
        return False
    assert built(*args) == expected, args
    return True


def test_identity_sides_match_hand_written_lists_on_rational_draws(rng):
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))

    evaluated = 0
    for _ in range(150):
        whipple_args = (q(), q(), q(), q(), q(), rng.randint(0, 6))
        evaluated += _assert_same_sides(
            pair_whipple_sides, _whipple_sides_by_hand, whipple_args
        )
        d1_args = (q(), q(), q(), q(), rng.randint(0, 6), rng.randint(0, 6))
        evaluated += _assert_same_sides(pair_d1_sides, _d1_sides_by_hand, d1_args)
    assert evaluated > 200  # most draws meet no pole


def test_identity_sides_match_hand_written_lists_at_chain_instances():
    z = CycElement.zeta(5)
    for p, r in [(5, 1), (13, -1), (199, -4), (401, 1)]:
        scale = Fraction(2 * p, 3)
        n = (2 * p - r) // 3
        args = (Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3, n, 1 - r)
        assert _assert_same_sides(pair_d1_sides, _d1_sides_by_hand, args)
    i = CycElement.zeta(4)
    for p, r in [(7, 1), (13, -1), (211, -7)]:
        n = (3 * p - r) // 5
        a, b, c = Fraction(r, 5), Fraction(r + 5, 10), Fraction(r + 3 * p, 5)
        shift = Fraction(3 * p, 5) * i
        args = (a, b, c, a + shift, a - shift, n)
        assert _assert_same_sides(pair_whipple_sides, _whipple_sides_by_hand, args)


def test_fuzz_d1_draws_a_fixed_sequence(monkeypatch):
    # every draw reaches the check, also those resampled after a pole
    drawn = []
    check = hyperkernel.check_d1

    def recording_check(*args):
        drawn.append(args)
        return check(*args)

    monkeypatch.setattr(hyperkernel, "check_d1", recording_check)
    assert fuzz_d1(trials=3, seed=1).passed
    F = Fraction
    assert drawn == [
        (F(5, 3), F(3, 7), F(8, 5), F(-1), 4, 1),
        (F(-3, 5), F(-1), F(4, 3), F(3, 7), 4, 3),
        (F(5, 3), F(-1), F(0), F(-7), 2, 0),
        (F(-8, 5), F(-6, 5), F(1), F(-1, 3), 6, 6),
        (F(2), F(-8, 7), F(-3), F(-1), 4, 6),
        (F(-2, 3), F(-1, 2), F(0), F(-1), 2, 1),
        (F(-5), F(-2), F(7), F(1, 7), 3, 3),
        (F(1), F(5, 3), F(-3, 5), F(2, 7), 5, 4),
        (F(-5, 3), F(-1), F(6, 7), F(-7), 2, 2),
        (F(-7, 3), F(8, 7), F(-3), F(-6, 5), 4, 2),
        (F(3, 7), F(8, 7), F(-2), F(1, 2), 1, 5),
    ]
    drawn.clear()
    assert fuzz_d1(trials=200, seed=308520).passed
    assert len(drawn) == 326


def _random_residue_spec(rng, p):
    """A rational spec with lower parameters and an argument that is not 1:
    sometimes a multiple of p, sometimes with a unit denominator; upper
    parameters are sometimes nonpositive integers, so the sum terminates."""

    def unit_rational(bound):
        while True:
            den = rng.randint(1, bound)
            if den % p:
                return Fraction(rng.randint(-bound, bound), den)

    upper = tuple(
        Fraction(-rng.randint(0, 3)) if rng.random() < 0.2 else unit_rational(12)
        for _ in range(rng.randint(0, 3))
    )
    lower = tuple(unit_rational(12) for _ in range(rng.randint(1, 3)))
    argument = p * unit_rational(6) if rng.random() < 0.5 else unit_rational(6)
    return SeriesSpec(
        upper=upper,
        lower=lower,
        argument=argument,
        truncation=rng.randint(0, p),
        weight=(unit_rational(9), unit_rational(9)),
        factorial_power=rng.randint(0, 3),
    )


def test_eval_truncated_residue_matches_exact_on_random_specs(rng):
    checked = 0
    for _ in range(400):
        p = rng.choice([3, 5, 7, 11, 13])
        ctx = PadicContext(p, rng.randint(1, 6))
        spec = _random_residue_spec(rng, p)
        try:
            exact = eval_truncated(spec)
        except PoleInRangeError:
            with pytest.raises(PoleInRangeError):
                eval_truncated_residue(spec, ctx)
            continue
        try:
            residue = eval_truncated_residue(spec, ctx)
        except NonIntegralInputError:
            continue  # a ratio denominator in range is divisible by p
        assert residue == ctx.reduce(exact)
        checked += 1
    assert checked >= 200


def test_eval_truncated_residue_stops_at_a_terminating_parameter():
    # the upper -2 ends the sum before k + 1 reaches p = 3, so the later
    # denominators that p divides are never needed
    spec = SeriesSpec(
        upper=(Fraction(-2), Fraction(1, 2)), lower=(Fraction(1, 4),), truncation=9
    )
    ctx = PadicContext(3, 4)
    assert eval_truncated_residue(spec, ctx) == ctx.reduce(eval_truncated(spec))


def test_eval_truncated_residue_rejects_non_unit_denominator():
    # the thm1 shape (r/5)_k^5 at p = 5: 5 divides every parameter's denominator
    spec = SeriesSpec(
        upper=(Fraction(1, 5),) * 5,
        lower=(),
        truncation=5,
        weight=(Fraction(10), Fraction(1)),
        factorial_power=5,
    )
    with pytest.raises(NonIntegralInputError):
        eval_truncated_residue(spec, PadicContext(5, 7))
    # a weight with p in its denominator
    spec = SeriesSpec(upper=(), lower=(), truncation=2, weight=(Fraction(0), Fraction(1, 7)))
    with pytest.raises(NonIntegralInputError):
        eval_truncated_residue(spec, PadicContext(7, 2))


def test_eval_truncated_residue_rejects_field_coefficients():
    spec = SeriesSpec(
        upper=(Fraction(1, 2),), lower=(Fraction(3),), argument=CycElement.zeta(4), truncation=3
    )
    with pytest.raises(TypeError):
        eval_truncated_residue(spec, PadicContext(5, 3))


def _residue_draw(rng, p):
    """(ups, lows, n_terms, z, e, weight) of rational pairs with p-adic unit
    denominators, with a repeated upper pair, a terminating upper, a zero z
    numerator or weight slope, and a lower parameter that vanishes one step
    past the range drawn often enough to be counted."""
    dens = [d for d in (1, 2, 3, 4, 5, 7, 9) if d % p]

    def pair(bound=12):
        return rng.randint(-bound, bound), rng.choice(dens)

    n_terms = rng.randint(0, 2) if rng.random() < 0.25 else rng.randint(3, 3 * p)
    ups = [pair() for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.4:
        ups += [pair()] * rng.randint(2, 6)
    if rng.random() < 0.3:
        ups.append((-rng.choice((0, n_terms // 2)), 1))
    rng.shuffle(ups)
    lows = [pair() for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.2:
        d = rng.choice(dens)
        lows.append((-(n_terms - 1) * d, d))
    z = 0 if rng.random() < 0.15 else rng.choice((-3, -1, 1, 2)), rng.choice(dens)
    weight = (0 if rng.random() < 0.3 else rng.randint(-5, 5), rng.choice(dens)), pair(5)
    return ups, lows, n_terms, z, rng.randint(0, 6), weight


def test_residue_sum_matches_the_factor_by_factor_reference(rng):
    # both routes on one _horner_plan, formed apart from the length:
    # _residue_sum's pair mod p^K and _sum's exact pair against factor_sum's,
    # which shares no code with the plan, backward Horner or its factor
    # streams.  A pole in range raises the same message on both routes
    seen = dict.fromkeys(("repeated", "stops", "zero-z", "zero-slope", "short", "edge-pole"), 0)
    checked = 0
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11, 13))
        modulus = p ** rng.randint(1, 6)
        ups, lows, n_terms, z, e, weight = args = _residue_draw(rng, p)
        plan = hyperkernel._horner_plan(ups, lows, z, e, weight, tally=True)
        try:
            total, den = hyperkernel._residue_sum(plan, n_terms, modulus)
        except PoleInRangeError as exc:
            with pytest.raises(PoleInRangeError) as exact:
                hyperkernel._sum(plan, n_terms)
            assert str(exact.value) == str(exc)
            continue
        want = factor_sum(ups, lows, n_terms, None, z, e, weight)
        assert hyperkernel._sum(plan, n_terms) == want, args
        assert (total - want[0]) % modulus == 0 and (den - want[1]) % modulus == 0, args
        checked += 1
        seen["repeated"] += len(set(ups)) < len(ups)
        seen["stops"] += any(an <= 0 and not an % ad and -an // ad < n_terms - 1 for an, ad in ups)
        seen["zero-z"] += z[0] == 0 and n_terms > 1
        seen["zero-slope"] += weight[0][0] == 0 and n_terms > 1
        seen["short"] += n_terms < 3
        seen["edge-pole"] += any(bn == -(n_terms - 1) * bd for bn, bd in lows) and n_terms > 1
    assert checked >= 200
    assert min(seen.values()) >= 20, seen


def test_lhs_residue_matches_the_exact_value_at_every_default_r():
    for fam in claims.FAMILIES.values():
        for r in fam.default_r_values:
            for p in primes_in(5, 150):
                if claims.admissible(fam.id, p, r):
                    ctx = PadicContext(p, fam.modulus_exponent + claims.LHS_GUARD_DIGITS)
                    want = ctx.reduce(claims.lhs_value(fam.id, p, r))
                    assert claims.lhs_residue(fam.id, p, r, ctx) == want, (fam.id, p, r)


def test_eval_truncated_residue_pole_detection():
    spec = SeriesSpec(upper=(Fraction(1),), lower=(Fraction(-2),), truncation=5)
    with pytest.raises(PoleInRangeError):
        eval_truncated_residue(spec, PadicContext(7, 2))
    # the pole at shift 2 lies outside a three-term sum, as for eval_truncated
    spec = SeriesSpec(upper=(Fraction(1),), lower=(Fraction(-2),), truncation=3)
    ctx = PadicContext(7, 2)
    assert eval_truncated_residue(spec, ctx) == ctx.reduce(eval_truncated(spec))


def _step_sum(spec):
    """Reference: the term updated one factor at a time, with one division
    per step, in the parameters' own domain (Q, Q(i) or Q(zeta_5))."""
    for b in spec.lower:
        for t in range(spec.truncation - 1):
            if b + t == 0:
                raise PoleInRangeError(f"lower parameter {b!r} vanishes at shift {t}")
    total, term = Fraction(0), Fraction(1)
    for k in range(spec.truncation):
        total = total + (spec.weight[0] * k + spec.weight[1]) * term
        if k + 1 == spec.truncation:
            break
        num = spec.argument
        for a in spec.upper:
            num = num * (a + k)
        den = Fraction(k + 1) ** spec.factorial_power
        for b in spec.lower:
            den = den * (b + k)
        term = term * num / den
    return total


def test_eval_truncated_rational_route_matches_fraction_steps(rng):
    checked = 0
    for _ in range(400):
        spec = _random_residue_spec(rng, rng.choice([3, 5, 7, 11, 13]))
        try:
            want = _step_sum(spec)
        except PoleInRangeError:
            with pytest.raises(PoleInRangeError):
                eval_truncated(spec)
            continue
        got = eval_truncated(spec)
        assert type(got) is Fraction and got == want
        # over Q(zeta_1) every value is rational, so the same spec runs on
        # Fractions and comes back as a CycElement
        field = SeriesSpec(
            upper=tuple(CycElement.from_rational(1, a) for a in spec.upper),
            lower=spec.lower,
            argument=CycElement.from_rational(1, spec.argument),
            truncation=spec.truncation,
            weight=spec.weight,
            factorial_power=spec.factorial_power,
        )
        assert eval_truncated(field).rational_value() == want
        checked += 1
    assert checked >= 300


def _random_field_spec(rng, order):
    """A spec over Q(i) or Q(zeta_5) with an irrational argument and at
    least one irrational upper and lower parameter; the other parameters
    are rational, and a rational lower one is sometimes a pole."""
    degree = {4: 2, 5: 4}[order]

    def irrational():
        while True:
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree)]
            value = CycElement(order, coeffs)
            if not value.is_rational:
                return value

    def rational(lower):
        if lower and rng.random() < 0.25:
            return Fraction(-rng.randint(0, 4))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def slots(lower):
        values = [irrational()] + [
            irrational() if rng.random() < 0.5 else rational(lower)
            for _ in range(rng.randint(0, 2))
        ]
        rng.shuffle(values)
        return tuple(values)

    return SeriesSpec(
        upper=slots(False),
        lower=slots(True),
        argument=irrational(),
        truncation=rng.randint(0, 7),
        weight=(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
        factorial_power=rng.randint(0, 2),
    )


def test_eval_truncated_field_route_matches_field_steps(rng):
    checked = poles = 0
    for _ in range(400):
        order = rng.choice([4, 5])
        spec = _random_field_spec(rng, order)
        try:
            want = _step_sum(spec)
        except PoleInRangeError:
            with pytest.raises(PoleInRangeError):
                eval_truncated(spec)
            poles += 1
            continue
        got = eval_truncated(spec)
        assert isinstance(got, CycElement) and got.order == order
        assert got == want
        checked += 1
    assert checked >= 300 and poles


_I = CycElement.zeta(4)
_Z = CycElement.zeta(5)


@pytest.mark.parametrize(
    "spec",
    [
        # the upper -3 ends the series after four terms of the nine
        SeriesSpec(
            upper=(Fraction(1, 2) + _Z, -3, _Z ** 2 / 3),
            lower=(Fraction(2, 5) - _Z ** 3, Fraction(7, 2)),
            argument=_Z + 1,
            truncation=9,
        ),
        # no k! in the denominator
        SeriesSpec(
            upper=(_I + 2, Fraction(1, 3)),
            lower=(Fraction(5, 2) - _I,),
            argument=Fraction(1, 2) * _I,
            truncation=7,
            factorial_power=0,
        ),
        # a weight over denominators 3 and 5, with an irrational argument
        SeriesSpec(
            upper=(_Z - Fraction(1, 4), _Z ** 4),
            lower=(Fraction(2, 3) * _Z ** 2 + 1,),
            argument=_Z ** 3 * Fraction(3, 2),
            truncation=6,
            weight=(Fraction(2, 3), Fraction(-4, 5)),
            factorial_power=2,
        ),
    ],
    ids=["terminating", "no-factorial", "weight-denominators"],
)
def test_field_series_routes_match_field_steps(spec):
    got = eval_truncated(spec)
    assert isinstance(got, CycElement) and got == _step_sum(spec)
    assert got.den > 0 and math.gcd(got.den, *got.nums) == 1


def test_conjugate_pairs_run_on_ints():
    # each irrational value has its conjugate beside it, so every step's
    # numerator and denominator are rational and the sum runs on ints
    u, v = Fraction(1, 3) + 2 * _I, Fraction(3, 4) + _I / 5
    spec = SeriesSpec(
        upper=(u, u - 4 * _I, Fraction(-1, 2)),
        lower=(v, v - 2 * _I / 5),
        argument=Fraction(-2, 7),
        truncation=12,
        weight=(Fraction(3), Fraction(1, 2)),
    )
    total, den = hyperkernel._sum(hyperkernel._spec_plan(spec), spec.truncation)
    assert type(total) is int and type(den) is int
    got = eval_truncated(spec)
    assert isinstance(got, CycElement) and got.is_rational
    assert got == _step_sum(spec)


def test_rational_valued_field_lower_parameter_is_a_pole():
    spec = SeriesSpec(
        upper=(CycElement.zeta(4),), lower=(CycElement.from_rational(4, -2),), truncation=5
    )
    with pytest.raises(PoleInRangeError):
        eval_truncated(spec)


def test_rational_valued_field_spec_returns_a_field_element():
    rational = SeriesSpec(
        upper=(Fraction(1, 2), Fraction(2)),
        lower=(Fraction(3),),
        argument=Fraction(-1, 3),
        truncation=6,
        weight=(Fraction(2), Fraction(1)),
    )
    field = SeriesSpec(
        upper=(CycElement.from_rational(5, Fraction(1, 2)), Fraction(2)),
        lower=(CycElement.from_rational(5, 3),),
        argument=CycElement.from_rational(5, Fraction(-1, 3)),
        truncation=6,
        weight=(Fraction(2), Fraction(1)),
    )
    value = eval_truncated(field)
    assert isinstance(value, CycElement) and value.order == 5
    assert value == eval_truncated(rational)


def test_mixed_cyclotomic_orders_are_refused():
    spec = SeriesSpec(
        upper=(CycElement.zeta(4),), lower=(), argument=CycElement.zeta(5), truncation=3
    )
    with pytest.raises(ValueError):
        eval_truncated(spec)
    spec = SeriesSpec(
        upper=(CycElement.from_rational(4, 1),), lower=(CycElement.from_rational(5, 2),)
    )
    with pytest.raises(ValueError):
        eval_truncated(spec)


def test_sum_int_and_field_branches_agree_on_int_pairs(rng):
    # rational field elements are split to ints before _sum, so no series
    # reaches the field branch with only int factors; feed it some here
    def pair(dens=(1, 2, 3, 5)):
        return rng.randint(-9, 9), rng.choice(dens)

    def integer(d):
        return -rng.randint(0, 8) * d, d

    poles = stops = long = 0
    for trial in range(800):
        # the last 200 draws run across the cutoff, through the merged runs
        n_terms = rng.randint(0, 8) if trial < 600 else rng.randint(hyperkernel._FOLD_MAX - 1, 60)
        e = rng.randint(0, 3)
        ups = [pair() for _ in range(rng.randint(0, 3))]
        lows = [pair() for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            ups.append(integer(rng.choice((1, 2, 3, 5))))
        if rng.random() < 0.3:
            lows.append(integer(rng.choice((1, 2, 3, 5))))
        rng.shuffle(ups)
        rng.shuffle(lows)
        z = rng.choice([-9, -5, -1, 1, 2, 7]), rng.choice((1, 2, 3, 5))
        weight = pair((2, 3, 5)), pair((2, 3, 5))
        plain = hyperkernel._horner_plan(ups, lows, z, e, weight)
        field = hyperkernel._horner_plan(ups, lows, z, e, weight, hyperkernel._PRODUCT[5])
        try:
            want = hyperkernel._sum(plain, n_terms)
        except PoleInRangeError as exc:
            with pytest.raises(PoleInRangeError) as got:
                hyperkernel._sum(field, n_terms)
            assert str(got.value) == str(exc)
            poles += 1
            continue
        assert hyperkernel._sum(field, n_terms) == want
        stops += any(an <= 0 and not an % ad and -an // ad < n_terms - 1 for an, ad in ups)
        long += n_terms > hyperkernel._FOLD_MAX
    assert poles >= 20 and stops >= 20 and long >= 60


_CUT = hyperkernel._FOLD_MAX
_LONG = (_CUT - 1, _CUT, _CUT + 1, _CUT + 2, 2 * _CUT, 2 * _CUT + 1, 60, 3 * _CUT + 5, 100)


def _long_spec(rng, order, truncation):
    """A spec for truncations across the run cutoff: one to three uppers and
    one or two lowers, few enough that the step-by-step reference stays
    cheap, over Q (order 1), Q(i) or Q(zeta_5), with a non-integral weight,
    an argument != 1 and a factorial power from 0 to 6."""
    def value():
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(max(order - 1, 1))]
        return coeffs[0] if order == 1 else CycElement(order, coeffs)

    return SeriesSpec(
        upper=tuple(value() for _ in range(rng.randint(1, 3))),
        # + 1/5 keeps a lower parameter off the nonpositive integers
        lower=tuple(value() + Fraction(1, 5) for _ in range(rng.randint(1, 2))),
        argument=rng.choice((Fraction(-2, 3), Fraction(5, 7))) * (1 if order == 1 else CycElement.zeta(order)),
        truncation=truncation,
        weight=(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 7)),
        factorial_power=rng.randint(0, 6),
    )


@pytest.mark.parametrize("order", [1, 4, 5])
def test_split_sum_matches_step_sum_across_the_cutoff(rng, order):
    for truncation in _LONG:
        spec = _long_spec(rng, order, truncation)
        assert eval_truncated(spec) == _step_sum(spec), spec


@pytest.mark.parametrize("order", [1, 4, 5])
def test_split_sum_stops_at_a_zero_term_across_the_cutoff(rng, order):
    # -m ends the sum after m + 1 terms: just inside a run, at a run's end
    # and just after one, so the last run is empty or holds one step
    for m in (_CUT - 2, _CUT - 1, _CUT, _CUT + 1, 40, 2 * _CUT - 1, 2 * _CUT, 2 * _CUT + 2):
        spec = _long_spec(rng, order, 3 * _CUT + 5)
        spec = spec._replace(upper=(*spec.upper, Fraction(-m)))
        assert eval_truncated(spec) == _step_sum(spec), (m, spec)


@pytest.mark.parametrize("truncation", [_CUT + 1, 2 * _CUT + 1, 60])
def test_split_sum_pole_at_the_edge_of_the_range(rng, truncation):
    # the last step forms b + truncation - 2: a lower -(truncation - 1) stays
    # outside the range, and -(truncation - 2) is a pole
    spec = _long_spec(rng, 5, truncation)
    outside = spec._replace(lower=(*spec.lower, Fraction(-(truncation - 1))))
    assert eval_truncated(outside) == _step_sum(outside)
    with pytest.raises(PoleInRangeError):
        eval_truncated(spec._replace(lower=(*spec.lower, Fraction(-(truncation - 2)))))
