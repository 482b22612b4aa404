from fractions import Fraction

import pytest

from sclab.padic import NonIntegralInputError, PadicContext, vp
from sclab.pgamma import (
    OddPrimeRequiredError,
    SpanHitsMultipleOfPError,
    _block_product,
    _doubling_table,
    _gamma_at_integer,
    _unit_range_product,
    ap,
    gamma_p,
    gamma_p_int,
    pochhammer_residue_direct,
    pochhammer_residue_via_gamma,
)

from conftest import random_padic_rational

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_ap_examples():
    assert ap(2, 5) == 2
    assert ap(0, 5) == 5
    assert ap(Fraction(1, 4), 7) == 2


def test_ap_refuses_non_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        ap(Fraction(1, 2), 4)


def test_ap_rejects_non_padic():
    with pytest.raises(NonIntegralInputError):
        ap(Fraction(1, 5), 5)


def test_gamma_at_zero_and_one():
    for p in (3, 5, 7, 13):
        for k in (1, 2, 3):
            ctx = PadicContext(p, k)
            assert gamma_p(0, ctx).value == 1
            assert gamma_p(1, ctx).value == ctx.modulus - 1


def test_gamma_small_integer():
    # (-1)^4 * (1*2*3) from the defining product
    assert gamma_p(4, PadicContext(5, 2)).value == 6


def test_gamma_quarter_mod_27():
    # representative of 1/4 mod 27 is 7; signed product over units below 7
    assert gamma_p(Fraction(1, 4), PadicContext(3, 3)).value == 14


def test_gamma_rejects_p_two():
    with pytest.raises(OddPrimeRequiredError):
        gamma_p(1, PadicContext(2, 3))


def test_gamma_rejects_non_padic():
    with pytest.raises(NonIntegralInputError):
        gamma_p(Fraction(1, 3), PadicContext(3, 2))


def _defining_gamma(m, p, modulus):
    sign = -1 if m % 2 else 1
    return sign * _unit_range_product(1, m, p, modulus) % modulus


def test_block_polynomial_route_matches_naive_exhaustively():
    # every m below 2 p^k for every p^k <= 2500; p = 3 and 5 are where
    # v(j!) grows fastest.  The defining product is accumulated one m at a
    # time, so the reference costs O(p^k) per modulus rather than O(p^2k).
    for p in (3, 5, 7, 11, 13):
        modulus = p
        while modulus <= 2500:
            units = 1
            for m in range(2 * modulus):
                if m:
                    units = units * _unit_range_product(
                        m - 1, m, p, modulus
                    ) % modulus
                sign = -1 if m % 2 else 1
                assert _gamma_at_integer(m, p, modulus) == sign * units % modulus, (
                    m, p, modulus,
                )
            modulus *= p


def test_block_polynomial_route_matches_naive_past_modulus(rng):
    # representatives m >= p^k, which gamma_p_int accepts
    for _ in range(80):
        p = rng.choice(SMALL_PRIMES[:6])
        modulus = p ** rng.randint(1, 4)
        m = rng.randrange(10 * modulus)
        assert _gamma_at_integer(m, p, modulus) == _defining_gamma(m, p, modulus)


def test_doubling_table_grows_in_any_call_order(rng):
    # from empty caches, values in shuffled order match the defining
    # product; representatives up to 8 p^k extend a table that a call below
    # p^k built, and the table holds exactly the levels some call needed
    for p, k in ((3, 5), (5, 5), (7, 4), (11, 3)):
        modulus = p ** k
        _gamma_at_integer.cache_clear()
        _doubling_table.cache_clear()
        ms = [rng.randrange(modulus) for _ in range(8)]
        ms += [rng.randrange(modulus, 8 * modulus) for _ in range(8)]
        ms.append(8 * modulus - 1)
        rng.shuffle(ms)
        first_small = next(i for i, m in enumerate(ms) if m < modulus)
        ms.insert(0, ms.pop(first_small))
        depths = []
        for m in ms:
            assert _gamma_at_integer(m, p, modulus) == _defining_gamma(m, p, modulus), (
                m, p, modulus,
            )
            depths.append(len(_doubling_table(p, modulus)))
        assert depths == sorted(depths)
        assert depths[0] < depths[-1] == max((m // p).bit_length() for m in ms)


def test_doubling_table_levels_are_block_products(rng):
    # level s at t = offset is the product of the units in
    # [p offset, p (offset + 2^s)), for offsets past p^k too
    for p, k in ((3, 4), (5, 3), (7, 3), (11, 2)):
        modulus = p ** k
        _doubling_table.cache_clear()
        _block_product((1 << 6) - 1, p, modulus)
        table = _doubling_table(p, modulus)
        assert len(table) == 6
        for s, level in enumerate(table):
            for offset in (0, 1, rng.randrange(2, 5 * modulus)):
                value = sum(c * offset ** n for n, c in enumerate(level)) % modulus
                hi = p * (offset + (1 << s))
                assert value == _unit_range_product(p * offset, hi, p, modulus), (
                    s, offset, p, modulus,
                )


def test_reflection(rng):
    # gamma(x) * gamma(1 - x) = (-1)^(a_p(x))
    for _ in range(120):
        p = rng.choice(SMALL_PRIMES[:8])
        k = rng.randint(1, 4)
        ctx = PadicContext(p, k)
        x = random_padic_rational(rng, p)
        lhs = (gamma_p(x, ctx) * gamma_p(1 - x, ctx)).value
        rhs = (-1) ** ap(x, p) % ctx.modulus
        assert lhs == rhs


def test_translation(rng):
    # gamma(x+1)/gamma(x) is -x for unit x and -1 for x in pZ_p
    for _ in range(120):
        p = rng.choice(SMALL_PRIMES[:8])
        k = rng.randint(1, 3)
        ctx = PadicContext(p, k)
        x = random_padic_rational(rng, p)
        if rng.random() < 0.3:
            x = x * p  # exercise the positive-valuation branch
        ratio = gamma_p(x + 1, ctx) * gamma_p(x, ctx).inverse()
        if vp(x, p) == 0:
            assert ratio == ctx.reduce(-x)
        else:
            assert ratio.value == ctx.modulus - 1


def test_mod_p_continuity(rng):
    # x = y (mod p) forces gamma residues to agree mod p
    for _ in range(120):
        p = rng.choice(SMALL_PRIMES)
        ctx = PadicContext(p, 1)
        x = random_padic_rational(rng, p)
        y = x + p * rng.randint(1, 9)
        assert gamma_p(x, ctx) == gamma_p(y, ctx)


def test_representative_stability(rng):
    # representatives congruent mod p^k give values congruent mod p^k
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 3)
        ctx = PadicContext(p, k)
        m = rng.randrange(ctx.modulus)
        t = rng.randint(1, 5)
        assert gamma_p_int(m, ctx) == gamma_p_int(m + t * ctx.modulus, ctx)


def test_pochhammer_via_gamma_examples():
    # 15/8 mod 7: direct reduction gives 15 * 8^-1 = 1
    ctx = PadicContext(7, 1)
    res = pochhammer_residue_via_gamma(Fraction(1, 2), 3, ctx)
    assert res.value == 1
    assert res == pochhammer_residue_direct(Fraction(1, 2), 3, ctx)

    assert pochhammer_residue_via_gamma(1, 0, PadicContext(5, 3)).value == 1

    ctx2 = PadicContext(5, 2)
    assert pochhammer_residue_via_gamma(Fraction(1, 3), 2, ctx2) == ctx2.reduce(
        Fraction(4, 9)
    )


def test_pochhammer_via_gamma_precondition():
    # the span 1/3, 4/3 contains 5/3 only at j=... here 1/3 + 1 = 4/3 is fine,
    # but starting at 5/3 the very first factor is divisible by 5
    with pytest.raises(SpanHitsMultipleOfPError):
        pochhammer_residue_via_gamma(Fraction(5, 3), 2, PadicContext(5, 2))


def test_pochhammer_via_gamma_random(rng):
    for _ in range(120):
        p = rng.choice(SMALL_PRIMES[:8])
        k = rng.randint(1, 3)
        ctx = PadicContext(p, k)
        a = random_padic_rational(rng, p)
        n = rng.randint(0, 8)
        try:
            via_gamma = pochhammer_residue_via_gamma(a, n, ctx)
        except SpanHitsMultipleOfPError:
            continue
        assert via_gamma == pochhammer_residue_direct(a, n, ctx)


def test_pochhammer_via_gamma_refusal_names_the_first_hit(rng):
    # the j in the refusal is the first a + j in pZ_p, as a scan finds it
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES[:6])
        ctx = PadicContext(p, rng.randint(1, 3))
        a = random_padic_rational(rng, p)
        n = rng.randint(0, 2 * p)
        hits = [j for j in range(n) if vp(a + j, p) >= 1]
        if not hits:
            direct = pochhammer_residue_direct(a, n, ctx)
            assert pochhammer_residue_via_gamma(a, n, ctx) == direct
            continue
        with pytest.raises(SpanHitsMultipleOfPError) as exc:
            pochhammer_residue_via_gamma(a, n, ctx)
        assert str(exc.value).startswith(f"{a} + {hits[0]} is divisible by {p};")
