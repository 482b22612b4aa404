import math
from fractions import Fraction

import pytest

from sclab.hyperkernel import conjugate_product_congruence
from sclab.padic import (
    CongruenceCheck,
    NonIntegralInputError,
    PadicContext,
    Residue,
    congruent,
    vp,
)

from conftest import random_padic_rational


def test_vp_examples():
    assert vp(Fraction(50, 3), 5) == 2
    assert vp(Fraction(3, 25), 5) == -2
    assert vp(0, 7) == math.inf
    # a float, even an integral one, is not exact and is refused
    for x in (4.0, 0.5):
        with pytest.raises(TypeError):
            vp(x, 2)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(6, 2)
    with pytest.raises(ValueError):
        PadicContext(5, 0)
    ctx = PadicContext(5, 3)
    assert ctx.modulus == 125


def test_context_refuses_a_float_or_bool_p_or_k():
    # 5.0 once made a context with modulus 25.0, whose reduce failed in pow
    for p, k in ((5.0, 2), (5, 2.0), (True, 2), (5, True), (Fraction(5), 2)):
        with pytest.raises(TypeError, match="^p and k must be ints"):
            PadicContext(p, k)


def test_context_modulus_is_derived_not_passed():
    # the modulus is always p^k, so a passed one could only disagree with it
    with pytest.raises(TypeError):
        PadicContext(5, 2, 7)
    with pytest.raises(TypeError):
        PadicContext(5, 2, modulus=7)
    ctx = PadicContext(5, 2)
    assert repr(ctx) == "PadicContext(p=5, k=2, modulus=25)"
    assert ctx == PadicContext(5, 2) and hash(ctx) == hash(PadicContext(5, 2))
    assert ctx != PadicContext(5, 3)


def test_reduce_examples():
    assert PadicContext(5, 2).reduce(Fraction(1, 2)).value == 13
    assert PadicContext(7, 3).reduce(7).value == 7
    assert PadicContext(5, 1).reduce(Fraction(1, 3)).value == 2


def test_reduce_rejects_non_integral():
    with pytest.raises(NonIntegralInputError):
        PadicContext(5, 2).reduce(Fraction(1, 5))


def test_congruent_examples():
    assert congruent(26, 1, PadicContext(5, 2)) == CongruenceCheck(True, 2)
    assert congruent(26, 1, PadicContext(5, 3)) == CongruenceCheck(False, 2)
    check = congruent(Fraction(1, 2), 13, PadicContext(5, 2))
    assert check.holds and check.valuation >= 2
    assert bool(check)


def test_residue_range_check():
    ctx = PadicContext(3, 2)
    with pytest.raises(ValueError):
        Residue(9, ctx)
    with pytest.raises(ValueError):
        Residue(-1, ctx)


def test_residue_arithmetic_homomorphism(rng):
    # reduce is a ring homomorphism on p-adic integers
    for _ in range(150):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 4)
        ctx = PadicContext(p, k)
        x = random_padic_rational(rng, p)
        y = random_padic_rational(rng, p)
        assert ctx.reduce(x * y) == ctx.reduce(x) * ctx.reduce(y)
        assert ctx.reduce(x + y) == ctx.reduce(x) + ctx.reduce(y)
        assert ctx.reduce(x - y) == ctx.reduce(x) - ctx.reduce(y)


def test_congruent_iff_residues_match(rng):
    for _ in range(150):
        p = rng.choice([3, 5, 7])
        ctx = PadicContext(p, rng.randint(1, 3))
        x = random_padic_rational(rng, p)
        y = random_padic_rational(rng, p)
        assert congruent(x, y, ctx).holds == (ctx.reduce(x) == ctx.reduce(y))


def test_valuation_rules(rng):
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = random_padic_rational(rng, p) * Fraction(p) ** rng.randint(-2, 3)
        y = random_padic_rational(rng, p) * Fraction(p) ** rng.randint(-2, 3)
        # an int is read without a Fraction, to the same valuation
        for m in (0, -x.numerator, rng.randint(-10**18, 10**18) * p ** rng.randint(0, 20)):
            assert vp(m, p) == vp(Fraction(m), p), (m, p)
        if x == 0 or y == 0:
            continue
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        if x + y != 0:
            assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_congruence_is_representative_independent(rng):
    # shifting either side by a multiple of p^k never changes the verdict
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        k = rng.randint(1, 3)
        ctx = PadicContext(p, k)
        x = random_padic_rational(rng, p)
        y = random_padic_rational(rng, p)
        t = rng.randint(1, 5)
        assert congruent(x, y, ctx).holds == congruent(x + t * p ** k, y, ctx).holds


def test_residue_inverse():
    ctx = PadicContext(7, 2)
    r = ctx.reduce(Fraction(3, 5))
    assert (r * r.inverse()).value == 1


def test_vp_refuses_p_below_two():
    # at p = 1 the division loop would never end, and a negative p has no
    # valuation to report
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            vp(6, p)
    with pytest.raises(ValueError):
        conjugate_product_congruence(Fraction(1, 5), Fraction(3, 5), 1, 2, 4)


def test_residue_arithmetic_refuses_mixed_contexts():
    a = Residue(1, PadicContext(5, 2))
    b = Residue(1, PadicContext(5, 3))
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(ValueError, match="^mixed p-adic contexts$"):
            op(b)
