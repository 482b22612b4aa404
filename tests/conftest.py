import functools
import random
from fractions import Fraction

import pytest

from sclab import hyperkernel
from sclab.cyclotomic import _PRODUCT, CycElement
from sclab.rationals import rising


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240517)


def random_rational(rng: random.Random, num_bound: int = 40, den_bound: int = 30) -> Fraction:
    den = rng.randint(1, den_bound)
    return Fraction(rng.randint(-num_bound, num_bound), den)


def random_padic_rational(rng: random.Random, p: int, num_bound: int = 60) -> Fraction:
    """A random rational with denominator coprime to p."""
    while True:
        den = rng.randint(1, num_bound)
        if den % p:
            return Fraction(rng.randint(-num_bound, num_bound), den)


def rising_element(a, n):
    """(a)_n of a field element as the package forms it: ``rising`` on a's
    numerator tuple over den^n, made one canonical element by ``_make``.
    The empty product comes back from ``rising`` as the int 1."""
    nums = rising(a.nums, a.den, n, _PRODUCT[a.order])
    return CycElement._make(a.order, nums if n else CycElement.one(a.order).nums, a.den ** n)


# The identity builders' pairs as values, each through one ``_value``, to
# hold against the value-level references in identity_reference.py.


def pair_whipple_sides(a, b, c, d, e, n):
    """``_whipple_parts``'s seven-slot series, prefactor and four-slot series."""
    *sides, order = hyperkernel._whipple_parts(a, b, c, d, e, n)
    return tuple(hyperkernel._value(*side, order) for side in sides)


def pair_whipple_series(a, b, c, d, e, n):
    """``_four_slot`` at the parameters themselves."""
    (a, b, c, d, e), den, order = hyperkernel._lift([a, b, c, d, e])
    series = hyperkernel._four_slot(a, b, c, d, e, n, den, _PRODUCT.get(order))
    return hyperkernel._value(*series, order)


def pair_karlsson_minton_series(n, bs, ms):
    """``_karlsson_minton_sum``'s (total, den, order) as a value."""
    return hyperkernel._value(*hyperkernel._karlsson_minton_sum(n, bs, ms))


def pair_d1_sides(t, a, b, c, n, m):
    """``_d1_parts`` as values: (seven-slot series, the tail's lower
    parameters, the ratio's upper rising factorials, their lower product,
    linear factor, tail)."""
    lhs, lows, uppers, lower, linear, tail, den, order = hyperkernel._d1_parts(t, a, b, c, n, m)
    value = functools.partial(hyperkernel._value, order=order)
    return (
        value(*lhs), tuple(value(x, den) for x in lows), tuple(value(u, den ** n) for u in uppers),
        value(lower, den ** (4 * n)), value(*linear), value(*tail),
    )
