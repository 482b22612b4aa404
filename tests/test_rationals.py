import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import sclab
from sclab import rationals
from sclab.cyclotomic import _PRODUCT, CycElement
from sclab.padic import vp
from sclab.rationals import as_rational, is_prime, iter_primes, pochhammer, primes_in, rising

from conftest import random_rational, rising_element
from identity_reference import rising_product


def test_pochhammer_empty_product():
    assert pochhammer(Fraction(1, 2), 0) == 1


def test_pochhammer_direct_products():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(-1, 3), 2) == Fraction(-2, 9)


def test_pochhammer_vanishes_at_nonpositive_integers():
    # terminating-series behaviour: zero is a value, not an error
    assert pochhammer(Fraction(-3), 5) == 0


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)


def test_primes_in_examples():
    assert primes_in(2, 11) == [2, 3, 5, 7, 11]
    assert primes_in(24, 28) == []
    assert primes_in(90, 100) == [97]


def test_primes_in_rejects_reversed_range():
    with pytest.raises(ValueError):
        primes_in(10, 5)


def test_is_prime_matches_sieve():
    sieved = set(primes_in(2, 500))
    for n in range(500):
        assert is_prime(n) == (n in sieved)
    # across the switch from trial division to Miller-Rabin at 10^6
    lo, hi = 10**6 - 3000, 10**6 + 3000
    sieved = set(primes_in(lo, hi))
    for n in range(lo, hi):
        assert is_prime(n) == (n in sieved)


def test_is_prime_miller_rabin_range():
    # strong pseudoprimes to bases 2, 3, 5, 7 and to bases 2 .. 23; 561 is
    # a Carmichael number, caught below the switch
    for n in (561, 3215031751, 3825123056546413051, (2**31 - 1) * (10**9 + 7)):
        assert not is_prime(n)
    for n in (2**31 - 1, 10**9 + 7, 2**61 - 1):
        assert is_prime(n)
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)  # even
    with pytest.raises(ValueError, match=str(bound)):
        is_prime(bound)
    for n in (bound + 1, 10**25, 10**25 + 13):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)


def test_pochhammer_recurrence(rng):
    for _ in range(200):
        a = random_rational(rng)
        n = rng.randint(0, 12)
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def test_pochhammer_of_one_is_factorial():
    for n in range(30):
        assert pochhammer(Fraction(1), n) == math.factorial(n)


def test_canonical_form_under_arithmetic(rng):
    # Fraction results stay reduced with a positive denominator.
    for _ in range(300):
        x = random_rational(rng)
        y = random_rational(rng)
        for value in (x + y, x * y, x - y):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


def _random_scalar(rng, order):
    """An int or Fraction for order 1, else an element of Q(i) or Q(zeta_5);
    every fifth value is a small integer, so that some products cross 0."""
    if rng.random() < 0.2:
        value = rng.randint(-12, 3)
        return value if order == 1 else CycElement.from_rational(order, value)
    if order == 1:
        return random_rational(rng)
    return CycElement(order, [random_rational(rng) for _ in range(order - 1)])


def test_pochhammer_matches_factor_by_factor_product(rng):
    for trial in range(240):
        order = (1, 4, 5)[trial % 3]
        a = _random_scalar(rng, order)
        n = rng.randint(0, 40)
        # a field element's rising factorial is ``rising`` on its numerators
        value = pochhammer(a, n) if order == 1 else rising_element(a, n)
        expected = rising_product(a, n)
        assert type(value) is type(expected)
        assert value == expected
        if isinstance(a, CycElement):
            assert value.order == a.order


def test_pochhammer_result_types():
    assert type(pochhammer(3, 0)) is Fraction and pochhammer(3, 0) == 1
    assert type(pochhammer(3, 4)) is Fraction and pochhammer(3, 4) == 360
    # den = 1 at n > 0 (and den > 1 at n = 0): the result is a Fraction of
    # a's value whatever a's rational type
    for a in (2, Fraction(2), Fraction(1, 3)):
        for n in (0, 3):
            value = pochhammer(a, n)
            assert type(value) is Fraction and value == rising_product(Fraction(a), n)


@pytest.mark.parametrize(
    "a, want",
    [
        (Decimal("1.5"), Fraction(15, 4)),
        (None, TypeError),
        (1 + 2j, TypeError),
        (CycElement.zeta(5), TypeError),
        (CycElement.from_rational(4, Fraction(1, 2)), TypeError),
        ("1/2", TypeError),
        ("a", TypeError),
    ],
    ids=["decimal", "none", "complex", "field", "rational-field", "str-rational", "str-word"],
)
def test_pochhammer_reads_its_argument_as_a_rational(a, want):
    # as vp does: a Decimal exactly, anything else that is no rational
    # refused, a str that Fraction would parse included; a field element's
    # rising factorial is ``rising`` on its tuple
    if isinstance(want, Fraction):
        assert pochhammer(a, 2) == want
        assert vp(a, 5) == vp(Fraction(a), 5)
    else:
        with pytest.raises(want):
            pochhammer(a, 2)
        with pytest.raises(want):
            vp(a, 5)


def test_pochhammer_rejects_floats_and_negative_length():
    with pytest.raises(TypeError):
        pochhammer(0.5, 2)
    with pytest.raises(ValueError):
        pochhammer(CycElement.zeta(4), -1)


def test_as_rational_keeps_fractions():
    f = Fraction(-7, 5)
    assert as_rational(f) is f
    assert type(as_rational(3)) is Fraction and as_rational(3) == 3
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_primes_in_across_segment_boundaries():
    # ranges that start, end or straddle a multiple of the segment length
    for lo, hi in [(2, 65536), (2, 65537), (65530, 65540), (131000, 140000), (2, 200003)]:
        assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_iter_primes_refuses_a_reversed_range_at_once():
    with pytest.raises(ValueError):
        iter_primes(10, 5)


def test_first_primes_of_a_huge_range_fit_in_a_small_address_space():
    # a sieve of hi bytes would raise MemoryError at hi = 10^15 under the
    # 400 MB limit; the segmented one holds O(sqrt(hi) + segment)
    resource = pytest.importorskip("resource")
    limit = 400 << 20
    code = (
        "import itertools, resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from sclab.rationals import iter_primes\n"
        "print(list(itertools.islice(iter_primes(2, 10**15), 10)))\n"
    )
    src = os.path.dirname(os.path.dirname(sclab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[2, 3, 5, 7, 11, 13, 17, 19, 23, 29]\n"


def _rising_fold(num, den, n, mul=None):
    """Reference: the factors of ``rationals.rising`` multiplied into one
    running product, left to right, whatever n is."""
    out = 1
    for j in range(n):
        factor = num + j * den if type(num) is int else (num[0] + j * den, *num[1:])
        out = factor if j == 0 else (out * factor if type(num) is int else mul(out, factor))
    return out


@pytest.mark.parametrize("order", [1, 4, 5])
def test_rising_tree_matches_the_fold_across_the_cutoff(rng, order):
    cut = rationals._FOLD_MAX
    mul = _PRODUCT.get(order)
    lengths = sorted({0, 1, cut - 1, cut, cut + 1, 2 * cut + 1, 4 * cut - 1, 300})
    for trial in range(8):
        if order == 1:
            # an int numerator over 1 and a Fraction's over its denominator;
            # a nonpositive integer crosses zero inside the longer products
            a = Fraction(rng.randint(-40, 40), 1 if trial % 2 else rng.randint(2, 30))
            num, den = a.numerator, a.denominator
        else:
            a = CycElement(order, [random_rational(rng) for _ in range(order - 1)])
            num, den = a.nums, a.den
        for n in lengths:
            assert rising(num, den, n, mul) == _rising_fold(num, den, n, mul), (a, n)
        value = pochhammer(a, 300) if order == 1 else rising_element(a, 300)
        assert value == rising_product(a, 300)
