import math
from fractions import Fraction

import pytest

from sclab.rationals import is_prime, pochhammer, primes_in

from conftest import random_rational


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
