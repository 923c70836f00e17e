import math

import pytest

from segwiener.exact import I128_MAX, CountOverflowError, binomial, checked


def test_binomial_matches_factorial_formula():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_is_zero_outside_range():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_is_bounded_by_i128_not_by_order():
    assert binomial(129, 1) == 129
    assert binomial(1000, 2) == 499500
    assert math.comb(200, 100) > I128_MAX
    with pytest.raises(CountOverflowError):
        binomial(200, 100)


def test_full_table_fits_the_checked_range():
    # the largest entry, C(128, 64), still fits a signed 128-bit integer
    assert math.comb(128, 64) < I128_MAX
    assert binomial(128, 64) == math.comb(128, 64)


def test_checked_bounds():
    assert checked(I128_MAX) == I128_MAX
    assert checked(-(2**127)) == -(2**127)
    with pytest.raises(CountOverflowError):
        checked(I128_MAX + 1)
    with pytest.raises(CountOverflowError):
        checked(-(2**127) - 1)
