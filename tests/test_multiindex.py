import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotuple.errors import CoefficientOverflowError, InvalidArgumentError
from isotuple.multiindex import binomial, compositions, index_factorial, multinomial


def brute_force_compositions(d, j):
    return {alpha for alpha in itertools.product(range(j + 1), repeat=d) if sum(alpha) == j}


def test_compositions_d2_j2_order():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_compositions_single_slot():
    assert compositions(1, 5) == [(5,)]


def test_compositions_d3_j4_count_matches_brute_force():
    got = compositions(3, 4)
    assert len(got) == 15  # stars and bars: C(6, 2)
    assert set(got) == brute_force_compositions(3, 4)


def test_compositions_zero_order():
    assert compositions(3, 0) == [(0, 0, 0)]


def test_compositions_rejects_zero_length():
    with pytest.raises(InvalidArgumentError):
        compositions(0, 2)


def test_compositions_rejects_negative_order():
    with pytest.raises(InvalidArgumentError):
        compositions(2, -1)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8))
@settings(deadline=None)
def test_compositions_are_unique_with_exact_order(d, j):
    got = compositions(d, j)
    assert len(got) == len(set(got)) == math.comb(j + d - 1, d - 1)
    assert all(len(alpha) == d and sum(alpha) == j for alpha in got)
    # descending lexicographic
    assert got == sorted(got, reverse=True)


def test_multinomial_counts_multiset_permutations():
    # independent oracle: count distinct arrangements of a multiset
    def arrangements(alpha):
        symbols = [i for i, count in enumerate(alpha) for _ in range(count)]
        return len(set(itertools.permutations(symbols)))

    assert multinomial(3, (1, 2)) == arrangements((1, 2)) == 3
    assert multinomial(4, (2, 2)) == arrangements((2, 2)) == 6
    assert multinomial(5, (2, 1, 2)) == arrangements((2, 1, 2)) == 30


def test_multinomial_empty_order():
    assert multinomial(0, (0, 0, 0)) == 1


def test_multinomial_rejects_order_mismatch():
    with pytest.raises(InvalidArgumentError):
        multinomial(4, (1, 2))


def test_multinomial_rejects_negative_entry():
    with pytest.raises(InvalidArgumentError):
        multinomial(1, (2, -1))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8))
@settings(deadline=None)
def test_multinomial_theorem_at_all_ones(d, j):
    assert sum(multinomial(j, alpha) for alpha in compositions(d, j)) == d**j


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=39))
@settings(deadline=None)
def test_pascal_identity(m, j):
    if j >= m:
        return
    assert binomial(m, j) == binomial(m - 1, j) + binomial(m - 1, j - 1)


def test_binomial_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        binomial(-1, 0)
    with pytest.raises(InvalidArgumentError):
        binomial(3, -2)


def test_coefficient_overflow_is_explicit():
    with pytest.raises(CoefficientOverflowError):
        binomial(70, 35)
    with pytest.raises(CoefficientOverflowError):
        multinomial(40, (1,) * 40)


def test_index_factorial():
    assert index_factorial((2, 0, 3)) == 12
    with pytest.raises(InvalidArgumentError):
        index_factorial(())
