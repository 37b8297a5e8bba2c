import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from minorcones.exact import (as_fractions, bareiss, bareiss_rank,
                              bareiss_step, clear_denominators, dot,
                              largest_entry, primitive, rank, rref)
from minorcones.oracles import det, kernel_basis, rank_by_minors


def primitive_reference(vec):
    """The Fraction round trip that `primitive` shortcuts for int input."""
    lcm = 1
    for x in vec:
        d = Fraction(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(Fraction(x) * lcm) for x in vec]
    g = gcd(*ints)
    return tuple(ints) if g == 0 else tuple(x // g for x in ints)


class TestPrimitive:
    def test_clears_denominators_and_gcd(self):
        assert primitive([Fraction(2, 3), Fraction(4, 3)]) == (1, 2)

    def test_sign_convention_stable(self):
        v = primitive([Fraction(-2), Fraction(4)])
        assert primitive([x * Fraction(5, 7) for x in v]) == v

    def test_zero_vector(self):
        assert primitive([Fraction(0), Fraction(0)]) == (0, 0)
        assert primitive([0, 0, 0]) == (0, 0, 0)
        assert primitive([]) == ()

    def test_matches_reference_on_mixed_and_int_vectors(self):
        rng = random.Random(11)
        for trial in range(400):
            vec = [rng.randint(-40, 40) if trial % 2 else
                   rng.choice([0, rng.randint(-40, 40),
                               Fraction(rng.randint(-40, 40),
                                        rng.randint(1, 12))])
                   for _ in range(rng.randint(1, 7))]
            got = primitive(vec)
            assert got == primitive_reference(vec)
            assert all(type(x) is int for x in got)
        assert primitive([-6, 0, 9]) == (-2, 0, 3)
        assert primitive([4, Fraction(-6), 0]) == (2, -3, 0)


class TestLargestEntry:
    @pytest.mark.parametrize("rows", [
        [[3, -4, 0], [1, 1, 1]],
        [[-(1 << 63), 5], [0, (1 << 63) - 1]],
        [[7]],
        [[0, 0], [0, 0]],
    ])
    def test_rows_and_arrays_agree(self, rows):
        expected = max(abs(x) for row in rows for x in row)
        for given in (rows, [tuple(row) for row in rows],
                      np.array(rows, dtype=np.int64),
                      np.array(rows, dtype=object)):
            assert largest_entry(given) == expected

    def test_python_ints_past_int64(self):
        assert largest_entry([[1 << 70], [-3]]) == 1 << 70
        assert largest_entry([(3,), (-(1 << 70),)]) == 1 << 70

    def test_no_entries_give_zero(self):
        for empty in ([], (), [[], ()], np.zeros((0, 3), dtype=np.int64)):
            assert largest_entry(empty) == 0


class TestClearDenominators:
    def test_round_trip_with_the_lcm(self):
        rng = random.Random(12)
        for trial in range(300):
            vec = [rng.randint(-9, 9) if trial % 3 == 0 else
                   Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                   for _ in range(rng.randint(0, 6))]
            ints, d = clear_denominators(vec)
            assert all(type(x) is int for x in ints)
            assert d == lcm(*(Fraction(x).denominator for x in vec))
            back = as_fractions(ints, d)
            assert back == vec
            assert all(type(x) is Fraction for x in back)

    def test_other_numbers_go_through_fraction(self):
        assert clear_denominators([0.5, 1, Fraction(1, 3)]) == ([3, 6, 2], 6)

    def test_equal_values_share_one_fraction(self):
        a, b, c = as_fractions([2, 3, 2], 4)
        assert (a, b) == (Fraction(1, 2), Fraction(3, 4)) and a is c


class TestExactRank:
    def test_identity(self):
        assert rank([[Fraction(1), Fraction(0)],
                     [Fraction(0), Fraction(1)]]) == 2

    def test_rank_one(self):
        assert rank([[Fraction(x) for x in (1, 2, 3)],
                     [Fraction(x) for x in (2, 4, 6)]]) == 1

    def test_rational_entries(self):
        m = [[Fraction(1, 3), Fraction(2, 3)],
             [Fraction(1, 2), Fraction(1)]]
        assert rank(m) == 1

    def test_huge_entries_stay_exact(self):
        # A float computation would call this singular.
        big = Fraction(10 ** 30)
        assert rank([[big, big], [big, big + 1]]) == 2

    def test_one_rank_function(self):
        assert rank is bareiss_rank

    def test_rationals_are_not_truncated(self):
        # int() on each entry would give [[0]] and [[0, 0], [1, 1]].
        assert rank([[Fraction(1, 2)]]) == 1
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == 2

    def test_matches_minor_oracle_on_rationals(self):
        rng = random.Random(23)
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.choice([0, rng.randint(-3, 3),
                              Fraction(rng.randint(-4, 4), rng.randint(1, 5))])
                  for _ in range(cols)] for _ in range(rows)]
            assert rank(m) == rank_by_minors(m)


def seeded_square(rng, k):
    """A k x k integer matrix: random, of lower rank (a product through
    fewer dimensions), or sparse, so that zero pivots force row swaps and
    skipped columns."""
    kind = rng.randrange(3)
    if kind == 1:
        inner = rng.randint(0, k - 1)
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(k)]
        b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(inner)]
        return [[sum(a[i][t] * b[t][j] for t in range(inner))
                 for j in range(k)] for i in range(k)]
    high = 9 if kind == 0 else 2
    return [[rng.randint(-high, high) * (kind == 0 or rng.random() < 0.4)
             for _ in range(k)] for _ in range(k)]


class TestBareiss:
    def test_step_divides_exactly(self):
        # (2 * [3, 5] - 1 * [4, 2]) / 2 = [1, 4]; with prev 1, no division.
        assert bareiss_step([3, 5], [4, 2], 2, 1, 2) == [1, 4]
        assert bareiss_step([3, 5], [4, 2], 2, 1, 1) == [2, 8]
        with pytest.raises(ArithmeticError, match="inexact"):
            bareiss_step([3, 5], [4, 2], 2, 1, 3)

    def test_empty(self):
        assert bareiss([]) == (0, 1)
        assert bareiss([[], []]) == (0, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_determinant_and_rank_on_seeded_square_matrices(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(150):
            k = rng.randint(1, 4)
            m = seeded_square(rng, k)
            before = [row[:] for row in m]
            r, last = bareiss(m)
            assert m == before
            assert r == rank_by_minors(m)
            assert (last if r == k else 0) == det(m)


class TestRanks:
    def test_rank_agreement_randomized(self):
        rng = random.Random(21)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(cols)]
                 for _ in range(rows)]
            r = len(rref(m)[0])
            assert rank(m) == r
            assert rank_by_minors(m) == r

    def test_det_matches_rank(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det(m) == 0 and rank(m) == 1


class TestKernel:
    def test_kernel_vectors_annihilated(self):
        rng = random.Random(22)
        for _ in range(50):
            rows, cols = rng.randint(1, 3), rng.randint(2, 5)
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
                 for _ in range(rows)]
            basis = kernel_basis([row[:] for row in m], cols)
            assert len(basis) == cols - rank([row[:] for row in m])
            for v in basis:
                assert all(dot(row, v) == 0 for row in m)
