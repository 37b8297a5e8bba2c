import random
from fractions import Fraction
from itertools import permutations

import pytest

from minorcones import nullity
from minorcones.exact import rref
from minorcones.nullity import (M6, M7, NullityType, Partition, catalog_n4,
                                d5_constraint_set, dual_nullity_type,
                                enumerate_partitions,
                                format_matrix, h_equivalent,
                                matrix, nullity_type, parse_matrix,
                                partition_nullity, rank_type, subset_matrix,
                                superset_matrix)
from minorcones.ratios import h_coordinates, homogeneity_vectors
from minorcones.subsets import mask_of, members_of


def permute_columns(m, perm):
    """Column permutation sending column i to column perm[i-1] (1-based)."""
    n = len(m[0])
    out = [[Fraction(0)] * n for _ in m]
    for r, row in enumerate(m):
        for c in range(n):
            out[r][perm[c] - 1] = row[c]
    return tuple(tuple(row) for row in out)


def realize_partition(p):
    """A 2 x n rational matrix realizing a partition type: block k gets the
    point (1, k) and loops get the zero column."""
    n = p.ground_size
    rows = [[Fraction(0)] * n, [Fraction(0)] * n]
    for k, b in enumerate(sorted(p.blocks)):
        for i in members_of(b):
            rows[0][i - 1] = Fraction(1)
            rows[1][i - 1] = Fraction(k)
    return tuple(tuple(row) for row in rows)


def reduce_against(red, pivots, v):
    """Normal form of v modulo the row space given by an rref basis."""
    vec = [Fraction(x) for x in v]
    for r, p in enumerate(pivots):
        if vec[p] != 0:
            f = vec[p]
            vec = [x - f * y for x, y in zip(vec, red[r])]
    return tuple(vec)


def h_normal_form(v, n):
    """Oracle for h-equivalence: the rref normal form of v modulo the span
    of the homogeneity vectors."""
    return reduce_against(*rref(homogeneity_vectors(n)), v)


def classes(keys):
    """Index of the first equal key, per key: the partition keys induce."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


class TestMatrixIO:
    def test_parse_integers_and_rationals(self):
        m = parse_matrix("1 0 1/2\n-2 3 0\n")
        assert m == matrix([[1, 0, Fraction(1, 2)], [-2, 3, 0]])

    def test_parse_bad_token_reports_location(self):
        with pytest.raises(ValueError, match="line 2, entry 3"):
            parse_matrix("1 2 3\n4 5 x\n")

    def test_parse_ragged_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_matrix("1 2\n1 2 3\n")

    def test_round_trip(self):
        m = matrix([[1, Fraction(-3, 7)], [0, 2]])
        assert parse_matrix(format_matrix(m)) == m


class TestNullityType:
    def test_identity_columns(self):
        nt = nullity_type(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert all(nt[t] == 0 for t in range(8))

    def test_all_ones_row(self):
        nt = nullity_type(matrix([[1, 1, 1]]))
        assert [nt[t] for t in range(8)] == [0, 0, 0, 1, 0, 1, 1, 2]

    def test_nullity_plus_rank_is_cardinality(self):
        m = matrix([[1, 0, 1, 1], [0, 1, 1, 1]])
        nt, rt = nullity_type(m), rank_type(m)
        for t in range(16):
            assert nt[t] + rt[t] == t.bit_count()

    def test_invalid_rank_function_rejected(self):
        # nul({1,2}) = 2 with nul({1}) = 0 breaks unit rank increase.
        with pytest.raises(ValueError):
            NullityType(2, (0, 0, 0, 2))

    def test_m7_rank_is_min_card_2(self):
        rt = rank_type(matrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        for t in range(16):
            assert rt[t] == min(t.bit_count(), 2)


class TestStandardMatrices:
    def test_superset_matrix_nullity_is_indicator(self):
        s = mask_of([1, 2, 4])
        nt = nullity_type(superset_matrix(s, 4))
        for t in range(16):
            assert nt[t] == (1 if t & s == s else 0)

    def test_superset_matrix_rejects_small_sets(self):
        with pytest.raises(ValueError):
            superset_matrix(mask_of([1, 2]), 4)

    def test_subset_matrix_rank_is_indicator(self):
        s = mask_of([2])
        rt = rank_type(subset_matrix(s, 4))
        for t in range(16):
            assert rt[t] == (0 if t & ~s == 0 else 1)

    def test_subset_matrix_rejects_large_sets(self):
        with pytest.raises(ValueError):
            subset_matrix(mask_of([1, 2, 3]), 4)

    def test_permute_columns_acts_on_type(self):
        m = matrix([[1, 0, 1, 1], [0, 1, 1, 1]])
        perm = (2, 3, 4, 1)
        nt = nullity_type(m)
        ntp = nullity_type(permute_columns(m, perm))
        for t in range(16):
            image = 0
            for i in range(1, 5):
                if t >> (i - 1) & 1:
                    image |= 1 << (perm[i - 1] - 1)
            assert ntp[image] == nt[t]


class TestCatalog:
    def test_exactly_23_types(self):
        assert len(catalog_n4()) == 23

    def test_equals_eliminating_every_permuted_matrix(self):
        families = [
            ("M^{}", subset_matrix(0, 4)),
            ("M^{1}", subset_matrix(mask_of([1]), 4)),
            ("M^{1,2}", subset_matrix(mask_of([1, 2]), 4)),
            ("M_{1,2,3}", superset_matrix(mask_of([1, 2, 3]), 4)),
            ("M_{1,2,3,4}", superset_matrix(mask_of([1, 2, 3, 4]), 4)),
            ("M6", M6),
            ("M7", M7),
        ]
        seen = set()
        expected = []
        for name, base in families:
            for perm in permutations(range(1, 5)):
                nt = nullity_type(permute_columns(base, perm))
                if nt.entries not in seen:
                    seen.add(nt.entries)
                    expected.append((f"{name}@{''.join(map(str, perm))}", nt))
        assert list(catalog_n4()) == expected

    def test_one_elimination_per_base_matrix(self, monkeypatch):
        calls = []
        real = nullity.nullity_type

        def spy(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(nullity, "nullity_type", spy)
        nullity.catalog_n4.cache_clear()
        try:
            assert len(catalog_n4()) == 23
        finally:
            nullity.catalog_n4.cache_clear()
        assert len(calls) == 7

    def test_types_distinct(self):
        entries = {nt.entries for _, nt in catalog_n4()}
        assert len(entries) == 23

    def test_family_counts(self):
        # M6 has one parallel pair of columns (6 placements); M7 has four
        # pairwise independent columns (fully symmetric, 1 type).
        counts = {}
        for label, _ in catalog_n4():
            counts[label.split("@")[0]] = counts.get(label.split("@")[0], 0) + 1
        assert counts == {"M^{}": 1, "M^{1}": 4, "M^{1,2}": 6,
                          "M_{1,2,3}": 4, "M_{1,2,3,4}": 1, "M6": 6, "M7": 1}


class TestPartitions:
    def test_bell_number_with_loops(self):
        # sum over loop sets: B(0)+5*B(1)+10*B(2)+10*B(3)+5*B(4)+B(5)
        assert len(enumerate_partitions(5)) == 1 + 5 + 20 + 50 + 75 + 52

    def test_partition_nullity_matches_realization(self):
        for p in enumerate_partitions(4):
            assert partition_nullity(p) == nullity_type(realize_partition(p))

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            Partition(3, (0b011, 0b110))

    def test_non_covering_rejected(self):
        with pytest.raises(ValueError):
            Partition(3, (0b001,))


class TestDuality:
    def test_dual_is_involution(self):
        for _, nt in catalog_n4():
            assert dual_nullity_type(dual_nullity_type(nt)) == nt

    def test_dual_of_free_matroid_is_all_loops(self):
        free = nullity_type(matrix([[1, 0], [0, 1]]))
        dual = dual_nullity_type(free)
        assert [dual[t] for t in range(4)] == [0, 1, 1, 2]

    def test_one_validation_per_type(self, monkeypatch):
        calls = []
        validate = nullity._validate_rank_function
        monkeypatch.setattr(nullity, "_validate_rank_function",
                            lambda n, r: calls.append(n) or validate(n, r))
        nt = nullity_type(M6)
        assert calls == [4]
        dual_nullity_type(nt)
        assert calls == [4, 4]

    def test_dual_total_rank(self):
        # r*(N) = |N| - r(N): the dual of a rank-3 type on 4 columns has
        # total rank 1.
        s = mask_of([1, 2, 3])
        nt = nullity_type(superset_matrix(s, 4))
        assert dual_nullity_type(nt).rank_type()[15] == 4 - nt.rank_type()[15]


class TestHEquivalence:
    def test_reflexive(self):
        v = [Fraction(t.bit_count()) for t in range(16)]
        assert h_equivalent(v, v, 4)

    def test_shift_by_ones_vector(self):
        v = [Fraction(0)] * 16
        w = [Fraction(1)] * 16
        assert h_equivalent(v, w, 4)

    def test_shift_by_indicator(self):
        v = [Fraction(0)] * 16
        w = [Fraction(1) if t & 1 else Fraction(0) for t in range(16)]
        assert h_equivalent(v, w, 4)

    def test_nullity_vs_negated_rank(self):
        # nul(T) = |T| - rho(T) and the cardinality vector is a sum of
        # indicators, so every nullity vector is h-equivalent to -rho.
        for _, nt in catalog_n4():
            neg_rank = [-Fraction(r) for r in nt.rank_type().entries]
            assert h_equivalent(nt.entries, neg_rank, 4)

    def test_inequivalent_pair(self):
        m6 = nullity_type(matrix([[1, 0, 1, 1], [0, 1, 1, 1]]))
        m7 = nullity_type(matrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        assert not h_equivalent(m6.entries, m7.entries, 4)

    def test_rejects_a_row_of_the_wrong_length(self):
        # zip once truncated the longer row and answered True.
        with pytest.raises(ValueError, match="7 entries"):
            h_equivalent((0, 0, 0, 0), (0, 0, 0, 0, 5, 7, 9), 2)

    def test_oracle_member_and_nonmember(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert not any(reduce_against(*rref(rows),
                                      [Fraction(3), Fraction(-2)]))
        assert any(reduce_against(*rref([[Fraction(1), Fraction(1)]]),
                                  [Fraction(1), Fraction(0)]))

    def test_coordinates_agree_with_rref_normal_form(self):
        # Every D5 candidate row: each partition type and its dual.
        rows = []
        for p in enumerate_partitions(5):
            nt = partition_nullity(p)
            rows += [nt.entries, dual_nullity_type(nt).entries]
        assert len(rows) == 406
        by_coordinates = classes([h_coordinates(r, 5) for r in rows])
        assert by_coordinates == classes([h_normal_form(r, 5) for r in rows])
        assert len(set(by_coordinates)) == 185


class TestD5ConstraintSet:
    def test_row_count_and_flags(self):
        rows = d5_constraint_set()
        assert len(rows) == 185
        loop_free_primal = [r for r in rows
                            if not r.is_dual and r.partition.loops == 0
                            and len(r.partition.blocks) != 2]
        assert len(loop_free_primal) == 37

    def test_rows_pairwise_h_inequivalent(self):
        rows = d5_constraint_set()
        forms = {h_coordinates(r.nullity.entries, 5) for r in rows}
        assert len(forms) == len(rows)


class TestDirectSumAdditivity:
    def test_block_diagonal_nullity_adds(self):
        rng = random.Random(11)
        for _ in range(20):
            a = matrix([[rng.randint(-2, 2) for _ in range(2)]
                        for _ in range(2)])
            b = matrix([[rng.randint(-2, 2) for _ in range(2)]
                        for _ in range(2)])
            embed = matrix(
                [list(row) + [0, 0] for row in a] +
                [[0, 0] + list(row) for row in b])
            nt, na, nb = nullity_type(embed), nullity_type(a), nullity_type(b)
            for t in range(16):
                assert nt[t] == na[t & 0b11] + nb[t >> 2]
