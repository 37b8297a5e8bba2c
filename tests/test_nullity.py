import hashlib
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from minorcones import nullity
from minorcones.cones import build_D_system, build_E_system
from minorcones.exact import (CertificateError, clear_denominators, combine,
                              rank, rref)
from minorcones.nullity import (M6, M7, NullityType, Partition, RankType,
                                catalog_n4, d5_constraint_set,
                                d_constraint_set, dual_nullity_type,
                                enumerate_partitions, h_equivalent,
                                matrix, nullity_type, parse_matrix,
                                partition_nullity, rank_type, subset_matrix,
                                superset_matrix)
from minorcones.ratios import h_coordinates, homogeneity_vectors
from minorcones.simplex import nonnegative_combination
from minorcones.subsets import (format_subset, mask_of, members_of,
                                order_preserving_gather, subset_order)

from test_cones import certificate_error_under_O


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


def per_subset_nullities(m):
    """Oracle: one independent Bareiss rank per column subset, the loop that
    `nullity_type` replaced."""
    n = len(m[0]) if m else 0
    rows = [clear_denominators(row)[0] for row in m]
    entries = []
    for mask in range(1 << n):
        cols = [i - 1 for i in members_of(mask)]
        sub = [[row[c] for c in cols] for row in rows]
        entries.append(len(cols) - rank(sub) if cols else 0)
    return tuple(entries)


def loop_validate(n, r):
    """Oracle: the rank-function check as plain loops, unit increase over
    every (T, i) first, then submodularity over every (T, i, j)."""
    if r[0] != 0:
        raise ValueError("rank of the empty set must be 0")
    steps = [(t, i) for t in range(1 << n) for i in range(n)
             if not t >> i & 1]
    for t, i in steps:
        if r[t | 1 << i] - r[t] not in (0, 1):
            raise ValueError("rank function violates unit increase")
    for t, i in steps:
        ti = t | 1 << i
        for j in range(i + 1, n):
            if t >> j & 1:
                continue
            tj = t | 1 << j
            if r[ti] + r[tj] < r[ti | tj] + r[t]:
                raise ValueError("rank function is not submodular")


def rejection(validate, n, r):
    """The message `validate` raises for (n, r), or None if it accepts."""
    try:
        validate(n, r)
    except ValueError as err:
        return str(err)
    return None


def random_matrix(rng, n):
    """A small rational matrix with n columns: up to n + 2 rows, some of them
    zero; some zero or repeated (possibly scaled) columns; Fraction entries
    in about half of the matrices."""
    nrows = rng.randint(1 if n else 0, n + 2)
    denominators = (1, 2, 3) if rng.random() < 0.5 else (1,)
    cols = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * nrows)
        elif kind < 0.35 and cols:
            scale = rng.choice((1, -2, Fraction(1, 3)))
            cols.append([scale * x for x in rng.choice(cols)])
        else:
            cols.append([Fraction(rng.choice((0, 0, 1, -1, 2, 3)),
                                  rng.choice(denominators))
                         for _ in range(nrows)])
    rows = [[col[r] for col in cols] for r in range(nrows)]
    for row in rows:
        if rng.random() < 0.15:
            row[:] = [0] * n
    return matrix(rows)


def constraint_digest(build, sizes):
    """sha256 of the labels and rows of build(n) for each n in `sizes`."""
    h = hashlib.sha256()
    for n in sizes:
        system = build(n)
        h.update(repr((system.labels, system.inequalities)).encode())
    return h.hexdigest()


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
        text = "\n".join(" ".join(map(str, row)) for row in m)
        assert parse_matrix(text) == m


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


class TestSubsetKernel:
    @pytest.mark.parametrize("n", range(8))
    def test_equals_per_subset_bareiss(self, n):
        rng = random.Random(1300 + n)
        for _ in range(40 if n < 6 else 12):
            m = random_matrix(rng, n)
            assert nullity_type(m).entries == per_subset_nullities(m), m

    def test_shapes_the_generator_covers(self):
        rng = random.Random(1300 + 5)
        shapes = set()
        for _ in range(40):
            m = random_matrix(rng, 5)
            cols = list(zip(*m))
            shapes.add("tall" if len(m) > 5 else "wide")
            shapes |= {"zero row" for row in m if not any(row)}
            shapes |= {"zero column" for col in cols if not any(col)}
            shapes |= {"fraction" for row in m for x in row
                       if x.denominator > 1}
            if len(set(cols)) < len(cols):
                shapes.add("repeated column")
        assert shapes == {"tall", "wide", "zero row", "zero column",
                          "fraction", "repeated column"}

    def test_empty_and_columnless_matrices(self):
        assert nullity_type(()).entries == (0,)
        assert nullity_type(((), ())).entries == (0,)

    def test_wide_entries_stay_exact(self):
        # Columns that agree to 80 bits are still independent.
        big = 1 << 80
        m = matrix([[big, big + 1, 1], [big + 1, big + 2, 1]])
        assert nullity_type(m).entries == per_subset_nullities(m)
        assert nullity_type(m)[0b011] == 0

    def test_constraint_rows_unchanged(self):
        # E3..E7 as recorded from the per-subset Bareiss elimination; D3..D5
        # as recorded when the D rows came from rank functions.
        assert constraint_digest(build_E_system, range(3, 8)) == (
            "acaa84f4e6c4e22202f1122a491b36ea7e0f73739b0d59483138e9b428316460")
        assert constraint_digest(build_D_system, range(3, 6)) == (
            "1f67295372d49b695629e4a861a5ba2c864192e7babab421eaa53748fe5d25f0")

    def test_one_rank_call_per_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nullity, "rank",
                            lambda rows: calls.append(rows) or rank(rows))
        nullity_type(M7)
        assert calls == [[[1, 1, 1, 1], [0, 1, 2, 3]]]

    @pytest.mark.parametrize("wrong", [
        # The whole set one off.
        lambda found: found[:-1] + [found[-1] + 1],
        # The zero column {2} reported as a nonzero one, with the whole set
        # right.
        lambda found: [x ^ (mask == 2) for mask, x in enumerate(found)],
    ])
    def test_wrong_kernel_fails_cross_check(self, wrong, monkeypatch):
        m = matrix([[1, 0, 0], [1, 0, 0]])
        walk = nullity.gram_subset_walk

        def wrong_walk(upper):
            minors, nullities = walk(upper)
            return minors, wrong(nullities)
        monkeypatch.setattr(nullity, "gram_subset_walk", wrong_walk)
        with pytest.raises(CertificateError, match="zero pattern"):
            nullity_type(m)

    def test_residuals_are_divided_by_their_gcd(self):
        # Eliminating coordinate 0 of w = (3, 6, 9) by v = (1, 1, 0), as the
        # double description combines two vectors: 1 * (3, 6, 9) -
        # 3 * (1, 1, 0) = (0, 3, 9).
        v, w = [1, 1, 0], [3, 6, 9]
        assert combine(v[0], w, w[0], v) == (0, 1, 3)
        with pytest.raises(CertificateError, match="zero"):
            combine(1, [2, 2], 2, [1, 1])

    def test_wrong_kernel_fails_cross_check_under_O(self):
        out = certificate_error_under_O(
            "from minorcones import nullity\n"
            "found = nullity.gram_subset_walk\n"
            "def shifted(upper):\n"
            "    minors, out = found(upper)\n"
            "    out[-1] += 1\n"
            "    return minors, out\n"
            "nullity.gram_subset_walk = shifted\n",
            "cones.build_E_system(3)")
        assert "zero pattern" in out

    @pytest.mark.parametrize("rows,message", [
        (((1,), (3, 4)), "row 2 has 2 entries, expected 1"),
        (((1, 2), (3,)), "row 2 has 1 entries, expected 2"),
        (((1, 2), ()), "row 2 has 0 entries, expected 2")])
    def test_ragged_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            nullity_type(rows)


class TestRankFunctionCheck:
    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_loop_on_random_functions(self, n):
        rng = random.Random(2600 + n)
        valid = [rank_type(random_matrix(rng, n)).entries
                 for _ in range(10)]
        seen = set()
        for trial in range(300):
            r = list(rng.choice(valid))
            if trial % 3 == 0:
                r = [rng.randint(-1, n) for _ in r]
            for _ in range(rng.randint(0, 3)):
                r[rng.randrange(len(r))] += rng.choice((-1, 1))
            if trial % 7 == 0:
                r[0] = 0
            expected = rejection(loop_validate, n, r)
            assert rejection(nullity._validate_rank_function, n, r) \
                == expected, r
            seen.add(expected)
        # n = 0 admits no step at all, n = 1 no pair of them.
        assert len(seen) == {0: 2, 1: 3}.get(n, 4)

    def test_mixed_violations_report_the_first(self):
        # Unit increase is the first axiom checked, so a function that
        # breaks both is named for it: T = {} breaks submodularity at
        # (1, 2) before T = {1} breaks unit increase, and the other way
        # round.  A function that breaks only submodularity is named for
        # that.
        sub_first = (0, 1, 1, 3)
        unit_first = (0, 2, 1, 2)
        for r in (sub_first, unit_first):
            assert rejection(nullity._validate_rank_function, 2, r) \
                == rejection(loop_validate, 2, r) \
                == "rank function violates unit increase"
        assert rejection(nullity._validate_rank_function, 2, (0, 0, 0, 1)) \
            == "rank function is not submodular"

    def test_fraction_steps_rejected(self):
        r = (0, Fraction(1, 2), 1, 1)
        assert rejection(nullity._validate_rank_function, 2, r) \
            == "rank function violates unit increase"

    @pytest.mark.parametrize("build,n,entries,length", [
        (NullityType, 2, (0, 0, 0, 0, 5, 7, 9, 1), 8),
        (NullityType, 2, (0, 0, 0), 3),
        (NullityType, 2, (), 0),
        (NullityType, 1, (0,), 1),
        (RankType, 1, (0, 1, 5), 3),
        (RankType, 2, (0, 1), 2),
    ])
    def test_wrong_length_rejected(self, build, n, entries, length):
        with pytest.raises(ValueError,
                           match=f"has {1 << n} entries, got {length}"):
            build(n, entries)


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


def per_row_e_system(n):
    """The E_n rows and labels with one elimination per row."""
    supersets = [s for s in subset_order(n) if s.bit_count() >= 3]
    subsets = [s for s in subset_order(n) if s.bit_count() <= n - 2]
    rows = ([nullity_type(superset_matrix(s, n)).entries for s in supersets]
            + [nullity_type(subset_matrix(s, n)).entries for s in subsets])
    labels = ([f"nul(M_{format_subset(s)})" for s in supersets]
              + [f"nul(M^{format_subset(s)})" for s in subsets])
    return tuple(rows), tuple(labels)


def type_orbit(entries, n):
    """The h-coordinates of every column relabelling of the nullity type
    `entries`, permuted as a vector over subsets, without an elimination."""
    orbit = set()
    for perm in permutations(range(n)):
        image = [0] * (1 << n)
        for t, value in enumerate(entries):
            image[sum(1 << perm[i] for i in range(n) if t >> i & 1)] = value
        orbit.add(h_coordinates(tuple(image), n))
    return orbit


@pytest.fixture
def elimination_calls(monkeypatch):
    """The matrices handed to `nullity.nullity_type`, in call order."""
    calls = []
    real = nullity.nullity_type

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(nullity, "nullity_type", spy)
    return calls


class TestFamilyTypes:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_e_rows_equal_one_elimination_per_row(self, n):
        system = build_E_system(n)
        assert (system.inequalities, system.labels) == per_row_e_system(n)

    def test_d3_rows_equal_one_elimination_per_row(self):
        # The rank-function rows of D_3 and the nullity types of M^{},
        # M^{i} and M_{1,2,3}, modulo homogeneity.
        rows = [subset_matrix(s, 3) for s in (0, 1, 2, 4)]
        rows.append(superset_matrix(7, 3))
        system = build_D_system(3)
        assert ({h_coordinates(row, 3) for row in system.inequalities}
                == {h_coordinates(nullity_type(m).entries, 3) for m in rows})
        assert system.labels == ("{1,2,3}", "dual:{1,2,3}", "{1}|{2,3}",
                                 "{1,2}|{3}", "{2}|{1,3}")

    @pytest.mark.parametrize("n", range(3, 7))
    def test_one_elimination_per_family_and_size(self, n,
                                                 elimination_calls):
        build_E_system(n)
        # |S| = 3..n for M_S and |S| = 0..n-2 for M^S.
        assert len(elimination_calls) == 2 * n - 3

    def test_d3_takes_three_eliminations(self, elimination_calls):
        # Modulo homogeneity, the D_3 rows are the column relabellings of
        # the types of M^{}, M^{1} and M_{1,2,3}: three eliminations, none
        # of them by the D_3 build.
        bases = [subset_matrix(0, 3), subset_matrix(1, 3),
                 superset_matrix(7, 3)]
        nullity.d_constraint_set.cache_clear()
        try:
            rows = build_D_system(3).inequalities
        finally:
            nullity.d_constraint_set.cache_clear()
        orbits = set().union(*(type_orbit(nullity.nullity_type(m).entries, 3)
                               for m in bases))
        assert {h_coordinates(row, 3) for row in rows} == orbits
        assert elimination_calls == bases

    @pytest.mark.parametrize("seed", range(3))
    def test_gather_is_the_column_relabelling(self, seed):
        rng = random.Random(seed)
        n = 6
        for _ in range(10):
            size = rng.randint(0, n)
            source, target = (mask_of(rng.sample(range(1, n + 1), size))
                              for _ in range(2))
            perm = [0] * n
            for fro, to in ((source, target),
                            ((1 << n) - 1 ^ source, (1 << n) - 1 ^ target)):
                for i, j in zip(members_of(fro), members_of(to)):
                    perm[i - 1] = j
            m = matrix([[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(3)])
            assert order_preserving_gather(source, target, n)(
                nullity_type(m).entries) == nullity_type(
                    permute_columns(m, perm)).entries

    def test_gather_needs_sets_of_one_size(self):
        with pytest.raises(ValueError, match="same size"):
            order_preserving_gather(0b011, 0b100, 3)


def eliminated_catalogue():
    """Oracle for D_4: the h-coordinates of the nullity type of every column
    permutation of the seven base matrices, eliminated one by one, mapped
    to the label of its base matrix."""
    families = [
        ("M^{}", subset_matrix(0, 4)),
        ("M^{1}", subset_matrix(mask_of([1]), 4)),
        ("M^{1,2}", subset_matrix(mask_of([1, 2]), 4)),
        ("M_{1,2,3}", superset_matrix(mask_of([1, 2, 3]), 4)),
        ("M_{1,2,3,4}", superset_matrix(mask_of([1, 2, 3, 4]), 4)),
        ("M6", M6),
        ("M7", M7),
    ]
    return {h_coordinates(nullity_type(permute_columns(base, perm)).entries,
                          4): name
            for name, base in families for perm in permutations(range(1, 5))}


def is_combination(cols, row):
    """Whether the integer `row` is a nonnegative combination of `cols`."""
    x, _ = nonnegative_combination(np.array(cols, dtype=np.int64).reshape(
        len(cols), len(row)), (list(row), 1))
    return x is not None


class TestCatalog:
    def test_exactly_23_types(self):
        assert len(catalog_n4()) == 23

    def test_equals_eliminating_every_permuted_matrix(self):
        assert ({h_coordinates(nt.entries, 4) for _, nt in catalog_n4()}
                == set(eliminated_catalogue()))

    def test_one_elimination_per_base_matrix(self, elimination_calls):
        # CATALOG_N4_BASES: one elimination per base matrix, relabelled as
        # a type, gives every D_4 row modulo homogeneity.
        bases = [base for _, base in nullity.CATALOG_N4_BASES]
        orbits = set().union(*(type_orbit(nullity.nullity_type(m).entries, 4)
                               for m in bases))
        assert ({h_coordinates(nt.entries, 4) for _, nt in catalog_n4()}
                == orbits)
        assert elimination_calls == bases

    def test_d_builds_eliminate_nothing(self, elimination_calls):
        nullity.d_constraint_set.cache_clear()
        try:
            for n in (3, 4, 5):
                build_D_system(n)
        finally:
            nullity.d_constraint_set.cache_clear()
        assert elimination_calls == []

    def test_only_kept_rows_are_validated(self, monkeypatch):
        # The candidates are keyed before any type is built: one rank
        # function check per kept row, 5, 23 and 149 of 30, 98 and 356.
        checked = []
        check = nullity._validate_rank_function
        monkeypatch.setattr(nullity, "_validate_rank_function",
                            lambda n, r: checked.append(n) or check(n, r))
        nullity.d_constraint_set.cache_clear()
        try:
            counts = [len(d_constraint_set(n)) for n in (3, 4, 5)]
        finally:
            nullity.d_constraint_set.cache_clear()
        assert counts == [5, 23, 149]
        assert checked == [3] * 5 + [4] * 23 + [5] * 149

    def test_perfbench_names_are_the_generator(self):
        assert catalog_n4() is d_constraint_set(4)
        assert d5_constraint_set() is d_constraint_set(5)

    def test_types_distinct(self):
        entries = {nt.entries for _, nt in catalog_n4()}
        assert len(entries) == 23

    def test_family_counts(self):
        # The rows per base matrix whose permutations realize them: M6 has
        # one parallel pair of columns (6 placements); M7 has four pairwise
        # independent columns (fully symmetric, 1 type).
        family = eliminated_catalogue()
        counts = {}
        for _, nt in catalog_n4():
            name = family[h_coordinates(nt.entries, 4)]
            counts[name] = counts.get(name, 0) + 1
        assert counts == {"M^{}": 1, "M^{1}": 4, "M^{1,2}": 6,
                          "M_{1,2,3}": 4, "M_{1,2,3,4}": 1, "M6": 6, "M7": 1}

    @pytest.mark.parametrize("n", [4, 5])
    def test_rows_are_irredundant(self, n):
        # Modulo homogeneity, no row is a nonnegative combination of the
        # others, and each left-out direct sum, and its dual, is one.
        rows = [h_coordinates(nt.entries, n) for _, nt in d_constraint_set(n)]
        for k, row in enumerate(rows):
            assert not is_combination(rows[:k] + rows[k + 1:], row), k
        skipped = [p for p in enumerate_partitions(n) if len(p.blocks) == 2
                   and min(b.bit_count() for b in p.blocks) >= 2]
        assert len(skipped) == {4: 3, 5: 25}[n]
        for p in skipped:
            nt = partition_nullity(p)
            for row in (nt, dual_nullity_type(nt)):
                assert is_combination(rows, h_coordinates(row.entries, n))


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
        labels = [label for label, _ in d5_constraint_set()]
        assert len(labels) == 149
        # A label lists the blocks joined by "|", then ";loops=..." if any;
        # a dual's starts with "dual:", and no blocks at all is "all-loops".
        loop_free_primal = [label for label in labels
                            if not label.startswith("dual:")
                            and "loops" not in label
                            and label.count("|") != 1]
        assert len(loop_free_primal) == 37

    def test_rows_pairwise_h_inequivalent(self):
        rows = d5_constraint_set()
        forms = {h_coordinates(nt.entries, 5) for _, nt in rows}
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
