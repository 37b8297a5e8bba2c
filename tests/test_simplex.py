import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minorcones import simplex
from minorcones.cones import (KoteljanskiiCertificate, MembershipCertificate,
                              build_D_system, build_E_system,
                              koteljanskii_cone_membership, membership)
from minorcones.constants import R1, counterexample_E4
from minorcones.exact import (CertificateError, clear_denominators, dot,
                              largest_entry)
from minorcones.probe import random_homogeneous_log
from minorcones.ratios import (FormalLog, koteljanskii_generators,
                               koteljanskii_matrix, log_of)
from minorcones.simplex import nonnegative_combination


def F(x):
    return Fraction(x)


def fraction_tableau(columns, target):
    """Reference: the same phase-I simplex with Bland's rule on a tableau
    of Fractions, as the package ran it before the integer tableau."""
    m, k = len(target), len(columns)
    signs = [-1 if v < 0 else 1 for v in target]
    rows = [[F(signs[i] * columns[j][i]) for j in range(k)]
            + [F(int(i == r)) for r in range(m)] + [F(signs[i] * target[i])]
            for i in range(m)]
    basis = [k + i for i in range(m)]
    z = [-sum(row[j] for row in rows) for j in range(k + m + 1)]
    for i in range(m):
        z[k + i] += 1
    while True:
        enter = next((j for j in range(k + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if leave is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        rows[leave] = [x / rows[leave][enter] for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter
    if z[-1] == 0:
        x = [F(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = rows[i][-1]
        return x, None
    return None, [signs[i] * (1 - z[k + i]) for i in range(m)]


def list_phase_one(rows, z, basis):
    """Reference: the integer phase-I pivots on Python lists, one list
    comprehension per row, as the package ran them before the numpy
    tableau.  Same contract as simplex._phase_one."""
    m, width = len(rows), len(z) - 1
    d = 1
    while True:
        enter = next((j for j in range(width) if z[j] < 0), None)
        if enter is None:
            return d
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave is not None:
                    lhs = rows[i][-1] * rows[leave][enter]
                    rhs = rows[leave][-1] * a
                    if lhs > rhs or lhs == rhs and basis[i] > basis[leave]:
                        continue
                leave = i
        if leave is None:
            raise ArithmeticError("phase-I objective unbounded below")
        pivot_row = rows[leave]
        piv = pivot_row[enter]
        for i in range(m):
            f = rows[i][enter]
            if i != leave and (f or piv != d):
                rows[i] = [(x * piv - f * y) // d
                           for x, y in zip(rows[i], pivot_row)]
        f = z[enter]
        z[:] = [(x * piv - f * y) // d for x, y in zip(z, pivot_row)]
        d = piv
        basis[leave] = enter


def list_tableau(columns, target):
    """Reference: the initial integer tableau (rows, z, basis) that
    nonnegative_combination hands to _phase_one, built entry by entry."""
    m, k = len(target), len(columns)
    cols = [clear_denominators(col)[0] for col in columns]
    tgt = clear_denominators(target)[0]
    signs = [-1 if v < 0 else 1 for v in tgt]
    rows = [[signs[i] * col[i] for col in cols]
            + [int(i == r) for r in range(m)]
            + [signs[i] * tgt[i]] for i in range(m)]
    z = [-sum(col) for col in zip(*rows)] if rows else [0] * (k + 1)
    for i in range(m):
        z[k + i] += 1
    return rows, z, [k + i for i in range(m)]


def fraction_membership(v, system):
    """Reference: E/D membership with the inner products summed in
    Fractions, as the package computed them before integer dot products."""
    products = tuple((label, Fraction(sum(a * b for a, b in
                                          zip(v.exponents, row))))
                     for label, row in zip(system.labels,
                                           system.inequalities))
    witness = next((p for p in products if p[1] < 0), None)
    return MembershipCertificate(witness is None, products, witness)


def fraction_koteljanskii(v):
    """Reference: cone(K_n) membership through `fraction_tableau`."""
    gens = koteljanskii_generators(v.ground_size)
    x, y = fraction_tableau([vec for _, vec in gens], v.exponents)
    if x is not None:
        return KoteljanskiiCertificate(
            True, tuple((gens[j][0], c) for j, c in enumerate(x) if c), None)
    return KoteljanskiiCertificate(False, None, tuple(-val for val in y))


def all_fractions(values):
    return all(type(val) is Fraction for val in values)


def cleared(columns, target):
    """The integer input of nonnegative_combination for rational columns
    and a rational target: the (k, m) array of Python ints whose row j is
    column j times the lcm of its denominators, and the target cleared as
    (ints, d)."""
    cols = [clear_denominators(col)[0] for col in columns]
    return (np.array(cols, dtype=object).reshape(len(cols), len(target)),
            clear_denominators(target))


def reported(certificate):
    """A cleared certificate ((x, e), None) or (None, (y, e)) as the
    Fractions x / e or y / e."""
    return tuple(None if part is None
                 else [Fraction(v, part[1]) for v in part[0]]
                 for part in certificate)


def solve(columns, target):
    """nonnegative_combination on `cleared(columns, target)`, its
    certificate as Fractions."""
    return reported(nonnegative_combination(*cleared(columns, target)))


def oracle(columns, target):
    """fraction_tableau on the cleared columns and the target."""
    return fraction_tableau(cleared(columns, target)[0].tolist(), target)


def assert_certificate_holds(cols, target, certificate):
    """The identities of a cleared certificate, in Python ints, for the
    integer columns `cols` (an array or a sequence) and a cleared target
    (ints, d) standing for T = ints / d.  A combination ((x, e), None) has
    e > 0, x >= 0 and sum_j x_j * C_j = e * T, that is d * sum_j x_j * C_j
    = e * ints.  A hyperplane (None, (y, e)) has e > 0, Y.C_j <= 0 for
    every column C_j and Y.T > 0, that is Y.ints > 0."""
    cols = [[int(v) for v in col] for col in
            (cols.tolist() if isinstance(cols, np.ndarray) else cols)]
    ints, d = target
    x, y = certificate
    assert (x is None) != (y is None)
    values, e = x if y is None else y
    assert type(e) is int and e > 0
    assert all(type(v) is int for v in values)
    if y is None:
        assert len(values) == len(cols) and min(values, default=0) >= 0
        sums = [sum(w * col[i] for w, col in zip(values, cols))
                for i in range(len(ints))]
        assert [d * v for v in sums] == [e * t for t in ints]
    else:
        assert len(values) == len(ints) and dot(values, ints) > 0
        assert all(dot(values, col) <= 0 for col in cols)


class TestFeasible:
    def test_exact_generator(self):
        cols = [(F(1), F(0)), (F(0), F(1))]
        x, y = solve(cols, (F(3), F(5)))
        assert y is None
        assert x == [F(3), F(5)]

    def test_rational_coefficients(self):
        cols = [(F(2), F(0)), (F(1), F(3))]
        x, y = solve(cols, (F(2), F(1)))
        assert y is None
        assert x[0] * 2 + x[1] == 2 and x[1] * 3 == 1

    def test_zero_target(self):
        cols = [(F(1), F(-1)), (F(2), F(5))]
        x, y = solve(cols, (F(0), F(0)))
        assert y is None
        assert all(c >= 0 for c in x)

    def test_redundant_generators(self):
        cols = [(F(1), F(0)), (F(2), F(0)), (F(0), F(1))]
        x, y = solve(cols, (F(4), F(1)))
        assert y is None
        assert x[0] + 2 * x[1] == 4 and x[2] == 1


class TestInfeasible:
    def test_wrong_orthant(self):
        cols = [(F(1), F(0)), (F(0), F(1))]
        x, y = solve(cols, (F(-1), F(0)))
        assert x is None
        assert y[0] * -1 + y[1] * 0 > 0
        for col in cols:
            assert y[0] * col[0] + y[1] * col[1] <= 0

    def test_outside_spanned_plane(self):
        cols = [(F(1), F(1), F(0))]
        x, y = solve(cols, (F(1), F(0), F(0)))
        assert x is None
        assert sum(a * b for a, b in zip(y, (1, 0, 0))) > 0

    def test_no_generators(self):
        x, y = solve([], (F(1),))
        assert x is None and y[0] > 0

    def test_empty_target(self):
        # m = 0: no constraint rows, so the reduced-cost row is k + 1 zeros
        # and every generator gets weight 0, over the denominator 1.
        for k in (0, 1, 3):
            cols = np.zeros((k, 0), dtype=np.int64)
            assert nonnegative_combination(cols, ([], 1)) == (([0] * k, 1),
                                                              None)
            assert fraction_tableau([()] * k, ()) == ([F(0)] * k, None)


class TestRandomized:
    def test_known_feasible_points_recovered(self):
        rng = random.Random(3)
        for _ in range(25):
            m, k = 4, 6
            cols = [tuple(F(rng.randint(-3, 3)) for _ in range(m))
                    for _ in range(k)]
            coeffs = [F(rng.randint(0, 4)) for _ in range(k)]
            target = tuple(sum(c * col[i] for c, col in zip(coeffs, cols))
                           for i in range(m))
            x, y = solve(cols, target)
            assert y is None
            rebuilt = tuple(sum(c * col[i] for c, col in zip(x, cols))
                            for i in range(m))
            assert rebuilt == target
            assert all(c >= 0 for c in x)

    def test_certificates_always_consistent(self):
        rng = random.Random(4)
        for _ in range(25):
            m, k = 3, 3
            cols = [tuple(F(rng.randint(-2, 2)) for _ in range(m))
                    for _ in range(k)]
            target = tuple(F(rng.randint(-3, 3)) for _ in range(m))
            x, y = solve(cols, target)
            if x is not None:
                rebuilt = tuple(sum(c * col[i] for c, col in zip(x, cols))
                                for i in range(m))
                assert rebuilt == target and all(c >= 0 for c in x)
            else:
                assert sum(a * b for a, b in zip(y, target)) > 0
                for col in cols:
                    assert sum(a * b for a, b in zip(y, col)) <= 0

    def test_rational_entries_and_column_scaling(self):
        # Rational entries, cleared column by column by `cleared`; scaling
        # an integer column by c > 0 divides its coefficient by c, scaling
        # the target by c > 0 scales the solution, and duals stay put.
        rng = random.Random(5)
        for _ in range(40):
            m, k = 3, 4
            cols = [tuple(F(rng.randint(-3, 3)) / rng.choice((1, 2, 3, 6))
                          for _ in range(m)) for _ in range(k)]
            if rng.random() < 0.5:
                coeffs = [F(rng.randint(0, 4)) / rng.choice((1, 2, 5))
                          for _ in range(k)]
                target = tuple(sum(c * col[i] for c, col in zip(coeffs, cols))
                               for i in range(m))
            else:
                target = tuple(F(rng.randint(-3, 3)) / rng.choice((1, 4))
                               for _ in range(m))
            ints, (tgt, d) = cleared(cols, target)
            x, y = reported(nonnegative_combination(ints, (tgt, d)))
            c = rng.randint(1, 5)
            scaled = ints.copy()
            scaled[0] *= c
            x2, y2 = reported(nonnegative_combination(scaled, (tgt, d)))
            q = rng.randint(1, 5)
            x3, y3 = reported(nonnegative_combination(
                ints, ([c * t for t in tgt], d * q)))
            if x is None:
                assert x2 is None and x3 is None and y2 == y3 == y
                assert dot(y, tgt) > 0
            else:
                rebuilt = [sum(a * col[i] for a, col in zip(x, ints.tolist()))
                           for i in range(m)]
                assert rebuilt == [Fraction(t, d) for t in tgt]
                assert all(a >= 0 for a in x)
                assert x2 == [x[0] / c] + x[1:]
                assert x3 == [Fraction(c, q) * a for a in x]

    def test_integer_tableau_matches_fraction_tableau(self):
        # Same pivots, same values: rational random systems, and
        # Koteljanskii columns at n = 4 against members and non-members.
        from minorcones.ratios import koteljanskii_generators
        rng = random.Random(6)
        cases = []
        for _ in range(300):
            m, k = rng.randint(1, 5), rng.randint(0, 7)
            cols = [tuple(F(rng.randint(-3, 3)) / rng.choice((1, 2, 3, 6))
                          for _ in range(m)) for _ in range(k)]
            target = tuple(F(rng.randint(-3, 3)) / rng.choice((1, 2, 6))
                           for _ in range(m))
            cases.append((cols, target))
        gens = [vec for _, vec in koteljanskii_generators(4)]
        for _ in range(30):
            target = [F(0)] * 16
            for _ in range(rng.randint(1, 4)):
                c = rng.choice((-1, 1, 2, Fraction(1, 2)))
                target = [t + c * g for t, g in zip(target, rng.choice(gens))]
            cases.append((gens, tuple(target)))
        for cols, target in cases:
            assert solve(cols, target) == oracle(cols, target)

    def test_returned_integers_satisfy_their_identities(self):
        # Seeded rational systems, cleared, and cone(K_4) targets on the
        # int64 generator matrix, also scaled past int64: both verdicts.
        verdicts = set()
        cases = [cleared(cols, target)
                 for cols, target in seeded_systems(13, 200)]
        for target in membership_targets(14, 40):
            ints, d = FormalLog(4, target).cleared
            cases += [(koteljanskii_matrix(4), (ints, d)),
                      (koteljanskii_matrix(4), ([v << 64 for v in ints], 3))]
        for cols, target in cases:
            certificate = nonnegative_combination(cols, target)
            assert_certificate_holds(cols, target, certificate)
            verdicts.add(certificate[0] is not None)
        assert verdicts == {True, False}

    def test_returned_integers_satisfy_their_identities_under_O(self):
        lines = run_under_O(IDENTITIES_SCRIPT)
        assert lines == ["debug False holds"] * 5


# Run in a fresh `python -O`: the cleared certificates of five LPs (unit
# columns with a member and a non-member target, the cone(K_4) member
# {1,2}{}/{1}{2}, R1, and the cone(K_6) member of the CI fixture), each
# checked in Python ints by its identity, printing whether it holds.
IDENTITIES_SCRIPT = """
import numpy as np
from minorcones.constants import R1
from minorcones.ratios import koteljanskii_matrix, log_of
from minorcones.simplex import nonnegative_combination
K6 = ('{1,2}{3,4}^2{2,5}{1,2,3,6}{1,2,4,6}^3{2,3,5,6}{1,2,3,4,5,6}^3 / '
      '{3}^2{4}^2{1,2,3}{2,3,5}{1,2,6}{2,5,6}{1,2,3,4,6}^3{1,2,4,5,6}^3')
unit = np.eye(2, dtype=np.int64)
cases = [(unit, ([3, 5], 2)), (unit, ([-1, 0], 1))]
for v in (log_of('{1,2}{} / {1}{2}', 4), R1(), log_of(K6, 6)):
    cases.append((koteljanskii_matrix(v.ground_size), v.cleared))
for cols, (ints, d) in cases:
    cols = cols.tolist()
    x, y = nonnegative_combination(np.array(cols), (ints, d))
    values, e = x or y
    if x is not None:
        sums = [sum(w * col[i] for w, col in zip(values, cols))
                for i in range(len(ints))]
        holds = (min(values) >= 0 and e > 0
                 and [d * v for v in sums] == [e * t for t in ints])
    else:
        holds = (e > 0 and sum(a * t for a, t in zip(values, ints)) > 0
                 and all(sum(a * c for a, c in zip(values, col)) <= 0
                         for col in cols))
    print('debug', __debug__, 'holds' if holds else 'fails')
"""


def membership_targets(seed, count):
    """Targets of the cone(K_4) LPs of a seeded n = 4 membership stream,
    drawn as perfbench's `membership` workload draws them: nonnegative
    integer combinations of 2-6 local generators (members) alternating
    with random {-1, 0, 1} combinations of the homogeneity basis."""
    rng, np_rng = random.Random(seed), np.random.default_rng(seed)
    gens = [vec for _, vec in koteljanskii_generators(4)]
    out = []
    for job in range(count):
        if job % 2:
            out.append(random_homogeneous_log(4, np_rng).exponents)
            continue
        vec = [0] * 16
        for _ in range(rng.randint(2, 6)):
            c = rng.randint(1, 3)
            vec = [a + c * g for a, g in zip(vec, rng.choice(gens))]
        out.append(tuple(vec))
    return out


def seeded_systems(seed, count):
    """Random (columns, target) with entries p/q, |p| <= 3, q | 6."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, k = rng.randint(1, 5), rng.randint(0, 7)
        cols = [tuple(F(rng.randint(-3, 3)) / rng.choice((1, 2, 3, 6))
                      for _ in range(m)) for _ in range(k)]
        target = tuple(F(rng.randint(-3, 3)) / rng.choice((1, 2, 6))
                       for _ in range(m))
        out.append((cols, target))
    return out


def largest(rows):
    return max((abs(x) for row in rows for x in row), default=0)


def assert_is_list_tableau(table, columns, target):
    """`table` holds the entries of list_tableau(columns, target), rows
    over z, as Python ints, in int64 exactly when every entry is below
    2^31 in absolute value."""
    rows, z, _ = list_tableau(columns, target)
    values = table.tolist()
    assert values == rows + [z]
    assert all(type(v) is int for v in sum(values, []))
    fits = largest(values) < simplex._INT64_LIMIT
    assert table.dtype == (INT64 if fits else OBJECT)


def assert_same_pivots(columns, target):
    """simplex._phase_one, on simplex._tableau of the cleared system, and
    list_phase_one, on list_tableau, leave the same (d, rows, z, basis),
    all Python ints.  _tableau returns the largest |entry| of an int64
    tableau with it."""
    cols, (tgt, _) = cleared(columns, target)
    table, top = simplex._tableau(cols, tgt)
    assert_is_list_tableau(table, columns, target)
    if table.dtype == INT64:
        assert top == largest(table.tolist())
    rows, z, basis = list_tableau(columns, target)
    expected = (list_phase_one(rows, z, basis), rows, z, basis)
    basis = list(range(len(columns), len(columns) + len(tgt)))
    table, d = simplex._phase_one(table, basis, top)
    values = table.tolist()
    assert (d, values[:-1], values[-1], basis) == expected
    assert all(type(v) is int for v in [d, *sum(values, []), *basis])
    return expected


def assert_exact_certificate(columns, target):
    """The certificate of the cleared system is Python ints that satisfy
    its identities."""
    cols, tgt = cleared(columns, target)
    assert_certificate_holds(cols, tgt, nonnegative_combination(cols, tgt))


class TableauRecorder:
    """Stands in for numpy inside simplex: records the dtype of each array
    that an existing array is turned into with np.array, and "exact" for
    each search of the largest |entry| (np.abs); everything else is
    numpy's own."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, values, dtype=None):
        if isinstance(values, np.ndarray):
            self.events.append(np.dtype(dtype))
        return np.array(values, dtype=dtype)

    def abs(self, table):
        self.events.append("exact")
        return np.abs(table)


@pytest.fixture
def tableau_events(monkeypatch):
    """The dtype of every tableau simplex._tableau builds, then the
    recorder's events of the pivots on it."""
    recorder = TableauRecorder()
    build = simplex._tableau

    def tableau(cols, tgt):
        table, top = build(cols, tgt)
        recorder.events.append(table.dtype)
        return table, top

    monkeypatch.setattr(simplex, "np", recorder)
    monkeypatch.setattr(simplex, "_tableau", tableau)
    return recorder.events


INT64, OBJECT = np.dtype(np.int64), np.dtype(object)


class TestNumpyTableauMatchesListTableau:
    def test_seeded_rational_systems(self):
        for cols, target in seeded_systems(7, 300):
            assert_same_pivots(cols, target)
            assert_exact_certificate(cols, target)

    def test_membership_stream(self):
        gens = [vec for _, vec in koteljanskii_generators(4)]
        verdicts = set()
        for target in membership_targets(9, 120):
            _, _, z, _ = assert_same_pivots(gens, target)
            assert_exact_certificate(gens, target)
            verdicts.add(z[-1] == 0)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [5, 6])
    def test_koteljanskii_lp(self, n):
        gens = [vec for _, vec in koteljanskii_generators(n)]
        v = random_homogeneous_log(n, np.random.default_rng(n))
        assert_same_pivots(gens, v.exponents)
        assert_exact_certificate(gens, v.exponents)

    def test_empty_target_and_no_columns(self):
        cases = [([()] * k, ()) for k in (0, 1, 3)] + [
            ([], target)
            for target in [(F(1),), (F(0), F(0)), (F(-2), Fraction(3, 2))]]
        for cols, target in cases:
            assert_same_pivots(cols, target)
            assert_exact_certificate(cols, target)

    def test_entries_up_to_the_int64_limit(self, tableau_events):
        # Integer entries up to 2^31 / 5 in absolute value, so that every
        # entry of the initial tableau, column sums included, is below
        # 2^31: the first pivot runs in int64 on products near 2^62.
        assert 2 * (simplex._INT64_LIMIT - 1) ** 2 < 1 << 63
        rng = random.Random(8)
        top = ((1 << 31) - 1) // 5
        for _ in range(60):
            m, k = rng.randint(1, 5), rng.randint(1, 7)
            cols = [tuple(rng.randint(-top, top) for _ in range(m))
                    for _ in range(k)]
            target = tuple(rng.randint(-top, top) for _ in range(m))
            del tableau_events[:]
            assert_same_pivots(cols, target)
            assert tableau_events[0] == INT64
            assert_exact_certificate(cols, target)

    @pytest.mark.parametrize("entry, fits", [
        (1, True), ((1 << 31) - 1, True), (1 - (1 << 31), True),
        (1 << 31, False), (-(1 << 31), False), (1 << 70, False)])
    def test_dtype_at_the_limit(self, entry, fits, tableau_events):
        # x = (entry, 0) or no solution by unit pivots, which never grow an
        # entry: int64 throughout, or Python ints from the start.
        cols, target = [(F(1), F(0)), (F(0), F(1))], (F(entry), F(0))
        assert_same_pivots(cols, target)
        events = tableau_events[:]
        assert_exact_certificate(cols, target)
        if not fits:
            assert events == [OBJECT]
            return
        assert events[0] == INT64 and OBJECT not in events
        # The carried bound reaches 2^31 only next to the limit; there the
        # largest entry is searched for, and is still below 2^31.
        assert ("exact" in events) == (abs(entry) > 1)

    def test_switch_after_a_pivot(self, tableau_events):
        # 46341^2 > 2^31: the first pivot leaves 46341^2 - 1 in row 1, so
        # the second, on that entry, runs on Python ints.
        cols, target = [(F(46341), F(1)), (F(1), F(46341))], (F(1), F(1))
        d, _, _, basis = assert_same_pivots(cols, target)
        assert d == 46341 ** 2 - 1 and sorted(basis) == [0, 1]
        assert tableau_events == [INT64, "exact", OBJECT]
        assert_exact_certificate(cols, target)

    def test_nonnegative_combination_builds_the_list_tableau(self,
                                                             monkeypatch):
        seen = []
        solve = simplex._phase_one

        def spy(table, basis, top):
            seen.append((table.copy(), list(basis)))
            return solve(table, basis, top)

        monkeypatch.setattr(simplex, "_phase_one", spy)
        cases = seeded_systems(10, 60) + [
            ([()] * 2, ()), ([], (F(1),)),
            ([(F(1 << 70), F(-1))], (F(-(1 << 40)), F(3)))]
        for cols, target in cases:
            nonnegative_combination(*cleared(cols, target))
            table, basis = seen.pop()
            assert_is_list_tableau(table, cols, target)
            assert basis == list_tableau(cols, target)[2]
        # The cached generator matrix and a cleared target, also one whose
        # entries need Python ints.
        gens = [vec for _, vec in koteljanskii_generators(4)]
        targets = [FormalLog(4, target)
                   for target in membership_targets(11, 20)]
        for v in targets:
            for ints, d in (v.cleared,
                            ([x << 40 for x in v.cleared[0]], 1 << 40)):
                nonnegative_combination(koteljanskii_matrix(4), (ints, d))
                table, basis = seen.pop()
                assert_is_list_tableau(table, gens, ints)
                assert basis == list(range(len(gens), len(gens) + 16))
        assert not seen

    def test_each_array_is_scanned_once(self, monkeypatch):
        # The generator matrix and the built tableau are each searched for
        # their largest |entry| once: _phase_one starts from the bound that
        # _tableau returns.
        scanned = []

        def spy(values):
            scanned.append(values.shape)
            return largest_entry(values)

        monkeypatch.setattr(simplex, "largest_entry", spy)
        gens = koteljanskii_matrix(4)
        k, m = gens.shape
        verdicts = set()
        for target in membership_targets(15, 10):
            del scanned[:]
            x, _ = nonnegative_combination(gens, FormalLog(4, target).cleared)
            assert scanned == [(k, m), (m + 1, k + m + 1)]
            verdicts.add(x is not None)
        assert verdicts == {True, False}


def tampered(corrupt):
    """A stand-in for simplex._phase_one that corrupts the tableau it
    leaves behind: corrupt(table, basis, d, start) edits it in place,
    `start` a copy of the tableau it was given."""
    solve = simplex._phase_one

    def phase_one(table, basis, top):
        start = table.copy()
        table, d = solve(table, basis, top)
        corrupt(table, basis, d, start)
        return table, d
    return phase_one


def bump_basic_value(table, basis, d, start):
    m = len(basis)
    k = table.shape[1] - 1 - m
    i = next(i for i, var in enumerate(basis) if var < k)
    table[i, -1] += d


def negate_basic_values(table, basis, d, start):
    table[:len(basis), -1] *= -1


def zero_dual(table, basis, d, start):
    m = len(basis)
    k = table.shape[1] - 1 - m
    table[m, k:k + m] = d


def raise_dual(table, basis, d, start):
    # y_i = 1000 on the first row whose target entry is 0: y.target > 0
    # still holds, but y.column > 0 for a column positive in that row.
    m = len(basis)
    k = table.shape[1] - 1 - m
    i = next(i for i in range(m) if start[i, -1] == 0)
    table[m, k + i] = d - 1000 * d


HADAMARD_4 = "{1,2}{} / {1}{2}"

# (corruption, message, whether it corrupts a member's combination rather
# than a non-member's dual): each is solved on the generator array, and
# through koteljanskii_cone_membership.
CORRUPTIONS = [
    (bump_basic_value, "nonnegative combination", True),
    (negate_basic_values, "nonnegative combination", True),
    (zero_dual, "Farkas", False),
    (raise_dual, "Farkas", False),
]


def corrupted_calls(member):
    """The two ways into the LP, on a cone(K_4) member or on R1."""
    v = log_of(HADAMARD_4, 4) if member else R1()
    return [
        lambda: nonnegative_combination(koteljanskii_matrix(4), v.cleared),
        lambda: koteljanskii_cone_membership(v),
    ]


class TestIntegerCertificateChecks:
    COLS = np.eye(2, dtype=np.int64)

    def test_corrupted_basis_value_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(bump_basic_value))
        with pytest.raises(CertificateError, match="nonnegative combination"):
            nonnegative_combination(self.COLS, ([3, 5], 1))

    def test_negated_basis_value_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one",
                            tampered(negate_basic_values))
        with pytest.raises(CertificateError, match="nonnegative combination"):
            nonnegative_combination(self.COLS, ([3, 5], 1))

    def test_corrupted_dual_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(zero_dual))
        with pytest.raises(CertificateError, match="Farkas"):
            nonnegative_combination(self.COLS, ([-1, 0], 1))

    def test_negative_weight_with_the_right_sum_raises(self, monkeypatch):
        # -1 * (0, 1) + 2 * (1, 1) = (2, 1): the product check passes, and
        # only the sign of the weights shows that this is no certificate.
        def swap_in_basis(table, basis, d, start):
            basis[:] = [2, 1]
            table[:2, -1] = [2 * d, -d]

        cols, target = np.array([[1, 0], [0, 1], [1, 1]]), ([2, 1], 1)
        assert nonnegative_combination(cols, target)[0] is not None
        monkeypatch.setattr(simplex, "_phase_one", tampered(swap_in_basis))
        with pytest.raises(CertificateError, match="nonnegative combination"):
            nonnegative_combination(cols, target)

    def test_corrupted_koteljanskii_dual_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(zero_dual))
        with pytest.raises(CertificateError, match="Farkas"):
            koteljanskii_cone_membership(R1())

    @pytest.mark.parametrize("corrupt,message,member", CORRUPTIONS)
    def test_every_entry_point_raises(self, corrupt, message, member,
                                      monkeypatch):
        calls = corrupted_calls(member)
        x, _ = calls[0]()
        assert (x is not None) == member
        assert calls[1]().verdict == member
        monkeypatch.setattr(simplex, "_phase_one", tampered(corrupt))
        for call in calls:
            with pytest.raises(CertificateError, match=message):
                call()

    def test_corrupted_dual_caught_under_O(self):
        lines = run_under_O(UNDER_O_SCRIPT, "zero_dual", "raise_dual")
        assert lines == ["debug False raised Farkas certificate failed "
                         "its check"] * 6

    def test_corrupted_combination_caught_under_O(self):
        lines = run_under_O(UNDER_O_SCRIPT, "bump", "negate")
        assert lines == ["debug False raised nonnegative combination "
                         "failed its check"] * 6


# Run in a fresh `python -O`: each named corruption of the tableau that
# simplex._phase_one leaves, on three ways into the LP (2 x 2 unit columns,
# the generator array, and koteljanskii_cone_membership), printing whether
# each one raised.
UNDER_O_SCRIPT = """
import sys
import numpy as np
from minorcones import simplex
from minorcones.cones import koteljanskii_cone_membership
from minorcones.constants import R1
from minorcones.exact import CertificateError
from minorcones.ratios import koteljanskii_matrix, log_of
solve = simplex._phase_one
def bump(table, basis, d):
    m = len(basis)
    k = table.shape[1] - 1 - m
    i = next(i for i, var in enumerate(basis) if var < k)
    table[i, -1] += d
def negate(table, basis, d):
    table[:len(basis), -1] *= -1
def zero_dual(table, basis, d):
    m = len(basis)
    k = table.shape[1] - 1 - m
    table[m, k:k + m] = d
def raise_dual(table, basis, d):
    m = len(basis)
    k = table.shape[1] - 1 - m
    i = next(i for i in range(m) if start[i, -1] == 0)
    table[m, k + i] = d - 1000 * d
for name in sys.argv[1:]:
    corrupt = globals()[name]
    member = name in ('bump', 'negate')
    v = log_of('{1,2}{} / {1}{2}', 4) if member else R1()
    def phase_one(table, basis, top):
        global start
        start = table.copy()
        table, d = solve(table, basis, top)
        corrupt(table, basis, d)
        return table, d
    simplex._phase_one = phase_one
    calls = [
        lambda: simplex.nonnegative_combination(
            np.eye(2, dtype=np.int64), ([3, 5] if member else [-1, 0], 1)),
        lambda: simplex.nonnegative_combination(koteljanskii_matrix(4),
                                                v.cleared),
        lambda: koteljanskii_cone_membership(v)]
    for call in calls:
        try:
            call()
            print('debug', __debug__, 'passed', name)
        except CertificateError as err:
            print('debug', __debug__, 'raised', err)
"""


def run_under_O(script, *args):
    """The stdout lines of `script` run with `args` in a fresh
    `python -O` on this package."""
    src = str(Path(simplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestArrayEntryPoint:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_generator_matrix_is_cached_and_read_only(self, n):
        gens = koteljanskii_matrix(n)
        assert gens is koteljanskii_matrix(n)
        assert gens.dtype == INT64 and not gens.flags.writeable
        assert gens.tolist() == [list(vec) for _, vec in
                                 koteljanskii_generators(n)]
        with pytest.raises(ValueError):
            gens[0, 0] = 2

    def test_no_generator_matrix_at_import(self):
        script = ("import minorcones, minorcones.cli\n"
                  "from minorcones import ratios\n"
                  "print(ratios.koteljanskii_matrix.cache_info().currsize)\n")
        src = str(Path(simplex.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"

    @pytest.mark.parametrize("n,count", [(4, 40), (5, 16), (6, 6)])
    def test_same_certificates_as_fraction_columns(self, n, count):
        # Seeded members (nonnegative rational combinations of local
        # generators) and random homogeneous logs, mostly non-members.
        # The target scaled by 7 and by 2^64 (a tableau of Python ints)
        # gives the same certificate; up to n = 5 it is also the one of
        # fraction_tableau on the Fraction columns, which takes seconds
        # per LP at n = 6.
        rng = random.Random(n)
        np_rng = np.random.default_rng(n)
        gens = [vec for _, vec in koteljanskii_generators(n)]
        columns = [tuple(map(F, vec)) for vec in gens]
        verdicts = set()
        for job in range(count):
            if job % 2:
                v = random_homogeneous_log(n, np_rng)
            else:
                vec = [F(0)] * (1 << n)
                for _ in range(rng.randint(1, 5)):
                    c = Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)))
                    vec = [a + c * g for a, g in zip(vec, rng.choice(gens))]
                v = FormalLog(n, tuple(vec))
            ints, d = v.cleared
            expected = reported(
                nonnegative_combination(koteljanskii_matrix(n), (ints, d)))
            if n <= 5:
                assert expected == fraction_tableau(columns, v.exponents)
            for target in ((ints, d), ([x * 7 for x in ints], d * 7),
                           ([x << 64 for x in ints], d << 64)):
                got = nonnegative_combination(koteljanskii_matrix(n), target)
                assert reported(got) == expected
                assert_certificate_holds(gens, target, got)
            verdicts.add(expected[0] is not None)
        assert verdicts == {True, False}

    def test_object_array_columns(self):
        # Integer columns with entries beyond int64, as an array of Python
        # ints, against fraction_tableau on the same columns.
        verdicts = set()
        for cols, target in seeded_systems(12, 60):
            ints, tgt = cleared(cols, target)
            ints <<= 70
            got = nonnegative_combination(ints, tgt)
            assert ints.dtype == OBJECT
            assert reported(got) == fraction_tableau(ints.tolist(), target)
            assert_certificate_holds(ints, tgt, got)
            verdicts.add(got[0] is not None)
        assert verdicts == {True, False}


def rational_logs():
    """n = 4 logs with non-integer exponents: parsed ratios with `^p/q`
    exponents, and seeded rational sums of Koteljanskii logs (members)
    and of signed ones (mostly non-members)."""
    out = [
        log_of("{1,2}^1/2{}^1/2 / {1}^1/2{2}^1/2", 4),
        log_of("{1,2,3,4}^3/2{1,3,4}^3/2{1,2}^3/2{1,4}^3/2{2,3}^3/2"
               "{2,4}^3/2{3}^3/2{}^3/2 / {1,2,3}^3/2{1,2,4}^3/2"
               "{2,3,4}^3/2{1,3}^3/2{3,4}^3/2{1}^3/2{2}^3/2{4}^3/2", 4),
        FormalLog(4, tuple(x / 3 for x in R1().exponents)),
        FormalLog(4, tuple(x / 6 for x in counterexample_E4().exponents)),
    ]
    rng = random.Random(8)
    gens = [vec for _, vec in koteljanskii_generators(4)]
    for k in range(40):
        vec = [F(0)] * 16
        for _ in range(rng.randint(1, 4)):
            c = Fraction(rng.randint(1, 5), rng.choice((2, 3, 4, 6)))
            if k % 2:
                c = rng.choice((-1, 1)) * c
            vec = [a + c * g for a, g in zip(vec, rng.choice(gens))]
        out.append(FormalLog(4, tuple(vec)))
    return out


class TestRationalInputsMatchFractionOracles:
    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    def test_membership_certificates(self, build):
        system = build(4)
        verdicts = set()
        for v in rational_logs():
            cert = membership(v, system)
            assert cert == fraction_membership(v, system)
            assert all_fractions(val for _, val in cert.inner_products)
            assert cert.witness is None or type(cert.witness[1]) is Fraction
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    def test_koteljanskii_certificates(self):
        verdicts = set()
        for v in rational_logs():
            cert = koteljanskii_cone_membership(v)
            assert cert == fraction_koteljanskii(v)
            if cert.verdict:
                assert all_fractions(c for _, c in cert.combination)
            else:
                assert all_fractions(cert.hyperplane)
                assert dot(cert.hyperplane, v.exponents) < 0
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}
