import random
from fractions import Fraction

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


class TestFeasible:
    def test_exact_generator(self):
        cols = [(F(1), F(0)), (F(0), F(1))]
        x, y = nonnegative_combination(cols, (F(3), F(5)))
        assert y is None
        assert x == [F(3), F(5)]

    def test_rational_coefficients(self):
        cols = [(F(2), F(0)), (F(1), F(3))]
        x, y = nonnegative_combination(cols, (F(2), F(1)))
        assert y is None
        assert x[0] * 2 + x[1] == 2 and x[1] * 3 == 1

    def test_zero_target(self):
        cols = [(F(1), F(-1)), (F(2), F(5))]
        x, y = nonnegative_combination(cols, (F(0), F(0)))
        assert y is None
        assert all(c >= 0 for c in x)

    def test_redundant_generators(self):
        cols = [(F(1), F(0)), (F(2), F(0)), (F(0), F(1))]
        x, y = nonnegative_combination(cols, (F(4), F(1)))
        assert y is None
        assert x[0] + 2 * x[1] == 4 and x[2] == 1


class TestInfeasible:
    def test_wrong_orthant(self):
        cols = [(F(1), F(0)), (F(0), F(1))]
        x, y = nonnegative_combination(cols, (F(-1), F(0)))
        assert x is None
        assert y[0] * -1 + y[1] * 0 > 0
        for col in cols:
            assert y[0] * col[0] + y[1] * col[1] <= 0

    def test_outside_spanned_plane(self):
        cols = [(F(1), F(1), F(0))]
        x, y = nonnegative_combination(cols, (F(1), F(0), F(0)))
        assert x is None
        assert sum(a * b for a, b in zip(y, (1, 0, 0))) > 0

    def test_no_generators(self):
        x, y = nonnegative_combination([], (F(1),))
        assert x is None and y[0] > 0


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
            x, y = nonnegative_combination(cols, target)
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
            x, y = nonnegative_combination(cols, target)
            if x is not None:
                rebuilt = tuple(sum(c * col[i] for c, col in zip(x, cols))
                                for i in range(m))
                assert rebuilt == target and all(c >= 0 for c in x)
            else:
                assert sum(a * b for a, b in zip(y, target)) > 0
                for col in cols:
                    assert sum(a * b for a, b in zip(y, col)) <= 0

    def test_rational_entries_and_column_scaling(self):
        # Entries with denominators are scaled to an integer tableau inside;
        # scaling a column by c > 0 divides its coefficient by c, scaling
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
            x, y = nonnegative_combination(cols, target)
            c = F(rng.randint(1, 5)) / rng.randint(1, 5)
            scaled = [tuple(c * v for v in cols[0])] + cols[1:]
            x2, y2 = nonnegative_combination(scaled, target)
            x3, y3 = nonnegative_combination(cols, [c * t for t in target])
            if x is None:
                assert x2 is None and x3 is None and y2 == y3 == y
                assert sum(a * b for a, b in zip(y, target)) > 0
            else:
                rebuilt = tuple(sum(a * col[i] for a, col in zip(x, cols))
                                for i in range(m))
                assert rebuilt == target and all(a >= 0 for a in x)
                assert x2 == [x[0] / c] + x[1:]
                assert x3 == [c * a for a in x]

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
            assert (nonnegative_combination(cols, target)
                    == fraction_tableau(cols, target))
