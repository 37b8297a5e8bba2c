import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from minorcones import simplex
from minorcones.cones import (KoteljanskiiCertificate, MembershipCertificate,
                              build_D_system, build_E_system,
                              koteljanskii_cone_membership, membership)
from minorcones.constants import R1, counterexample_E4
from minorcones.exact import CertificateError, dot
from minorcones.ratios import FormalLog, koteljanskii_generators, log_of
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

    def test_empty_target(self):
        # m = 0: no constraint rows, so the reduced-cost row is k + 1 zeros
        # and every generator gets weight 0.
        for k in (0, 1, 3):
            cols = [()] * k
            assert nonnegative_combination(cols, ()) == ([F(0)] * k, None)
            assert fraction_tableau(cols, ()) == ([F(0)] * k, None)


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


def tampered(corrupt):
    """A stand-in for simplex._phase_one that corrupts the tableau it
    leaves behind: corrupt(rows, z, basis, d) edits it in place."""
    solve = simplex._phase_one

    def phase_one(rows, z, basis):
        d = solve(rows, z, basis)
        corrupt(rows, z, basis, d)
        return d
    return phase_one


def bump_basic_value(rows, z, basis, d):
    k = len(z) - 1 - len(rows)
    i = next(i for i, var in enumerate(basis) if var < k)
    rows[i][-1] += d


def zero_dual(rows, z, basis, d):
    k = len(z) - 1 - len(rows)
    for i in range(len(rows)):
        z[k + i] = d


class TestIntegerCertificateChecks:
    COLS = [(F(1), F(0)), (F(0), F(1))]

    def test_corrupted_basis_value_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(bump_basic_value))
        with pytest.raises(CertificateError, match="nonnegative combination"):
            nonnegative_combination(self.COLS, (F(3), F(5)))

    def test_negated_basis_value_raises(self, monkeypatch):
        def negate(rows, z, basis, d):
            for row in rows:
                row[-1] = -row[-1]
        monkeypatch.setattr(simplex, "_phase_one", tampered(negate))
        with pytest.raises(CertificateError, match="nonnegative combination"):
            nonnegative_combination(self.COLS, (F(3), F(5)))

    def test_corrupted_dual_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(zero_dual))
        with pytest.raises(CertificateError, match="Farkas"):
            nonnegative_combination(self.COLS, (F(-1), F(0)))

    def test_corrupted_koteljanskii_dual_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_phase_one", tampered(zero_dual))
        with pytest.raises(CertificateError, match="Farkas"):
            koteljanskii_cone_membership(R1())

    def test_corrupted_dual_caught_under_O(self):
        script = (
            "from fractions import Fraction as F\n"
            "from minorcones import simplex\n"
            "from minorcones.exact import CertificateError\n"
            "solve = simplex._phase_one\n"
            "def phase_one(rows, z, basis):\n"
            "    d = solve(rows, z, basis)\n"
            "    k = len(z) - 1 - len(rows)\n"
            "    for i in range(len(rows)):\n"
            "        z[k + i] = d\n"
            "    return d\n"
            "simplex._phase_one = phase_one\n"
            "try:\n"
            "    simplex.nonnegative_combination([(1, 0), (0, 1)],\n"
            "                                    (F(-1), F(0)))\n"
            "except CertificateError as err:\n"
            "    print('debug', __debug__, 'raised', err)\n")
        src = str(Path(simplex.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("debug False raised")
        assert "Farkas" in done.stdout


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
