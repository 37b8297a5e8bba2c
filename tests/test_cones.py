import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from minorcones import cones, ratios
from minorcones.cones import (ConstraintSystem, build_D_system,
                              build_E_system, extreme_rays,
                              homogeneity_basis, koteljanskii_cone_membership,
                              koteljanskii_generators, membership,
                              orbit_decompose)
from minorcones.constants import M6, Q, R1, counterexample_E4
from minorcones.exact import (CertificateError, bareiss_rank, combine, dot,
                              exact_products, largest_norm, primitive, rref)
from minorcones.nullity import nullity_type
from minorcones.oracles import brute_force_rays, kernel_basis
from minorcones.probe import random_homogeneous_log
from minorcones.ratios import (FormalLog, delete_index, h_coordinates, is_homogeneous,
                               is_koteljanskii_ray, koteljanskii_log, log_of,
                               FormalLog)
from minorcones.simplex import nonnegative_combination
from minorcones.subsets import (complement_mask, format_subset,
                                group_gathers, subset_order)
from test_ratios import permute_mask


def relabel(vec, perm, comp, n):
    """Image of a subset-indexed vector under sigma, then complement."""
    img = [0] * (1 << n)
    for mask, x in enumerate(vec):
        target = permute_mask(mask, perm)
        img[complement_mask(target, n) if comp else target] = x
    return tuple(img)


def certificate_error_under_O(patch, build):
    """Run extreme_rays(`build`) under python -O in a fresh interpreter after
    the statements `patch`; return the CertificateError it printed."""
    script = ("from minorcones import cones\n"
              "from minorcones.exact import CertificateError\n"
              + patch +
              "try:\n"
              f"    cones.extreme_rays({build})\n"
              "except CertificateError as err:\n"
              "    print('debug', __debug__, 'raised', err)\n")
    src = str(Path(cones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("debug False raised")
    return done.stdout


class TestSystems:
    def test_e3_row_count(self):
        sys3 = build_E_system(3)
        # One superset row ({1,2,3}) and four subset rows (|S| <= 1).
        assert len(sys3.inequalities) == 5

    def test_e4_row_count(self):
        sys4 = build_E_system(4)
        # Five superset rows (|S| >= 3) and eleven subset rows (|S| <= 2).
        assert len(sys4.inequalities) == 16

    @pytest.mark.parametrize("n", range(2, 9))
    def test_e_rows_have_closed_forms(self, n):
        # nul(M_S)(T) = [S ⊆ T] for |S| >= 3 and nul(M^S)(T) = |T| - [T ⊄ S]
        # for |S| <= n - 2, each family in subset order: 466 rows at n = 8.
        order = subset_order(n)
        supersets = [s for s in order if s.bit_count() >= 3]
        subsets = [s for s in order if s.bit_count() <= n - 2]
        rows = ([tuple(int(s & t == s) for t in range(1 << n))
                 for s in supersets]
                + [tuple(t.bit_count() - (t & ~s != 0) for t in range(1 << n))
                   for s in subsets])
        system = build_E_system(n)
        assert system.inequalities == tuple(rows)
        assert system.labels == tuple(
            [f"nul(M_{format_subset(s)})" for s in supersets]
            + [f"nul(M^{format_subset(s)})" for s in subsets])
        if n == 8:
            assert len(rows) == 466

    def test_d3_equals_e3_after_dedup(self):
        # D_3's rows come from rank functions and E_3's from eliminating
        # M_S and M^S: the same constraints modulo homogeneity.
        d3, e3 = build_D_system(3), build_E_system(3)
        assert ({h_coordinates(row, 3) for row in d3.inequalities}
                == {h_coordinates(row, 3) for row in e3.inequalities})
        assert extreme_rays(d3) == extreme_rays(e3)

    def test_d4_row_count(self):
        assert len(build_D_system(4).inequalities) == 23

    def test_d5_rows_deduplicated(self):
        d5 = build_D_system(5)
        assert len(d5.inequalities) == len(set(d5.inequalities))

    @pytest.mark.parametrize("n,count", [(3, 5), (4, 23), (5, 149)])
    def test_d_rows_pairwise_h_inequivalent(self, n, count):
        rows = build_D_system(n).inequalities
        assert len(rows) == count
        assert len({h_coordinates(row, n) for row in rows}) == count

    def test_unsupported_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_E_system(1)
        with pytest.raises(ValueError):
            build_D_system(6)


class TestMembership:
    def test_hadamard_in_e2(self):
        cert = membership(log_of("{1,2}{} / {1}{2}", 2), build_E_system(2))
        assert cert.verdict and cert.witness is None

    def test_r1_in_d4(self):
        cert = membership(R1(), build_D_system(4))
        assert cert.verdict
        assert all(val >= 0 for _, val in cert.inner_products)

    def test_counterexample_in_e4_not_d4(self):
        v = counterexample_E4()
        assert membership(v, build_E_system(4)).verdict
        cert = membership(v, build_D_system(4))
        assert not cert.verdict
        label, value = cert.witness
        assert value == -1
        assert label == "{1}|{2}|{3,4}"
        row = cert.inner_products.index(cert.witness)
        assert (build_D_system(4).inequalities[row]
                == nullity_type(M6()).entries)

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            membership(log_of("{1,2} / {1}", 2), build_E_system(2))

    def test_ground_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            membership(log_of("{1,2}{} / {1}{2}", 2), build_E_system(3))

    @pytest.mark.parametrize("build,n", [(build_E_system, 4),
                                         (build_D_system, 4),
                                         (build_D_system, 5)])
    def test_integer_rows_cached_and_read_only(self, build, n):
        system = build(n)
        rows, norm = system.integer_rows
        assert rows is system.integer_rows[0]
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.tolist() == [list(row) for row in system.inequalities]
        assert norm == max(sum(map(abs, row))
                           for row in system.inequalities)
        with pytest.raises(ValueError):
            rows[0, 0] = 5

    def test_integer_rows_not_built_with_the_system(self):
        system = build_E_system(3)
        assert "integer_rows" not in vars(system)
        membership(log_of("{1,2}{} / {1}{2}", 3), system)
        assert "integer_rows" in vars(system)

    @staticmethod
    def dot_certificate(v, system):
        """The certificate from one Python-int dot product per row."""
        ints, d = v.cleared
        products = tuple((label, Fraction(dot(ints, row), d))
                         for label, row in zip(system.labels,
                                               system.inequalities))
        witness = next((p for p in products if p[1] < 0), None)
        return cones.MembershipCertificate(witness is None, products,
                                           witness)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matmul_equals_dot_products(self, n):
        # Random homogeneous logs, mostly non-members, and positive
        # rational sums of Koteljanskii generators, members of both.
        rng = np.random.default_rng(n)
        gens = [vec for _, vec in koteljanskii_generators(n)]
        for system in (build_E_system(n), build_D_system(n)):
            verdicts = set()
            for job in range(20):
                v = random_homogeneous_log(n, rng)
                if job % 2:
                    picks = rng.integers(len(gens), size=3)
                    v = FormalLog(n, tuple(
                        sum(Fraction(int(i) + 1, 3) * gens[i][s]
                            for i in picks) for s in range(1 << n)))
                cert = membership(v, system)
                assert cert == self.dot_certificate(v, system)
                verdicts.add(cert.verdict)
            assert verdicts == {True, False}

    @pytest.mark.parametrize("shift", [0, 40, 61, 62, 70])
    def test_products_past_int64_use_python_ints(self, shift):
        # Scaled rows and logs on both sides of the int64 bound: the
        # certificate is the same whichever way the products are taken.
        base = build_D_system(4)
        rows = tuple(tuple(x << shift for x in row)
                     for row in base.inequalities)
        system = ConstraintSystem(4, base.equalities, rows, base.labels)
        for v in (counterexample_E4(), R1(),
                  FormalLog(4, tuple(x * (1 << shift)
                                     for x in R1().exponents))):
            assert membership(v, system) == self.dot_certificate(v, system)
        rows, norm = system.integer_rows
        assert rows.dtype == (object if norm >= 1 << 63 else np.int64)


class TestExtremeRays:
    def test_e3_has_six_koteljanskii_rays(self):
        rays = extreme_rays(build_E_system(3))
        assert len(rays) == 6
        for r in rays:
            v = FormalLog(3, tuple(Fraction(x) for x in r.vector))
            assert is_koteljanskii_ray(v)

    def test_d4_counts(self):
        rays = extreme_rays(build_D_system(4))
        assert len(rays) == 46
        kot = [r for r in rays
               if is_koteljanskii_ray(
                   FormalLog(4, tuple(Fraction(x) for x in r.vector)))]
        assert len(kot) == 24

    def test_rays_satisfy_all_constraints(self):
        system = build_D_system(4)
        for r in extreme_rays(system):
            assert all(dot(r.vector, row) >= 0 for row in system.inequalities)
            assert all(dot(r.vector, eq) == 0 for eq in system.equalities)

    def test_insertion_order_invariance(self):
        system = build_E_system(3)
        shuffled = ConstraintSystem(3, system.equalities,
                                    system.inequalities[::-1],
                                    system.labels[::-1])
        assert extreme_rays(system) == extreme_rays(shuffled)

    @pytest.mark.parametrize("build, count",
                             [(build_E_system, 31), (build_D_system, 46)])
    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled_shuffled_system_gives_image_rays(self, build, count,
                                                         seed):
        rng = random.Random(seed)
        system = build(4)
        perm = tuple(rng.sample(range(1, 5), 4))
        comp = seed % 2 == 1
        order = list(range(len(system.inequalities)))
        rng.shuffle(order)
        rows = [relabel(system.inequalities[i], perm, comp, 4)
                for i in order]
        image = ConstraintSystem(
            4, tuple(relabel(e, perm, comp, 4) for e in system.equalities),
            tuple(rows), tuple(system.labels[i] for i in order))
        got = [r.vector for r in extreme_rays(image)]
        expected = {relabel(r.vector, perm, comp, 4)
                    for r in extreme_rays(system)}
        assert len(got) == len(set(got)) == count
        assert set(got) == expected

    @pytest.mark.parametrize("system", [build_E_system(4), build_D_system(4)])
    def test_tight_rows_have_rank_dim_minus_one(self, system):
        full = 1 << system.ground_size
        for r in extreme_rays(system):
            tight = [row for row in system.inequalities
                     if dot(row, r.vector) == 0]
            assert len(rref(tight + list(system.equalities))[0]) == full - 1

    def test_matches_brute_force_oracle(self):
        for system in (build_E_system(2), build_E_system(3),
                       build_D_system(3)):
            assert extreme_rays(system) == brute_force_rays(system)

    def test_non_extreme_output_fails_certificate(self, monkeypatch):
        found = cones._double_description

        def with_sum(rows, dim):
            lines, rays = found(rows, dim)
            return lines, rays + [tuple(map(sum, zip(rays[0], rays[1])))]

        monkeypatch.setattr(cones, "_double_description", with_sum)
        with pytest.raises(CertificateError, match="rank"):
            extreme_rays(build_E_system(3))

    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    def test_non_extreme_output_fails_certificate_at_n4(self, build,
                                                        monkeypatch):
        # The sum of two rays lies on a face of dimension 2 or more, so its
        # tight rows have rank at most dim - 2.
        found = cones._double_description

        def with_sum(rows, dim):
            lines, rays = found(rows, dim)
            return lines, rays + [tuple(map(sum, zip(rays[0], rays[1])))]

        monkeypatch.setattr(cones, "_double_description", with_sum)
        with pytest.raises(CertificateError, match="rank"):
            extreme_rays(build(4))

    @pytest.mark.parametrize("seed", range(20))
    def test_e3_with_random_rows_matches_brute_force(self, seed):
        rng = random.Random(seed)
        base = build_E_system(3)
        extra = tuple(tuple(rng.randint(-3, 3) for _ in range(8))
                      for _ in range(rng.randint(1, 3)))
        system = ConstraintSystem(
            3, base.equalities, base.inequalities + extra,
            base.labels + tuple(f"r{i}" for i in range(len(extra))))
        assert extreme_rays(system) == brute_force_rays(system)

    def test_zero_output_fails_certificate(self, monkeypatch):
        found = cones._double_description

        def with_zero(rows, dim):
            lines, rays = found(rows, dim)
            return lines, rays + [(0,) * dim]

        monkeypatch.setattr(cones, "_double_description", with_zero)
        with pytest.raises(CertificateError, match="zero"):
            extreme_rays(build_E_system(3))

    def test_infeasible_output_fails_certificate_under_O(self):
        out = certificate_error_under_O(
            "found = cones._double_description\n"
            "def negated(rows, dim):\n"
            "    lines, rays = found(rows, dim)\n"
            "    return lines, [tuple(-x for x in rays[0])]\n"
            "cones._double_description = negated\n",
            "cones.build_E_system(3)")
        assert "inequality" in out

    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    def test_off_quotient_output_fails_equality(self, build, monkeypatch):
        # Every E/D row is 0 at the empty set, so adding e_{} moves no
        # inequality value, but it breaks the all-ones equality.
        system = build(4)
        assert all(row[0] == 0 for row in system.inequalities)
        lift = cones._ambient

        def shifted(coords, n):
            vecs = lift(coords, n)
            vecs[:, 0] += 1
            return vecs

        monkeypatch.setattr(cones, "_ambient", shifted)
        with pytest.raises(CertificateError, match="equality"):
            extreme_rays(system)

    def test_off_quotient_output_fails_equality_under_O(self):
        out = certificate_error_under_O(
            "lift = cones._ambient\n"
            "def shifted(coords, n):\n"
            "    vecs = lift(coords, n)\n"
            "    vecs[:, 0] += 1\n"
            "    return vecs\n"
            "cones._ambient = shifted\n",
            "cones.build_D_system(4)")
        assert "equality" in out

    def test_lineality_is_the_primitive_lift_of_a_line(self):
        # Two E3 rows leave lines: the error carries the first one, lifted.
        base = build_E_system(3)
        system = ConstraintSystem(3, base.equalities, base.inequalities[:2],
                                  base.labels[:2])
        reduced, dim = reduced_system(system)
        lines, _ = cones._double_description(sorted(reduced), dim)
        with pytest.raises(cones.NonPointedConeError) as err:
            extreme_rays(system)
        assert err.value.lineality == primitive(ratios.h_lift(lines[0], 3))
        assert all(type(x) is int for x in err.value.lineality)

    def test_zero_cone_has_no_rays(self):
        # h-coordinate +1 and -1 on {1,2}: the pointed cone {0} in dim 1.
        system = ConstraintSystem(2, build_E_system(2).equalities,
                                  ((0, 0, 0, 1), (0, 0, 0, -1)), ("a", "b"))
        assert extreme_rays(system) == []
        assert brute_force_rays(system) == []

    def test_rays_are_primitive(self):
        from math import gcd
        for r in extreme_rays(build_E_system(3)):
            assert gcd(*[abs(x) for x in r.vector if x] or [1]) == 1


def reduced_system(system):
    n = system.ground_size
    return (cones._reduce_rows(system.inequalities, n).tolist(),
            len(homogeneity_basis(n)))


def ray_set(rays):
    return {primitive(r) for r in rays}


def reference_double_description(ineqs, dim):
    """The double description as it was before slots: the per-row index of
    tight rays is rebuilt from every ray's bitmask at each inequality step
    that removes a ray, and the list of rays is rebuilt at every step."""
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    tight = []

    for k, a in enumerate(ineqs):
        bit = 1 << k
        pivot_idx = next((i for i, l in enumerate(lines) if dot(a, l) != 0),
                         None)
        if pivot_idx is not None:
            pivot = lines.pop(pivot_idx)
            if dot(a, pivot) < 0:
                pivot = tuple(-x for x in pivot)
            ap = dot(a, pivot)
            lines = [combine(ap, l, dot(a, l), pivot) for l in lines]
            rays = [combine(ap, r, dot(a, r), pivot) for r in rays]
            rays.append(pivot)
            tight = [t | bit for t in tight] + [bit - 1]
            continue

        values = [dot(a, r) for r in rays]
        kept = [(r, t | bit if val == 0 else t)
                for r, t, val in zip(rays, tight, values) if val >= 0]
        if len(kept) == len(rays):
            tight = [t for _, t in kept]
            continue
        index = [0] * k
        for i, t in enumerate(tight):
            while t:
                low = t & -t
                index[low.bit_length() - 1] |= 1 << i
                t ^= low
        everyone = (1 << len(rays)) - 1
        target = dim - len(lines) - 2
        positive = [i for i, val in enumerate(values) if val > 0]
        negative = [i for i, val in enumerate(values) if val < 0]
        for im in negative:
            for ip in positive:
                common = tight[ip] & tight[im]
                if common.bit_count() < target:
                    continue
                pair = (1 << ip) | (1 << im)
                others = everyone
                rest = common
                while rest and others != pair:
                    low = rest & -rest
                    others &= index[low.bit_length() - 1]
                    rest ^= low
                if others != pair:
                    continue
                w = combine(values[ip], rays[im], values[im], rays[ip])
                kept.append((w, common | bit))
        rays = [r for r, _ in kept]
        tight = [t for _, t in kept]
    return lines, rays


def relabelled_shuffled_rows(system, seed):
    """The quotient rows of `system` after a seeded relabelling (odd seeds
    also complement) and a seeded shuffle."""
    n = system.ground_size
    rng = random.Random(seed)
    perm = tuple(rng.sample(range(1, n + 1), n))
    rows = [relabel(row, perm, seed % 2 == 1, n)
            for row in system.inequalities]
    rng.shuffle(rows)
    return cones._reduce_rows(rows, n).tolist()


class TestDoubleDescriptionReference:
    @pytest.mark.parametrize("build, n", [(build_E_system, 3),
                                          (build_D_system, 3),
                                          (build_E_system, 4),
                                          (build_D_system, 4),
                                          (build_E_system, 5)])
    def test_lexmin_order(self, build, n):
        reduced, dim = reduced_system(build(n))
        rows = sorted(reduced)
        assert (cones._double_description(rows, dim)
                == reference_double_description(rows, dim))

    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    @pytest.mark.parametrize("seed", range(4))
    def test_relabelled_shuffled_orders(self, build, seed):
        system = build(4)
        rows = relabelled_shuffled_rows(system, seed)
        dim = len(homogeneity_basis(4))
        lines, rays = cones._double_description(rows, dim)
        assert (lines, rays) == reference_double_description(rows, dim)
        assert lines == [] and len(rays) == (31 if build is build_E_system
                                             else 46)

    @pytest.mark.parametrize("seed, dim, count", [
        (0, 3, 1), (1, 4, 2), (2, 5, 3), (3, 3, 8), (4, 4, 12), (5, 5, 15)])
    def test_negative_line_pivots(self, seed, dim, count):
        # The first row is negative on the first unit line, so the first
        # line step flips its pivot; the seeded rows after it have negative
        # leading entries too.  With fewer rows than dim, lines are left.
        rng = random.Random(seed)
        rows = [(-1,) + (0,) * (dim - 1)]
        rows += [tuple(rng.randint(-3, 3) for _ in range(dim))
                 for _ in range(count)]
        lines, rays = cones._double_description(rows, dim)
        assert (lines, rays) == reference_double_description(rows, dim)
        assert all(dot(row, r) >= 0 for row in rows for r in rays)
        assert (len(lines) > 0) == (count + 1 < dim)


def seeded_stacks(seed):
    """Integer matrices with boolean row selections: entries that are
    negative or at least p, rank-deficient products, and empty selections."""
    rng = random.Random(seed)
    p = cones._CERTIFICATE_PRIME
    for k in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        if k % 3 == 0:
            rows = [[rng.randint(-5, 5) for _ in range(ncols)]
                    for _ in range(nrows)]
        elif k % 3 == 1:
            rows = [[rng.choice((-1, 1)) * rng.randint(0, 3 * p)
                     for _ in range(ncols)] for _ in range(nrows)]
        else:
            inner = rng.randint(0, min(nrows, ncols) - 1)
            left = [[rng.randint(-9, 9) for _ in range(inner)]
                    for _ in range(nrows)]
            right = [[rng.randint(-9, 9) * (p + 2) for _ in range(ncols)]
                     for _ in range(inner)]
            rows = [[dot(row, col) for col in zip(*right)] if inner
                    else [0] * ncols for row in left]
        tight = [[rng.random() < 0.7 for _ in range(nrows)]
                 for _ in range(rng.randint(1, 5))]
        tight.append([False] * nrows)
        yield rows, tight


@pytest.fixture
def fallback_calls(monkeypatch):
    """Row counts of the certificate's exact Bareiss calls."""
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return bareiss_rank(rows)

    monkeypatch.setattr(cones, "bareiss_rank", spy)
    return calls


def gram_coords(rows, tight, rng):
    """Per selection in `tight`, the exact rank of the selected rows and a
    vector c: a kernel vector of those rows when they have one, so that
    rank cols - 1 leaves G = T^T T + c c^T positive definite, and else a
    random vector."""
    cols = len(rows[0])
    ranks, coords = [], []
    for flags in tight:
        selected = [row for row, t in zip(rows, flags) if t]
        ranks.append(bareiss_rank(selected))
        kernel = kernel_basis(selected, cols)
        coords.append(list(kernel[0]) if kernel
                      else [rng.randint(-5, 5) for _ in range(cols)])
    return ranks, coords


def certified(rows, tight, coords):
    """`_gram_certified` on nested lists, as Python-int (object) arrays."""
    cols = len(rows[0])
    return cones._gram_certified(
        np.array(rows, dtype=object), np.array(tight, dtype=bool),
        np.array(coords, dtype=object).reshape(-1, cols)).tolist()


class TestModularCertificate:
    @pytest.mark.parametrize("seed", range(3))
    def test_certified_selections_have_rank_cols_minus_one(self, seed):
        # Sound for any c: a kernel vector, a random vector or zero.
        rng = random.Random(seed)
        p = cones._CERTIFICATE_PRIME
        for rows, tight in seeded_stacks(seed):
            cols = len(rows[0])
            ranks, coords = gram_coords(rows, tight, rng)
            others = [[rng.randint(-3, 3) * rng.choice((1, p))
                       for _ in range(cols)] for _ in tight]
            for cs in (coords, others, [[0] * cols for _ in tight]):
                for ok, rank in zip(certified(rows, tight, cs), ranks):
                    # So a selection of rank <= cols - 2 is never certified.
                    assert not ok or rank >= cols - 1
            if max(abs(x) for row in rows for x in row) <= 5:
                # Small entries: a pivot vanishing mod p would be chance.
                assert certified(rows, tight, coords) == [
                    rank >= cols - 1 for rank in ranks]

    def test_modular_rank_can_only_fall_short(self):
        # Rank 1 = cols - 1 and c spans the kernel, but G = diag(p^2, 1)
        # has a zero pivot mod p: the ray goes to the exact fallback.
        p = cones._CERTIFICATE_PRIME
        rows = [[p, 0]]
        assert certified(rows, [[True]], [[0, 1]]) == [False]
        assert bareiss_rank(rows) == 1

    def test_no_rays_no_ranks(self):
        assert certified([[1, 2]], [], []) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_int64_and_object_rows_agree(self, seed):
        # Unequal selections, one with no row and one with every row, over
        # full-rank and deficient rows with entries past p, given as
        # int64 and Python-int (object) arrays.
        rng = random.Random(seed)
        p = cones._CERTIFICATE_PRIME
        for nrows, ncols, inner in ((9, 5, 5), (12, 6, 3), (7, 8, 7),
                                    (6, 4, 3)):
            left = [[rng.randint(-4, 4) for _ in range(inner)]
                    for _ in range(nrows)]
            right = [[rng.randint(-4, 4) + rng.choice((0, p))
                      for _ in range(ncols)] for _ in range(inner)]
            rows = [[dot(row, col) for col in zip(*right)] for row in left]
            tight = [[i < k for i in range(nrows)] for k in range(nrows + 1)]
            tight += [rng.sample([True] * k + [False] * (nrows - k), nrows)
                      for k in (1, 2, nrows - 1)]
            rng.shuffle(tight)
            ranks, coords = gram_coords(rows, tight, rng)
            expected = certified(rows, tight, coords)
            assert all(rank >= ncols - 1 for ok, rank in zip(expected, ranks)
                       if ok)
            # G mod p depends on c mod p only; the kernel vectors may not
            # fit in int64, their residues do.
            residues = [[x % p for x in c] for c in coords]
            for dtype in (np.int64, object):
                assert cones._gram_certified(
                    np.array(rows, dtype=dtype), np.array(tight),
                    np.array(residues, dtype=dtype)).tolist() == expected

    @pytest.mark.parametrize("system", [build_E_system(4), build_D_system(4)])
    def test_bareiss_fallback_certifies_short_modular_ranks(
            self, system, monkeypatch, fallback_calls):
        expected = extreme_rays(system)
        fallback_calls.clear()
        monkeypatch.setattr(
            cones, "_gram_certified",
            lambda rows, tight, coords: np.zeros(len(tight), dtype=bool))
        assert extreme_rays(system) == expected
        assert len(fallback_calls) == len(expected)

    def test_rows_scaled_by_the_prime_certify_through_fallback(
            self, fallback_calls):
        system = build_E_system(4)
        p = cones._CERTIFICATE_PRIME
        scaled = ConstraintSystem(
            4, system.equalities,
            tuple(tuple(p * x for x in row) for row in system.inequalities),
            system.labels)
        assert extreme_rays(scaled) == extreme_rays(system)
        assert len(fallback_calls) == 31

    @pytest.mark.parametrize("build, n", [(build_E_system, 3),
                                          (build_D_system, 3),
                                          (build_E_system, 4),
                                          (build_D_system, 4),
                                          (build_E_system, 5)])
    def test_paper_systems_need_no_fallback(self, build, n, fallback_calls):
        assert extreme_rays(build(n))
        assert fallback_calls == []


# E3-E5 and D3-D4; the lift test keeps its first three, E4, D4 and E5.
LIFT_SYSTEMS = [build_E_system(4), build_D_system(4), build_E_system(5),
                build_E_system(3), build_D_system(3)]


def shifted_rows(rows, shift):
    return [tuple(x << shift for x in row) for row in rows]


def dot_products(rows, vecs):
    return [[dot(row, vec) for vec in vecs] for row in rows]


@pytest.fixture
def product_dtypes(monkeypatch):
    """dtypes of the certificate's exact products, in call order; a norm
    the caller passes must be the rows' largest L1 norm."""
    dtypes = []
    found = cones.exact_products

    def spy(rows, vecs, norm=None):
        assert norm is None or norm == largest_norm(rows)
        values = found(rows, vecs, norm)
        dtypes.append(values.dtype)
        return values

    monkeypatch.setattr(cones, "exact_products", spy)
    return dtypes


class TestExactProducts:
    @pytest.mark.parametrize("seed", range(4))
    def test_products_equal_dot(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            width = rng.randint(1, 9)
            big = 1 << rng.choice((3, 30, 55, 62, 62))
            rows = [[rng.randint(-big, big) for _ in range(width)]
                    for _ in range(rng.randint(1, 6))]
            vecs = [[rng.randint(-7, 7) for _ in range(width)]
                    for _ in range(rng.randint(1, 6))]
            norm = max(sum(map(abs, row)) for row in rows)
            top = max(abs(x) for vec in vecs for x in vec)
            values = exact_products(rows, vecs)
            assert values.tolist() == dot_products(rows, vecs)
            assert ((values.dtype == np.int64)
                    == (max(norm, 1) * max(top, 1) < 1 << 63))

    @pytest.mark.parametrize("rows, vecs, dtype", [
        # ||row||_1 * max |vec| = 2^63 - 1: int64 holds the largest sum.
        ([[(1 << 62) - 1, 1 << 62]], [[1, 1], [-1, -1]], np.int64),
        # ... = 2^63: one more and the sum would wrap, so Python ints.
        ([[1 << 62, 1 << 62]], [[1, 1], [-1, -1]], object),
        # All-zero vectors: the rows must still fit in int64.
        ([[1 << 63, 0]], [[0, 0]], object),
        ([[0, 0]], [[1 << 63, 0]], object),
    ])
    def test_bound_edges(self, rows, vecs, dtype):
        values = exact_products(rows, vecs)
        assert values.dtype == dtype
        assert values.tolist() == dot_products(rows, vecs)

    @pytest.mark.parametrize("rows", [
        [[3, -4, 0], [1, 1, 1]],
        # Sums past 2^63, which an int64 sum would wrap.
        [[1 << 62, 1 << 62], [-1, 0]],
        [[-(1 << 63), 0], [5, 5]],
        [[(1 << 63) - 1, -(1 << 63)]],
    ])
    def test_norm_of_int64_arrays_is_exact(self, rows):
        expected = max(sum(map(abs, row)) for row in rows)
        for given in (np.array(rows, dtype=np.int64),
                      np.array(rows, dtype=object)):
            assert largest_norm(given) == expected
        assert largest_norm(np.zeros((0, 3), dtype=np.int64)) == 0

    def test_int64_array_rows_at_the_bound(self):
        # ||row||_1 = 2^63 - 1 as an int64 array: int64 holds every sum.
        rows = np.array([[(1 << 62) - 1, 1 << 62]], dtype=np.int64)
        values = exact_products(rows, [[1, 1], [-1, -1]])
        assert values.dtype == np.int64
        assert values.tolist() == [[(1 << 63) - 1, 1 - (1 << 63)]]
        assert exact_products(rows, [[2, 0]]).dtype == object

    @pytest.mark.parametrize("shift, dtype", [(40, np.int64), (60, object)])
    def test_scaled_e4_rows_give_the_same_rays(self, shift, dtype,
                                               product_dtypes):
        # The E4 rows have ||row||_1 <= 20, the homogeneity basis entries
        # in -1..3 and the rays entries in -1..1: 60 * 2^40 keeps the bound
        # below 2^63, 20 * 2^60 does not.  The products are, in order, the
        # reduction of the rows, the lift of the rays (small primitive
        # coordinates either way), the inequality and the equality checks.
        system = build_E_system(4)
        scaled = ConstraintSystem(
            4, system.equalities,
            tuple(tuple(x << shift for x in row)
                  for row in system.inequalities), system.labels)
        assert extreme_rays(scaled) == extreme_rays(system)
        assert product_dtypes[:4] == [dtype, np.int64, dtype, np.int64]

    @pytest.mark.parametrize("system", [build_E_system(4), build_D_system(4),
                                        build_E_system(5)])
    def test_full_space_zeros_are_the_quotient_zeros(self, system):
        # vec = B^T c / g with g > 0, so row . vec = (B row) . c / g.
        n = system.ground_size
        reduced, dim = reduced_system(system)
        _, rays = cones._double_description(sorted(reduced), dim)
        vecs = cones._ambient(rays, n)
        full = exact_products(system.inequalities, vecs) == 0
        assert full.T.tolist() == [
            [dot(h_coordinates(row, n), coords) == 0
             for row in system.inequalities] for coords in rays]

    @pytest.mark.parametrize("system", LIFT_SYSTEMS)
    def test_ambient_is_the_primitive_lift(self, system):
        n = system.ground_size
        reduced, dim = reduced_system(system)
        _, rays = cones._double_description(sorted(reduced), dim)
        # Every ray, then multiples whose lift has a common factor.
        coords = rays + [tuple(k * x for x in rays[0]) for k in (6, -4, 0)]
        vecs = cones._ambient(coords, n)
        assert vecs.dtype == np.int64
        assert list(map(tuple, vecs.tolist())) == [
            primitive(ratios.h_lift(c, n)) for c in coords]


class TestArrayQuotient:
    """The reduction and the lift of the certificate are two exact products
    with `homogeneity_matrix(n)`; the tuple forms `h_coordinates` and
    `primitive(h_lift(...))` are their reference."""

    @pytest.mark.parametrize("system", LIFT_SYSTEMS)
    def test_reduction_is_h_coordinates(self, system):
        n = system.ground_size
        expected = [list(h_coordinates(row, n)) for row in system.inequalities]
        for rows in (system.inequalities, system.integer_rows[0]):
            reduced = cones._reduce_rows(rows, n)
            assert reduced.dtype == np.int64
            assert reduced.tolist() == expected

    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    def test_reduction_of_rows_scaled_by_2_60(self, build):
        # ||row||_1 * 2^60 passes 2^63: the product runs on Python ints.
        n = 4
        rows = shifted_rows(build(n).inequalities, 60)
        reduced = cones._reduce_rows(rows, n)
        assert reduced.dtype == object
        assert reduced.tolist() == [list(h_coordinates(row, n))
                                    for row in rows]

    @pytest.mark.parametrize("build", [build_E_system, build_D_system])
    def test_lift_of_rays_of_rows_scaled_by_2_60(self, build):
        # The double description of the scaled rows gives the same
        # primitive coordinates; scaled by 2^60 again they lift on Python
        # ints, to the same primitive vectors.
        n = 4
        system = build(n)
        rows = cones._reduce_rows(shifted_rows(system.inequalities, 60),
                                 n).tolist()
        _, rays = cones._double_description(sorted(rows), len(rows[0]))
        assert ray_set(rays) == ray_set(cones._double_description(
            sorted(reduced_system(system)[0]), len(rows[0]))[1])
        coords = shifted_rows(rays, 60) + [
            tuple(3 * x for x in shifted_rows(rays, 61)[0])]
        vecs = cones._ambient(coords, n)
        assert vecs.dtype == object
        assert list(map(tuple, vecs.tolist())) == [
            primitive(ratios.h_lift(c, n)) for c in coords]
        assert list(map(tuple, vecs.tolist()))[:len(rays)] == list(map(
            tuple, cones._ambient(rays, n).tolist()))


def test_structural_lineality_rank_runs_on_python_ints(monkeypatch):
    # The D4 lineality check ranks the reduced rows by exact Bareiss
    # elimination, which must see Python ints and not int64 scalars.
    from minorcones import reproduce
    seen = []
    found = reproduce.rank

    def spy(rows):
        seen.append({type(x) for row in rows for x in row})
        return found(rows)

    monkeypatch.setattr(reproduce, "rank", spy)
    assert reproduce.check_structural_identities().passed
    assert seen and all(types == {int} for types in seen)


def test_structural_rank_nullity_sees_a_wrong_rank(monkeypatch):
    # The check ranks each column submatrix of the catalogue's base
    # matrices apart from the subset walk, so a rank one too high on every
    # two-column input fails every base.
    from minorcones import nullity, reproduce
    found = reproduce.rank
    monkeypatch.setattr(reproduce, "rank",
                        lambda rows: found(rows) + (len(rows[0]) == 2))
    check = reproduce.check_structural_identities()
    assert not check.passed
    assert check.details["failures"] == [
        f"rank-nullity: {name}" for name, _ in nullity.CATALOG_N4_BASES]


def test_structural_d3_rays_see_a_system_that_e3_shares(monkeypatch):
    # One wrong row set returned by both the D3 and E3 builds gives equal
    # rays; the check compares D3's rays with the six local Koteljanskii
    # generators instead.  Without one of its five rows, the cone has other
    # rays.
    from minorcones import reproduce
    right = build_D_system(3)
    wrong = ConstraintSystem(3, right.equalities, right.inequalities[1:],
                             right.labels[1:])
    for name in ("build_D_system", "build_E_system"):
        build = getattr(cones, name)
        monkeypatch.setattr(cones, name, lambda n, build=build:
                            wrong if n == 3 else build(n))
    check = reproduce.check_structural_identities()
    assert not check.passed
    assert check.details["failures"] == [
        "D3 rays != local Koteljanskii generators"]


class TestInsertionOrder:
    @pytest.mark.parametrize("build, n", [(build_E_system, 3),
                                          (build_E_system, 4),
                                          (build_D_system, 3),
                                          (build_D_system, 4)])
    def test_given_and_lexmin_orders_agree(self, build, n):
        reduced, dim = reduced_system(build(n))
        assert reduced != sorted(reduced)
        given = cones._double_description(reduced, dim)
        lexmin = cones._double_description(sorted(reduced), dim)
        assert given[0] == lexmin[0] == []
        assert ray_set(given[1]) == ray_set(lexmin[1])
        assert len(given[1]) == len(lexmin[1])

    def test_e5_reverse_and_shuffled_orders_agree_with_lexmin(self):
        reduced, dim = reduced_system(build_E_system(5))
        shuffled = list(reduced)
        random.Random(0).shuffle(shuffled)
        lexmin = cones._double_description(sorted(reduced), dim)
        assert lexmin[0] == [] and len(lexmin[1]) == 1310
        for rows in (sorted(reduced, reverse=True), shuffled):
            lines, rays = cones._double_description(rows, dim)
            assert lines == [] and len(rays) == 1310
            assert ray_set(rays) == ray_set(lexmin[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_combine_is_the_primitive_difference(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            width = rng.randint(1, 6)
            u, v = ([rng.randint(-4, 4) * rng.choice((1, 6))
                     for _ in range(width)] for _ in range(2))
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            w = [s * x - t * y for x, y in zip(u, v)]
            assert combine(s, u, t, v) == (primitive(w) if any(w) else None)


class TestHomogeneityBasis:
    def test_dimension(self):
        assert len(homogeneity_basis(3)) == 8 - 3 - 1
        assert len(homogeneity_basis(4)) == 16 - 4 - 1

    def test_basis_vectors_homogeneous(self):
        for vec in homogeneity_basis(4):
            assert is_homogeneous(FormalLog(4, tuple(Fraction(x)
                                                     for x in vec)))


class TestKoteljanskiiCone:
    def test_generator_is_member(self):
        v = log_of("{1,2,3}{1} / {1,2}{1,3}", 3)
        cert = koteljanskii_cone_membership(v)
        assert cert.verdict
        total = [Fraction(0)] * 8
        gens = dict(koteljanskii_generators(3))
        for (s, t), coeff in cert.combination:
            col = gens[(s, t)]
            total = [acc + coeff * x for acc, x in zip(total, col)]
        assert tuple(total) == v.exponents

    def test_sum_of_generators_is_member(self):
        a = log_of("{1,2}{} / {1}{2}", 3)
        b = log_of("{1,2,3}{1} / {1,2}{1,3}", 3)
        v = FormalLog(3, tuple(x + y for x, y in zip(a.exponents,
                                                     b.exponents)))
        assert koteljanskii_cone_membership(v).verdict

    def test_r1_outside_with_separating_hyperplane(self):
        cert = koteljanskii_cone_membership(R1())
        assert not cert.verdict
        h = cert.hyperplane
        assert dot(h, R1().exponents) < 0
        for _, col in koteljanskii_generators(4):
            assert dot(h, col) >= 0

    def test_zero_vector_is_member(self):
        assert koteljanskii_cone_membership(
            FormalLog(2, (Fraction(0),) * 4)).verdict


def all_pairs_koteljanskii(n):
    """Oracle: every distinct nonzero (S∪T)(S∩T)/(S)(T) over all
    incomparable pairs, by the O(4^n) scan the package no longer runs."""
    return list(dict.fromkeys(
        koteljanskii_log(s, t, n).exponents
        for s in range(1 << n) for t in range(s + 1, 1 << n)
        if s | t not in (s, t)))


def rebuild(cert, n):
    gens = dict(koteljanskii_generators(n))
    total = [Fraction(0)] * (1 << n)
    for label, coeff in cert.combination:
        assert coeff > 0
        total = [acc + coeff * x for acc, x in zip(total, gens[label])]
    return tuple(total)


def seeded_vectors(n, count, seed):
    """Thirds: nonnegative and signed integer sums of 1-4 Koteljanskii logs
    over all pairs, and random homogeneous vectors."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    pairs = all_pairs_koteljanskii(n)
    out = []
    for k in range(count):
        if k % 3 == 2:
            out.append(random_homogeneous_log(n, nprng))
            continue
        vec = [Fraction(0)] * (1 << n)
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(1, 3) if k % 3 == 0 else rng.choice((-1, 1))
            vec = [a + c * b for a, b in zip(vec, rng.choice(pairs))]
        out.append(FormalLog(n, tuple(vec)))
    return out


class TestLocalKoteljanskiiGenerators:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_count(self, n):
        assert (len(koteljanskii_generators(n))
                == n * (n - 1) // 2 * 2 ** (n - 2))

    def test_cones_reads_the_ratios_set(self):
        assert cones.koteljanskii_generators is ratios.koteljanskii_generators

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exactly_the_local_pairs(self, n):
        local = {primitive(koteljanskii_log(s, t, n).exponents)
                 for s in range(1 << n) for t in range(s + 1, 1 << n)
                 if s.bit_count() == t.bit_count() == (s & t).bit_count() + 1}
        gens = koteljanskii_generators(n)
        assert {vec for _, vec in gens} == local
        assert len(gens) == len(local)
        for (s, t), vec in gens:
            assert vec == koteljanskii_log(s, t, n).exponents

    @pytest.mark.parametrize("n,count", [(3, 9), (4, 55), (5, 285)])
    def test_every_global_log_rebuilt(self, n, count):
        logs = all_pairs_koteljanskii(n)
        assert len(logs) == count
        for vec in logs:
            cert = koteljanskii_cone_membership(FormalLog(n, vec))
            assert cert.verdict
            assert rebuild(cert, n) == vec

    @pytest.mark.parametrize("n,count,seed", [(4, 100, 40), (5, 20, 50)])
    def test_verdicts_match_all_pairs_oracle(self, n, count, seed):
        vectors = seeded_vectors(n, count, seed)
        if n == 4:
            vectors += [R1()] + [delete_index(Q(), i) for i in range(1, 6)]
        logs = all_pairs_koteljanskii(n)
        cols = np.array([[int(x) for x in vec] for vec in logs])
        verdicts = []
        for v in vectors:
            cert = koteljanskii_cone_membership(v)
            oracle, _ = nonnegative_combination(cols, v.cleared)
            assert cert.verdict == (oracle is not None)
            verdicts.append(cert.verdict)
            if cert.verdict:
                assert rebuild(cert, n) == v.exponents
            else:
                assert dot(cert.hyperplane, v.exponents) < 0
                assert all(dot(cert.hyperplane, g) >= 0 for g in logs)
        # The sample holds both members and non-members.
        assert any(verdicts) and not all(verdicts)


class TestOrbits:
    def test_e3_single_orbit(self):
        rays = extreme_rays(build_E_system(3))
        orbits = orbit_decompose(rays)
        assert len(orbits) == 1
        assert len(orbits[0].members) == 6

    def test_d4_orbit_sizes(self):
        orbits = orbit_decompose(extreme_rays(build_D_system(4)))
        assert sorted(len(o.members) for o in orbits) == [6, 8, 8, 12, 12]

    def test_orbits_partition_the_rays(self):
        rays = extreme_rays(build_D_system(4))
        seen = [v for o in orbit_decompose(rays) for v in o.members]
        assert sorted(seen) == sorted(r.vector for r in rays)

    def test_group_gathers_match_relabel(self):
        # The images that orbit_decompose takes of each ray.
        vec = tuple(range(16))
        expect = [relabel(vec, perm, comp, 4)
                  for perm in permutations(range(1, 5))
                  for comp in (False, True)]
        assert [gather(vec) for _, _, gather in group_gathers(4)] == expect
        # The permutation-only images, which reproduce takes for R1.
        assert [gather(vec) for _, comp, gather in group_gathers(4)
                if not comp] == expect[::2]
