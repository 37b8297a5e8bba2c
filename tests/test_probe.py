import io
import json
import math
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from minorcones import probe, ratios, reproduce
from minorcones.cli import main
from minorcones.constants import (M6, R1_FACTORS, P_for_Q, Q,
                                  counterexample_E4, named_log)
from minorcones.exact import CertificateError
from minorcones.nullity import matrix, nullity_type
from minorcones.oracles import kernel_basis
from minorcones.polyarith import (asn, asn_inner_product, eval_poly_matrix,
                                  parse_poly_matrix, poly, poly_matrix)
from minorcones.probe import (DEFAULT_POLY_GRID, MAX_SAMPLE_ENTRIES,
                              SamplerConfig, bound_search,
                              decomposition_check, eval_family_slope,
                              eval_poly_family_slope,
                              fiedler_and_complement_checks, fiedler_check,
                              random_homogeneous_log, sample_pd,
                              slope_law_suite)
from minorcones.ratios import (FormalLog, NotPositiveDefiniteError,
                               evaluate_log_ratio, homogeneity_vectors,
                               is_homogeneous, log_of)
from minorcones.subsets import members_of
from test_ratios import unchecked_log_ratios


def jacobi_check(a: np.ndarray, s: int, tolerance: float = 1e-9) -> bool:
    """det A[S] == det A * det A^{-1}[S^c], within a relative tolerance."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    full = (1 << n) - 1
    inv = np.linalg.inv(a)
    def minor(mat, mask):
        if mask == 0:
            return 1.0
        idx = [i - 1 for i in members_of(mask)]
        return float(np.linalg.det(mat[np.ix_(idx, idx)]))
    lhs = minor(a, s)
    rhs = float(np.linalg.det(a)) * minor(inv, full ^ s)
    return abs(lhs - rhs) <= tolerance * abs(lhs)


def fiedler_roots(a: np.ndarray) -> np.ndarray:
    """sqrt(a_ii b_ii) with B = A^{-1}, through the np.diagonal wrappers."""
    a = np.asarray(a, dtype=float)
    b = np.linalg.inv(a)
    return np.sqrt(np.diagonal(a, axis1=-2, axis2=-1)
                   * np.diagonal(b, axis1=-2, axis2=-1))


def reference_fiedler_check(a: np.ndarray) -> np.ndarray:
    """The Fiedler residuals (J - 2I) r - (n - 2) through the np.diagonal/
    np.all wrappers; a NaN residual fails the tolerance too."""
    roots = fiedler_roots(a)
    n = roots.shape[-1]
    weights = np.full((n, n), 1.0)
    np.fill_diagonal(weights, -1.0)
    residuals = np.matmul(roots, weights) - (n - 2)
    if not np.all(residuals >= -1e-9):
        raise FloatingPointError(
            "Fiedler inequality violated beyond tolerance")
    return residuals


def complement_ratio_check(a: np.ndarray) -> np.ndarray:
    """The complement ratios of fiedler_and_complement_checks."""
    return fiedler_and_complement_checks(a)[1]


def reference_complement_ratios(a: np.ndarray) -> np.ndarray:
    """The complement ratios p_i / p_j of the products p_i = a_ii b_ii
    through the np.diagonal wrappers, the (count, n, n) tensor of the
    ratios, its diagonal set to inf, and the min over each row: bitwise
    p_i / max_{j != i} p_j, since rounding a quotient is monotone in its
    divisor."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    products = (np.diagonal(a, axis1=-2, axis2=-1)
                * np.diagonal(np.linalg.inv(a), axis1=-2, axis2=-1))
    rows = products.reshape(-1, n)
    tensor = rows[:, :, None] / rows[:, None, :]
    tensor[:, np.arange(n), np.arange(n)] = np.inf
    return tensor.min(axis=2).reshape(a.shape[:-1])


# The largest relative distance between the complement ratios and the
# minors-based oracle below was 3.6e-11 (n = 16) on the samples of
# test_complement_ratio_matches_the_ratio_tensor_bitwise, and 7.2e-11 on
# the fiedler_suite check's 10 000 samples at n = 6.
ORACLE_RTOL = 1e-10


def reference_complement_ratio_check(a: np.ndarray) -> np.ndarray:
    """The complement ratios from log-minors: the (count, n, n) tensor of
    ratios exp(l_i - l_j) with l_i = log a_ii + log det A[i^c], its
    diagonal set to inf, and the min over each row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    full = (1 << n) - 1
    masks = [1 << k for k in range(n)] + [full ^ (1 << k) for k in range(n)]
    minors = ratios.batch_log_minors(a.reshape(-1, n, n), masks)
    logvals = np.stack([minors[1 << k] + minors[full ^ (1 << k)]
                        for k in range(n)], axis=1)
    tensor = np.exp(logvals[:, :, None] - logvals[:, None, :])
    tensor[:, np.arange(n), np.arange(n)] = np.inf
    return tensor.min(axis=2).reshape(a.shape[:-1])


def reference_sample_pd(cfg: SamplerConfig) -> np.ndarray:
    """The samples drawn at once: one standard_normal((count, n, n)), the
    Gram products through the same matmul, and the ridge on the
    diagonal, with no positive definiteness check."""
    n = cfg.dimension
    g = np.random.default_rng(cfg.seed).standard_normal((cfg.count, n, n))
    a = np.matmul(g.transpose(0, 2, 1), g)
    a.reshape(cfg.count, n * n)[:, ::n + 1] += probe.RIDGE
    return a


def exact_line_fit(grid, values):
    """The least-squares line through the points (log eps, value), with the
    float logs and values taken as Fractions: (slope, intercept, residual)
    in exact rationals, the residual the largest absolute deviation."""
    xs = [Fraction(math.log(eps)) for eps in grid]
    ys = [Fraction(y) for y in values]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    intercept = mean_y - slope * mean_x
    return slope, intercept, max(abs(y - slope * x - intercept)
                                 for x, y in zip(xs, ys))


def seeded_poly_pairs(count, seed=31):
    """count seeded (ratio, family) pairs of the bench's shape at n = 3 and
    4, some with a rational or constant P."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.choice((3, 4))
        v = random_homogeneous_log(n, np.random.default_rng(
            rng.getrandbits(32)))
        degree = rng.choice((0, 1, 2))
        pm = poly_matrix([[poly([Fraction(rng.randint(-2, 2),
                                          rng.choice((1, 1, 1, 2)))
                                 for _ in range(degree + 1)])
                           for _ in range(n)] for _ in range(n)])
        pairs.append((v, pm))
    return pairs


def reference_bound_search_on(v, values, batch, seed, skipped=None):
    """The congruence ascent one step at a time, each candidate through
    evaluate_log_ratio, with probe.ASCENT_STEPS steps of probe.ASCENT_SCALE
    as they are at the call; a non-PD candidate is appended to skipped."""
    ascent_steps, ascent_scale = probe.ASCENT_STEPS, probe.ASCENT_SCALE
    n = v.ground_size
    best_idx = int(np.argmax(values))
    best_val = float(values[best_idx])
    best_mat = batch[best_idx]

    rng = np.random.default_rng((seed, 1))
    current = best_mat
    current_val = best_val
    for _ in range(ascent_steps):
        e = np.eye(n) + ascent_scale * rng.standard_normal((n, n))
        cand = e @ current @ e.T
        try:
            val = evaluate_log_ratio(v, cand)
        except NotPositiveDefiniteError:
            if skipped is not None:
                skipped.append(cand)
            continue
        if val > current_val:
            current, current_val = cand, val
    diverging = current_val > best_val + 5.0
    return probe.BoundSearchResult(float(np.exp(current_val)), current,
                                   diverging)


class TestLineFit:
    @staticmethod
    def reports():
        """The 100 slope-law reports, then Q / P_for_Q and seeded poly
        reports."""
        out = [case.report for case in slope_law_suite()]
        out.append(eval_poly_family_slope(Q(), P_for_Q()))
        for v, pm in seeded_poly_pairs(120, seed=47):
            try:
                out.append(eval_poly_family_slope(v, pm))
            except (ValueError, NotPositiveDefiniteError):
                continue
        assert len(out) >= 200
        return out

    def test_matches_the_exact_least_squares_line(self):
        # Within 1e-12 relative, or 1e-12 of the values' magnitude: that is
        # the rounding of a value, so a residual or a zero slope at that
        # level (constant values) has no relative precision in any float
        # fit.
        for report in self.reports():
            got = probe._fit_line(report.epsilons, report.log_ratio_values)
            scale = max(abs(y) for y in report.log_ratio_values)
            exact = exact_line_fit(report.epsilons, report.log_ratio_values)
            for g, e in zip(got, exact):
                assert math.isclose(g, e, rel_tol=1e-12,
                                    abs_tol=1e-12 * scale)
            assert (report.fitted_slope, report.residual) == (got[0], got[2])

    def test_matches_np_polyfit(self):
        # The tolerance with which the bench verifier refits a report.
        for report in self.reports():
            logs = np.log(np.asarray(report.epsilons))
            values = np.asarray(report.log_ratio_values)
            slope, intercept = np.polyfit(logs, values, 1)
            got = probe._fit_line(report.epsilons, report.log_ratio_values)
            assert math.isclose(got[0], slope, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(got[1], intercept, rel_tol=1e-9,
                                abs_tol=1e-9)

    @pytest.mark.parametrize("grid", [(), []])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must not be empty"):
            probe._validate_grid(grid)
        with pytest.raises(ValueError, match="grid must not be empty"):
            eval_family_slope(log_of("{1,2}{} / {1}{2}", 2),
                              matrix([[1, 1]]), grid)


class TestLinearFamilySlope:
    def test_positive_slope(self):
        # nul([1 1]) puts a single unit on {1,2}; Hadamard log pairs with
        # it to give slope +1 (ratio -> 0 with eps).
        v = log_of("{1,2}{} / {1}{2}", 2)
        rep = eval_family_slope(v, matrix([[1, 1]]))
        assert rep.predicted_slope == 1
        assert rep.verdict

    def test_zero_slope_for_full_rank(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        rep = eval_family_slope(v, matrix([[1, 0], [0, 1]]))
        assert rep.predicted_slope == 0
        assert rep.verdict
        assert abs(rep.fitted_slope) < 0.05

    def test_counterexample_against_m6(self):
        rep = eval_family_slope(counterexample_E4(), M6())
        assert rep.predicted_slope == -1
        assert rep.verdict
        assert rep.max_ratio() > 1e3

    @pytest.mark.parametrize("text,n", [
        ("{1,2}^1/2{}^1/2 / {1}^1/2{2}^1/2", 2),
        ("{1,2,3}^2/3{2}^2/3{1,3}{} / {1,2}^2/3{2,3}^2/3{1}{3}", 3),
    ])
    def test_predicted_slope_is_the_fraction_dot_product(self, text, n):
        v = log_of(text, n)
        m = matrix([[1] * n])
        rep = eval_family_slope(v, m)
        assert rep.predicted_slope == sum(
            x * y for x, y in zip(v.exponents, nullity_type(m).entries))
        assert type(rep.predicted_slope) is Fraction

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            eval_family_slope(log_of("{1,2} / {1}", 2), matrix([[1, 1]]))

    def test_grid_validation(self):
        v = log_of("{1,2}{} / {1}{2}", 2)
        with pytest.raises(ValueError, match="decreasing"):
            eval_family_slope(v, matrix([[1, 1]]), grid=(1e-3, 1e-2, 1e-7))
        with pytest.raises(ValueError, match="4 decades"):
            eval_family_slope(v, matrix([[1, 1]]), grid=(1e-2, 1e-3, 1e-4))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            eval_family_slope(v, matrix([[1, 1]]), grid=(2.0, 1e-3, 1e-7))


class TestPolyFamilySlope:
    def test_q_against_p(self):
        rep = eval_poly_family_slope(Q(), P_for_Q())
        assert rep.predicted_slope == -2
        assert abs(rep.fitted_slope - (-2.0)) <= 0.1
        assert rep.verdict

    def test_constant_matrix_zero_slope(self):
        from minorcones.polyarith import parse_poly_matrix
        pm = parse_poly_matrix("1, 1/2\n0, 1\n")
        rep = eval_poly_family_slope(log_of("{1,2}{} / {1}{2}", 2), pm)
        assert rep.predicted_slope == 0 and rep.verdict

    @pytest.mark.parametrize("text,p", [
        (None, P_for_Q()),
        ("{1,2}{} / {1}{2}", parse_poly_matrix("1, 0\n0, e\n")),
        ("{1,2}{} / {1}{2}", parse_poly_matrix("1, 1/2\n0, 1\n")),
    ])
    def test_batched_svd_matches_per_eps_reference(self, text, p):
        v = Q() if text is None else log_of(text, 2)

        def reference(mat, mask):
            cols = [i - 1 for i in members_of(mask)]
            sing = np.linalg.svd(mat[:, cols], compute_uv=False)
            return 2.0 * float(np.sum(np.log(sing)))

        expect = []
        for eps in DEFAULT_POLY_GRID:
            mat = eval_poly_matrix(p, eps)
            total = 0.0
            for mask in v.support():
                total += float(v.exponents[mask]) * reference(mat, mask)
            expect.append(total)
        got = eval_poly_family_slope(v, p).log_ratio_values
        assert got == tuple(expect)
        assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("text", ["{1,3}{} / {1}{3}", "{1}{} / {}{1}"])
    def test_size_mismatch_rejected_before_any_svd(self, text, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SVD reached with a mismatched P")
        monkeypatch.setattr(np.linalg, "svd", refuse)
        with pytest.raises(ValueError, match="column count must equal"):
            eval_poly_family_slope(log_of(text),
                                   parse_poly_matrix("1, 0\n0, e\n"))

    def test_p_evaluated_once_on_the_grid(self, monkeypatch):
        calls = []

        def spy(p, points):
            calls.append(np.array(points))
            return eval_poly_matrix(p, points)

        monkeypatch.setattr(probe, "eval_poly_matrix", spy)
        eval_poly_family_slope(Q(), P_for_Q())
        assert len(calls) == 1
        assert calls[0].tolist() == list(DEFAULT_POLY_GRID)

    def test_matches_the_per_eps_per_mask_reference(self):
        # Q / P_for_Q, and 240 seeded pairs.
        compared = 0
        for v, pm in [(Q(), P_for_Q())] + seeded_poly_pairs(240):
            try:
                expect = per_eps_poly_family_slope(v, pm)
            except (ValueError, NotPositiveDefiniteError) as err:
                with pytest.raises(type(err)) as got:
                    eval_poly_family_slope(v, pm)
                assert str(got.value) == str(err)
                continue
            assert eval_poly_family_slope(v, pm) == expect
            compared += 1
        assert compared >= 200

    def test_names_the_first_singular_subset_in_support_order(self):
        # Column 3 is twice column 2, so {2,3} (size 2, after {1,2}) and
        # {1,2,3} (size 3) are singular at every eps; {2} and {1,2} are not.
        v = log_of("{1,2,3}{2} / {1,2}{2,3}", 3)
        pm = parse_poly_matrix("1, 0, 0\n0, 1, 2\ne, 0, 0\n")
        assert v.support() == [0b010, 0b011, 0b110, 0b111]
        for check in (eval_poly_family_slope, per_eps_poly_family_slope):
            with pytest.raises(NotPositiveDefiniteError) as err:
                check(v, pm)
            assert err.value.subset == (2, 3)


def per_eps_poly_family_slope(v, p, grid=DEFAULT_POLY_GRID):
    """eval_poly_family_slope as it was: P evaluated at one eps at a time
    and one SVD call per mask."""
    mats = np.stack([eval_poly_matrix(p, eps) for eps in grid])
    minors = {}
    for mask in v.support():
        cols = [i - 1 for i in members_of(mask)]
        sing = np.linalg.svd(mats[:, :, cols], compute_uv=False)
        if np.any(sing <= 0):
            raise NotPositiveDefiniteError(members_of(mask))
        minors[mask] = 2.0 * np.log(sing).sum(axis=-1)
    values = ratios.log_ratio_from_minors(v, minors, len(grid))
    predicted = 2 * asn_inner_product(v, asn(p))
    return probe._fit_report(tuple(grid), values.tolist(), predicted)


class TestSampling:
    def test_deterministic(self):
        cfg = SamplerConfig(seed=9, count=8, dimension=4)
        assert np.array_equal(sample_pd(cfg), sample_pd(cfg))

    @pytest.mark.parametrize("count", [1, 2000])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_symmetric_deterministic_gram(self, n, count):
        cfg = SamplerConfig(seed=40 + n, count=count, dimension=n)
        batch = sample_pd(cfg)
        assert batch.shape == (count, n, n)
        assert batch.tobytes() == sample_pd(cfg).tobytes()
        assert np.array_equal(batch, batch.transpose(0, 2, 1))
        # The Gram products of the same draws, summed in another order:
        # each sample within 4 ulps of its largest entry.
        g = np.random.default_rng(cfg.seed).standard_normal((count, n, n))
        want = np.einsum("bij,bik->bjk", g, g) + probe.RIDGE * np.eye(n)
        largest = np.abs(want).max(axis=(1, 2))
        error = np.abs(batch - want).max(axis=(1, 2))
        assert np.all(error <= 4 * np.spacing(largest))

    def test_samples_are_pd(self):
        batch = sample_pd(SamplerConfig(seed=1, count=32, dimension=5))
        for a in batch:
            assert np.all(np.linalg.eigvalsh(a) > 0)

    def test_non_pd_sample_raises(self, monkeypatch):
        monkeypatch.setattr(probe, "RIDGE", -1e3)
        cfg = SamplerConfig(seed=0, count=4, dimension=3)
        with pytest.raises(NotPositiveDefiniteError) as err:
            sample_pd(cfg)
        assert err.value.subset == (1, 2, 3)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, count=0, dimension=3)
        for dimension in (0, ratios.MAX_GROUND_SIZE + 1):
            with pytest.raises(ValueError, match="dimension"):
                SamplerConfig(seed=0, count=1, dimension=dimension)

    @pytest.mark.parametrize("seed", [-1, -(1 << 70)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError) as err:
            SamplerConfig(seed=seed, count=1, dimension=3)
        assert str(err.value) == f"seed must be >= 0, got {seed}"
        SamplerConfig(seed=0, count=1, dimension=3)

    def test_batch_size_bounded(self):
        # bound-search's default, 100 000 samples at n = 16, is the
        # package's largest batch.
        SamplerConfig(seed=0, count=100_000, dimension=16)
        count = MAX_SAMPLE_ENTRIES // 256
        SamplerConfig(seed=0, count=count, dimension=16)
        with pytest.raises(ValueError) as err:
            SamplerConfig(seed=0, count=count + 1, dimension=16)
        assert str(err.value) == (
            f"{count + 1} samples of dimension 16 are "
            f"{(count + 1) * 256} matrix entries; at most "
            f"{MAX_SAMPLE_ENTRIES} are supported")


class TestInequalities:
    def test_fiedler_zero_at_identity(self):
        res = fiedler_check(np.eye(5))
        assert np.allclose(res, 0.0)

    def test_fiedler_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.standard_normal((4, 4))
            res = fiedler_check(g @ g.T + 1e-6 * np.eye(4))
            assert np.all(res >= -1e-9)

    def test_fiedler_violation_is_a_floating_point_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.zeros_like(a))
        for check in (fiedler_check, reference_fiedler_check):
            with pytest.raises(FloatingPointError) as err:
                check(np.eye(4))
            assert str(err.value) == (
                "Fiedler inequality violated beyond tolerance")

    @pytest.mark.parametrize("shortfall,raises", [(1e-9, True),
                                                  (1e-10, False)])
    def test_fiedler_tolerance_is_1e_minus_9(self, monkeypatch, shortfall,
                                             raises):
        # With B = c^2 I at A = I, each residual is (n - 2) * (c - 1).
        c = 1.0 - shortfall
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: c * c * np.eye(a.shape[-1]))
        for check in (fiedler_check, reference_fiedler_check):
            if raises:
                with pytest.raises(FloatingPointError):
                    check(np.eye(4))
            else:
                assert np.all(check(np.eye(4)) > -1e-9)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fiedler_matches_the_wrapper_formula_bitwise(self, n):
        batch = sample_pd(SamplerConfig(seed=30 + n, count=200, dimension=n))
        for a in (batch, batch[0], batch[:0], batch.reshape(
                10, 20, n, n), np.eye(n)):
            got = fiedler_check(a)
            want = reference_fiedler_check(a)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fiedler_residuals_match_the_exact_sums(self, n):
        # The residuals of the float roots r, summed exactly: each float
        # one is within 2 n eps (sum r + n) of sum_j r_j - 2 r_i - (n - 2).
        batch = sample_pd(SamplerConfig(seed=30 + n, count=200, dimension=n))
        eps = np.finfo(float).eps
        for a in (batch, batch[0], batch[:0], batch.reshape(
                10, 20, n, n), np.eye(n)):
            got = fiedler_check(a)
            roots = fiedler_roots(a)
            assert got.shape == roots.shape
            for res, r in zip(got.reshape(-1, n).tolist(),
                              roots.reshape(-1, n).tolist()):
                total = sum(map(Fraction, r))
                bound = 2 * n * eps * (math.fsum(r) + n)
                for i in range(n):
                    exact = total - 2 * Fraction(r[i]) - (n - 2)
                    assert abs(Fraction(res[i]) - exact) <= bound

    def test_complement_ratios_take_one_inverse_and_no_minors(self,
                                                             monkeypatch):
        inverted, requested = [], []
        inv = np.linalg.inv

        def inv_spy(a):
            inverted.append(a.shape)
            return inv(a)

        def kernel_spy(batch, masks):
            requested.append(list(masks))
            return ratios.batch_log_minors(batch, masks)

        monkeypatch.setattr(np.linalg, "inv", inv_spy)
        monkeypatch.setattr(probe, "batch_log_minors", kernel_spy)
        batch = np.stack([np.eye(5), 2 * np.eye(5)])
        residuals, best = fiedler_and_complement_checks(batch)
        assert inverted == [(2, 5, 5)] and requested == []
        assert residuals.tobytes() == reference_fiedler_check(batch).tobytes()
        assert best.tolist() == [[1.0] * 5] * 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    @pytest.mark.parametrize("check", [
        fiedler_check, complement_ratio_check, reference_fiedler_check])
    def test_indefinite_input_is_a_floating_point_error(self, check):
        # a_11 b_11 = -1/3 < 0: its root is NaN, and no NaN residual or
        # ratio is returned.
        a = np.array([[1.0, 2, 0], [2, 1, 0], [0, 0, 1]])
        for x in (a, np.stack([np.eye(3), a])):
            with pytest.raises(FloatingPointError) as err:
                check(x)
            assert str(err.value) == (
                "Fiedler inequality violated beyond tolerance")

    def test_complement_ratio_at_identity(self):
        assert complement_ratio_check(np.eye(4)) == pytest.approx([1.0] * 4)

    def test_complement_ratio_bounded(self):
        rng = np.random.default_rng(3)
        n = 4
        for _ in range(50):
            g = rng.standard_normal((n, n))
            a = g @ g.T + 1e-6 * np.eye(n)
            assert np.all(complement_ratio_check(a) <= (n - 1) ** 2 + 1e-9)

    def test_complement_ratio_matches_direct_minors(self):
        a = sample_pd(SamplerConfig(seed=6, count=1, dimension=4))[0]
        det = np.linalg.det

        def val(k):
            rest = [c for c in range(4) if c != k]
            return a[k, k] * det(a[np.ix_(rest, rest)])
        expect = [min(val(i) / val(j) for j in range(4) if j != i)
                  for i in range(4)]
        assert complement_ratio_check(a) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("n,count", [(3, 2000), (4, 2000), (5, 2000),
                                         (6, 2000), (16, 100)])
    def test_complement_ratio_matches_the_ratio_tensor_bitwise(self, n,
                                                              count):
        batch = sample_pd(SamplerConfig(seed=70 + n, count=count,
                                        dimension=n))
        for a in (batch, batch[0], batch[:0], batch[:20].reshape(
                4, 5, n, n)):
            got = complement_ratio_check(a)
            want = reference_complement_ratios(a)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.allclose(got, reference_complement_ratio_check(a),
                               rtol=ORACLE_RTOL, atol=0)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_complement_ratio_ties_at_the_identity(self, n):
        # Every product is 1: each row's two largest are equal.
        got = complement_ratio_check(np.eye(n))
        assert got.tobytes() == reference_complement_ratios(
            np.eye(n)).tobytes()
        assert got.tolist() == [1.0] * n

    def test_complement_ratio_ties_between_the_two_largest(self):
        # Swapping indices 1 and 2 fixes A, and p_1 == p_2 bitwise: both
        # are 2 * 1.91 / det A, above p_3 = 1 * 3.75 / det A.
        a = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.3], [0.3, 0.3, 1.0]])
        got = complement_ratio_check(a)
        assert got.tobytes() == reference_complement_ratios(a).tobytes()
        assert got[0] == got[1] == 1.0
        assert got[2] == pytest.approx(3.75 / 3.82, rel=1e-12)
        stack = np.stack([a, a[::-1, ::-1], np.eye(3)])
        assert complement_ratio_check(stack).tobytes() == (
            reference_complement_ratios(stack).tobytes())

    def test_batch_matches_single_matrices(self):
        batch = sample_pd(SamplerConfig(seed=5, count=20, dimension=5))
        residuals = fiedler_check(batch)
        ratios = complement_ratio_check(batch)
        assert residuals.shape == ratios.shape == (20, 5)
        for k, a in enumerate(batch):
            assert np.allclose(fiedler_check(a), residuals[k],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(complement_ratio_check(a), ratios[k],
                               rtol=1e-12, atol=0)
        stacked = batch.reshape(4, 5, 5, 5)
        assert complement_ratio_check(stacked).shape == (4, 5, 5)
        assert fiedler_check(stacked).shape == (4, 5, 5)

    def test_jacobi(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4))
        a = g @ g.T + 1e-3 * np.eye(4)
        for s in (0b0001, 0b0110, 0b1011):
            assert jacobi_check(a, s)


def test_probe_uses_the_ratios_kernel():
    assert probe.batch_log_minors is ratios.batch_log_minors


def ascent(monkeypatch, steps, scale=probe.ASCENT_SCALE):
    """Run the bound-search ascent with `steps` factors of `scale`."""
    monkeypatch.setattr(probe, "ASCENT_STEPS", steps)
    monkeypatch.setattr(probe, "ASCENT_SCALE", scale)


class TestBoundSearch:
    def test_hadamard_bounded_by_one(self, monkeypatch):
        ascent(monkeypatch, 50)
        v = log_of("{1,2}{} / {1}{2}", 2)
        res = bound_search(v, SamplerConfig(seed=5, count=500, dimension=2))
        assert res.max_ratio <= 1.0 + 1e-9
        assert not res.diverging

    @pytest.mark.parametrize("texts", [
        ["{1,2}{1,3} / {1}{2,3}"],
        ["{1,2}{} / {1}{2}", "{1,2}{1,3} / {1}{2,3}"],
    ])
    def test_non_homogeneous_ratio_raises_before_sampling(
            self, monkeypatch, texts):
        # Index 1 has net exponent 1: scaling a_11 by t scales the ratio by
        # t, so the supremum is infinite, not the largest sampled value.
        def refuse(*args, **kwargs):
            raise AssertionError("sampled for a non-homogeneous ratio")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        logs = [log_of(text, 3) for text in texts]
        cfg = SamplerConfig(seed=1, count=2000, dimension=3)
        with pytest.raises(ValueError, match="^bound search requires a "
                           "homogeneous formal log$"):
            probe.bound_searches(logs, cfg)
        with pytest.raises(ValueError, match="homogeneous"):
            bound_search(logs[-1], cfg)

    @pytest.mark.parametrize("n,dimension", [(2, 3), (3, 2)])
    def test_ground_size_other_than_the_dimension_raises_before_sampling(
            self, monkeypatch, n, dimension):
        # A 2-index ratio on 3x3 samples failed in matmul after the draw,
        # and a 3-index one on 2x2 samples in the kernel's mask check.
        def refuse(*args, **kwargs):
            raise AssertionError("sampled for a ratio of another size")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        v = log_of("{1,2}{} / {1}{2}", n)
        cfg = SamplerConfig(seed=1, count=10, dimension=dimension)
        message = (f"^ratio on ground size {n} cannot be searched over "
                   f"samples of dimension {dimension}$")
        with pytest.raises(ValueError, match=message):
            bound_search(v, cfg)
        with pytest.raises(ValueError, match=message):
            probe.bound_searches([log_of("{1,2}{} / {1}{2}", dimension), v],
                                 cfg)

    def test_unbounded_direction_flagged(self, monkeypatch):
        ascent(monkeypatch, 400, 0.2)
        res = bound_search(counterexample_E4(),
                           SamplerConfig(seed=6, count=200, dimension=4))
        assert res.max_ratio > 1.0

    @staticmethod
    def assert_matches_reference(v, cfg, skipped=None):
        batch = sample_pd(cfg)
        values = evaluate_log_ratio(v, batch)
        want = reference_bound_search_on(v, values, batch, cfg.seed, skipped)
        best = int(np.argmax(values))
        for got in (probe._ascent(v, float(values[best]), batch[best],
                                  cfg.seed),
                    bound_search(v, cfg)):
            assert got.max_ratio == want.max_ratio
            assert np.array_equal(got.argmax, want.argmax)
            assert got.argmax.tobytes() == want.argmax.tobytes()
            assert got.diverging is want.diverging
        return want

    @pytest.mark.parametrize("name", ["R1", "R2", "R3"])
    @pytest.mark.parametrize("seed", [0, 11, 4200])
    def test_named_ascent_matches_the_stepwise_reference(self, name, seed):
        self.assert_matches_reference(
            named_log(name), SamplerConfig(seed=seed, count=300, dimension=4))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_ascent_matches_the_stepwise_reference(self, n):
        rng = np.random.default_rng(50 + n)
        for seed in range(3):
            v = random_homogeneous_log(n, rng)
            self.assert_matches_reference(
                v, SamplerConfig(seed=seed, count=100, dimension=n))

    def test_counterexample_ascent_matches_the_stepwise_reference(
            self, monkeypatch):
        ascent(monkeypatch, 400, 0.2)
        self.assert_matches_reference(
            counterexample_E4(), SamplerConfig(seed=6, count=200, dimension=4))

    def test_non_pd_candidates_are_skipped_as_stepwise(self, monkeypatch):
        # The ascent drives this unbounded ratio towards singular matrices,
        # where some candidates are not numerically PD; on some of those a
        # -inf minor with a negative weight gives a log-ratio of +inf, which
        # must not be accepted.
        v = log_of("{1,2}{1,3}{2,3} / {1}{2}{3}{1,2,3}", 3)
        skipped = []
        ascent(monkeypatch, 400, 0.2)
        want = self.assert_matches_reference(
            v, SamplerConfig(seed=7, count=200, dimension=3), skipped=skipped)
        assert want.diverging and skipped
        values, finite = unchecked_log_ratios(v, np.stack(skipped))
        assert not finite.any()
        assert np.any(values == np.inf)

    def test_each_ascent_and_each_chunk_build_one_plan(self, monkeypatch):
        # One mask plan per sample chunk, in the sampler's kernel call, and
        # one per ascent, which every step of that ascent evaluates with.
        built, steps = [], []
        build, log_minors = ratios._mask_plan, probe._log_minors

        def plan_spy(n, masks):
            masks = list(masks)
            built.append(masks)
            return build(n, masks)

        def step_spy(stack, plan):
            steps.append(plan)
            return log_minors(stack, plan)

        for module in (ratios, probe):
            monkeypatch.setattr(module, "_mask_plan", plan_spy)
        monkeypatch.setattr(probe, "_log_minors", step_spy)
        monkeypatch.setattr(probe, "SAMPLE_CHUNK", 80)
        cfg = SamplerConfig(seed=3, count=200, dimension=4)
        logs = [named_log(name) for name in ("R1", "R2")]
        union = sorted({mask for v in logs for mask in v.support()},
                       key=lambda mask: (mask.bit_count(), mask))
        probe.bound_searches(logs, cfg)
        assert built == [[15] + union] * 3 + [v.support() for v in logs]
        built.clear()
        steps.clear()
        bound_search(logs[0], cfg)
        assert built == [[15] + logs[0].support()] * 3 + [logs[0].support()]
        assert len(steps) > 1 and all(p is steps[0] for p in steps)

    def test_zero_ascent_steps_returns_the_best_sample(self, monkeypatch):
        v = named_log("R1")
        cfg = SamplerConfig(seed=1, count=50, dimension=4)
        batch = sample_pd(cfg)
        values = evaluate_log_ratio(v, batch)
        best = int(np.argmax(values))
        ascent(monkeypatch, 0)
        for res in (bound_search(v, cfg),
                    probe._ascent(v, float(values[best]), batch[best],
                                  cfg.seed)):
            assert res.max_ratio == float(np.exp(values[best]))
            assert np.array_equal(res.argmax, batch[best])
            assert res.diverging is False

    def test_shared_batch_matches_own_sample(self):
        cfg = SamplerConfig(seed=11, count=300, dimension=4)
        logs = [named_log(name) for name in ("R1", "R2", "R3")]
        for v, shared in zip(logs, probe.bound_searches(logs, cfg)):
            own = bound_search(v, cfg)
            assert shared.max_ratio == own.max_ratio
            assert shared.argmax.tobytes() == own.argmax.tobytes()
            assert shared.diverging == own.diverging

    def test_check_bounds_samples_once(self, monkeypatch):
        # One stream of (seed 4200, BOUNDS_SAMPLES, n = 4) over several
        # chunks and a remainder, each sample drawn once.
        monkeypatch.setattr(probe, "SAMPLE_CHUNK", 80)
        monkeypatch.setattr(reproduce, "BOUNDS_SAMPLES", 500)
        streams, filled = [], []
        stream, fill = probe.sample_pd_chunks, probe.fill_pd
        monkeypatch.setattr(probe, "sample_pd_chunks",
                            lambda cfg, masks: streams.append(cfg)
                            or stream(cfg, masks))
        monkeypatch.setattr(probe, "fill_pd",
                            lambda rng, out, masks: filled.append(len(out))
                            or fill(rng, out, masks))
        check = reproduce.check_bounds()
        cfg = SamplerConfig(seed=4200, count=500, dimension=4)
        assert streams == [cfg]
        assert filled == [80] * 6 + [20]
        for name in ("R1", "R2", "R3"):
            own = bound_search(named_log(name), cfg)
            assert check.details["max_ratios"][name] == own.max_ratio

    def test_fiedler_suite_inverts_each_chunk_once(self, monkeypatch):
        # Per chunk of 80 samples and the remainder of 20: one inverse for
        # both checks, and the one kernel call is the sampler's positive
        # definiteness check on the full set.
        inverted, requested = [], []
        inv, kernel = np.linalg.inv, ratios.batch_log_minors

        def inv_spy(a):
            inverted.append(a.shape)
            return inv(a)

        def kernel_spy(batch, masks):
            requested.append((len(batch), list(masks)))
            return kernel(batch, masks)

        monkeypatch.setattr(np.linalg, "inv", inv_spy)
        for module in (ratios, probe):
            monkeypatch.setattr(module, "batch_log_minors", kernel_spy)
        monkeypatch.setattr(probe, "SAMPLE_CHUNK", 80)
        monkeypatch.setattr(reproduce, "FIEDLER_SAMPLES", 500)
        assert reproduce.check_fiedler_suite().passed
        sizes = [80] * 6 + [20]
        assert inverted == [(m, n, n) for n in (3, 4, 5, 6) for m in sizes]
        assert requested == [(m, [(1 << n) - 1]) for n in (3, 4, 5, 6)
                             for m in sizes]

    def test_check_bounds_factors_the_union_once(self, monkeypatch):
        requested = []
        kernel = ratios.batch_log_minors

        def spy(batch, masks):
            requested.append((len(batch), list(masks)))
            return kernel(batch, masks)

        for module in (ratios, probe):
            monkeypatch.setattr(module, "batch_log_minors", spy)
        monkeypatch.setattr(probe, "SAMPLE_CHUNK", 80)
        monkeypatch.setattr(reproduce, "BOUNDS_SAMPLES", 500)
        reproduce.check_bounds()
        # Per chunk of 80 samples and the remainder of 20, one call: the
        # full set first, the positive definiteness check, then the R1-R3
        # union in subset order.
        union = sorted(range(1, 16), key=lambda mask: (mask.bit_count(), mask))
        assert requested == [(80, [15] + union)] * 6 + [(20, [15] + union)]


@pytest.fixture
def small_chunks(monkeypatch):
    """SAMPLE_CHUNK = 6, so that a seeded count spans many sample chunks
    plus a remainder; returns the sample chunk length."""
    monkeypatch.setattr(probe, "SAMPLE_CHUNK", 6)
    return 6


def cli_json(argv):
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv + ["--format", "json"]) == 0
    return out.getvalue()


def reference_search(v, cfg):
    """bound_search on the samples drawn at once, stepwise."""
    batch = reference_sample_pd(cfg)
    return reference_bound_search_on(v, evaluate_log_ratio(v, batch), batch,
                                     cfg.seed)


class TestSampleStream:
    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("count", [
        lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1,
        lambda c: 3 * c + 2])
    def test_samples_equal_the_one_draw_reference(self, small_chunks, n,
                                                  count):
        count = count(small_chunks)
        cfg = SamplerConfig(seed=60 + count, count=count, dimension=n)
        want = reference_sample_pd(cfg)
        assert sample_pd(cfg).tobytes() == want.tobytes()
        chunks = [chunk for chunk, _ in probe.sample_pd_chunks(cfg)]
        assert [len(c) for c in chunks] == [
            min(small_chunks, count - start)
            for start in range(0, count, small_chunks)]
        assert np.concatenate(chunks).tobytes() == want.tobytes()

    def test_chunks_hold_sample_chunk_samples(self):
        cfg = SamplerConfig(seed=0, count=2 * probe.SAMPLE_CHUNK + 5,
                            dimension=2)
        assert probe.SAMPLE_CHUNK == 8192
        assert [len(c) for c, _ in probe.sample_pd_chunks(cfg)] == [
            probe.SAMPLE_CHUNK, probe.SAMPLE_CHUNK, 5]

    @pytest.mark.parametrize("text,n", [
        ("{1,2,4}{1,3,4}{2,3}{1}{4} / {1,2}{1,3}{1,4}{2,4}{3,4}", 4),
        ("{1,2}{1,3}{2,3} / {1}{2}{3}{1,2,3}", 3),
        ("{1,2}{1,3}/{1}{1,2,3}", 3)])
    def test_bound_search_matches_the_full_batch(self, small_chunks, text,
                                                 n):
        v = log_of(text, n)
        cfg = SamplerConfig(seed=4200, count=3 * small_chunks + 2,
                            dimension=n)
        want = reference_search(v, cfg)
        got = bound_search(v, cfg)
        assert got.max_ratio == want.max_ratio
        assert got.argmax.tobytes() == want.argmax.tobytes()
        assert got.diverging is want.diverging
        payload = {"max_ratio": want.max_ratio, "diverging": want.diverging,
                   "argmax": want.argmax.tolist()}
        assert cli_json(["bound-search", text, "--n", str(n), "--samples",
                         str(cfg.count)]) == json.dumps(payload, indent=2) + "\n"

    def test_check_bounds_matches_the_full_batch(self, small_chunks,
                                                 monkeypatch):
        count = 3 * small_chunks + 2
        monkeypatch.setattr(reproduce, "BOUNDS_SAMPLES", count)
        cfg = SamplerConfig(seed=4200, count=count, dimension=4)
        assert reproduce.check_bounds().details["max_ratios"] == {
            name: reference_search(named_log(name), cfg).max_ratio
            for name in ("R1", "R2", "R3")}

    def test_fiedler_suite_matches_the_full_batch(self, small_chunks,
                                                  monkeypatch):
        count = 3 * small_chunks + 2
        monkeypatch.setattr(reproduce, "FIEDLER_SAMPLES", count)
        residual = margin = np.inf
        for n in (3, 4, 5, 6):
            batch = reference_sample_pd(SamplerConfig(
                seed=500 + n, count=count, dimension=n))
            residual = min(residual, float(reference_fiedler_check(
                batch).min()))
            margin = min(margin, float(((n - 1) ** 2 - (
                reference_complement_ratios(batch))).min()))
        check = reproduce.check_fiedler_suite()
        assert check.passed
        assert check.details == {"samples_per_n": count,
                                 "worst_residual": residual,
                                 "worst_complement_ratio_margin": margin}

    @pytest.mark.parametrize("n", [3, 4, 16])
    def test_fiedler_json_matches_the_full_batch(self, small_chunks, n):
        count = 3 * small_chunks + 2
        batch = reference_sample_pd(SamplerConfig(seed=0, count=count,
                                                  dimension=n))
        payload = {"samples": count,
                   "worst_residual": float(reference_fiedler_check(
                       batch).min())}
        assert cli_json(["fiedler", "--n", str(n), "--samples",
                         str(count)]) == json.dumps(payload, indent=2) + "\n"

    def test_tie_across_chunks_keeps_the_first_sample(self, small_chunks):
        # The zero ratio is 0.0 on every sample, so the first maximum is
        # sample 0, and no congruence step raises it.
        v = FormalLog(3, (Fraction(0),) * 8)
        cfg = SamplerConfig(seed=8, count=3 * small_chunks + 2, dimension=3)
        got = bound_search(v, cfg)
        assert got.argmax.tobytes() == reference_sample_pd(cfg)[0].tobytes()
        assert got.max_ratio == 1.0 and got.diverging is False

    def test_non_pd_draw_in_a_later_chunk(self, small_chunks, monkeypatch):
        # A ridge between the two smallest eigenvalues of the Gram
        # products makes exactly one sample non-PD; the seed puts it past
        # the first chunk.
        n, count = 3, 3 * small_chunks + 2
        cfg = SamplerConfig(seed=4, count=count, dimension=n)
        monkeypatch.setattr(probe, "RIDGE", 0.0)
        low = np.linalg.eigvalsh(reference_sample_pd(cfg))[:, 0]
        first = int(np.argmin(low))
        assert first >= small_chunks
        monkeypatch.setattr(probe, "RIDGE", -np.mean(np.sort(low)[:2]))
        with pytest.raises(NotPositiveDefiniteError) as want:
            ratios.batch_log_minors(reference_sample_pd(cfg), [7])
        with pytest.raises(NotPositiveDefiniteError) as got:
            sample_pd(cfg)
        assert got.value.subset == want.value.subset == (1, 2, 3)
        stream = probe.sample_pd_chunks(cfg)
        for _ in range(first // small_chunks):
            next(stream)
        with pytest.raises(NotPositiveDefiniteError) as got:
            next(stream)
        assert got.value.subset == (1, 2, 3)

    @pytest.mark.parametrize("command", ["bound_search", "fiedler"])
    def test_memory_does_not_grow_with_the_count(self, command):
        # The tracemalloc peak at 8 sample chunks stays within 10 % of the
        # peak at 2; a whole batch held at once would be about 4 times it.
        v = log_of("{1,2}{1,3}/{1}{1,2,3}", 3)
        chunk = probe.SAMPLE_CHUNK
        peaks = []
        for chunks in (2, 8):
            tracemalloc.start()
            try:
                if command == "bound_search":
                    bound_search(v, SamplerConfig(seed=3, count=chunks * chunk,
                                                  dimension=3))
                else:
                    cli_json(["fiedler", "--n", "4", "--samples",
                              str(chunks * chunk)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_sample_pd_holds_the_batch_and_one_chunk(self):
        # Joining a list of every chunk held the batch twice (2.00 times
        # its size); the batch and one chunk stay well below 1.5 times.
        cfg = SamplerConfig(seed=11, count=100_000, dimension=4)
        tracemalloc.start()
        try:
            batch = sample_pd(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * batch.nbytes
        joined = np.concatenate([c for c, _ in probe.sample_pd_chunks(cfg)])
        assert batch.tobytes() == joined.tobytes()


class TestSuites:
    def test_decomposition_identities(self):
        assert decomposition_check()

    @pytest.mark.parametrize("factors,message", [
        # One Koteljanskii factor swapped for another: the product is off.
        (("{1,2,4}{4} / {1,4}{2,4}",) + R1_FACTORS[1:],
         "factorization identity for R1"),
        # The first two factors merged: the product holds, the factor is
        # not a Koteljanskii ratio.
        (("{1,2,4}{2}{1,3,4}{4} / {1,2}{2,4}{1,4}{3,4}",) + R1_FACTORS[2:],
         "is not a Koteljanskii ratio"),
    ])
    def test_decomposition_failure_raises_certificate_error(
            self, monkeypatch, factors, message):
        monkeypatch.setattr(probe, "R1_FACTORS", factors)
        with pytest.raises(CertificateError, match=message):
            decomposition_check()

    def test_random_homogeneous_logs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_homogeneous_log(4, rng)
            assert is_homogeneous(v)
            assert sum(v.exponents) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_homogeneous_log_is_the_kernel_combination(self, n):
        # The same draws, summed over the elimination kernel.
        kernel = kernel_basis(homogeneity_vectors(n), 1 << n)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            while True:
                coeffs = rng.integers(-1, 2, size=len(kernel))
                if np.any(coeffs):
                    break
            expected = [Fraction(0)] * (1 << n)
            for c, b in zip(coeffs, kernel):
                expected = [x + int(c) * y for x, y in zip(expected, b)]
            v = random_homogeneous_log(n, np.random.default_rng(seed))
            assert v == FormalLog(n, tuple(expected))
            assert all(type(x) is Fraction for x in v.exponents)

    def test_random_homogeneous_log_needs_two_indices(self):
        with pytest.raises(ValueError, match="n < 2"):
            random_homogeneous_log(1, np.random.default_rng(0))

    def test_slope_suite_small(self, monkeypatch):
        monkeypatch.setattr(probe, "SLOPE_LAW_COUNT", 10)
        monkeypatch.setattr(probe, "SLOPE_LAW_SEED", 42)
        cases = slope_law_suite()
        assert len(cases) == 10
        for case in cases:
            assert case.report.verdict
            assert case.classified_divergent == case.predicted_divergent
