"""Floating-point verification layer: slope tests along eps-families,
Fiedler inequality checks, bound searches, and the exact factorization
identities for R1, R2, R3.

Everything is deterministic given a SamplerConfig seed.  The PD samples
come from one loop, `sample_pd_chunks`, which fills a chunk at a time with
`fill_pd`; `sample_pd` copies its chunks into one preallocated batch.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constants import (R1_FACTORS, R2_FACTORS, R3_FACTORS, named_log)
from .exact import CertificateError, as_fractions, dot
from .nullity import RationalMatrix, matrix, nullity_type
from .polyarith import PolyMatrix, asn, asn_inner_product, eval_poly_matrix
from .ratios import (MAX_GROUND_SIZE, FormalLog, NotPositiveDefiniteError,
                     batch_log_minors, evaluate_log_ratio, h_lift,
                     is_homogeneous, is_koteljanskii_ray, log_of,
                     log_ratio_from_minors, log_ratio_values)
from .subsets import members_of

# The most samples one SamplerConfig asks for, count * dimension^2 doubles
# (256 MiB): above bound-search's default of 100 000 samples at n = 16,
# 25.6 M of them.  It caps the batch sample_pd returns; the streamed checks
# hold one chunk at a time, so for them it caps the run time, not memory.
MAX_SAMPLE_ENTRIES = 1 << 25

DEFAULT_GRID = tuple(10.0 ** -k for k in range(1, 8))
SLOPE_LAW_GRID = tuple(float(x) for x in np.geomspace(1e-3, 1e-7, 9))
# How many seeded cases `slope_law_suite` draws, and from which seed.
SLOPE_LAW_COUNT = 100
SLOPE_LAW_SEED = 20240
# How deep a grid the SVD probe stands depends on the family.  Q on P_for_Q
# gets more accurate below 1e-6: its slope error is 3.4e-4 on this grid,
# 4.4e-7 on 1e-5..1e-9, 1.1e-6 on 1e-8..1e-12 and 0.057 on 1e-11..1e-15.
# On 300 seeded n = 4 bench families, the grids from 1e-2, 1e-5, 1e-8 and
# 1e-11 miss 2, 8, 8 and 28 verdicts, and each miss on the 1e-5 grid has a
# singular value below 1e-16 times the largest at 1e-9.  So the default
# grid stops at 1e-6.
DEFAULT_POLY_GRID = tuple(float(x) for x in np.geomspace(1e-2, 1e-6, 9))

# Added to every sampled Gram matrix G^T G, so that each sample is PD.
RIDGE = 1e-6
# How many samples sample_pd_chunks draws, forms and checks at a time: a
# streamed check holds this many matrices, whatever the count.
SAMPLE_CHUNK = 8192
# The bound-search ascent: how many congruence factors it draws, and the
# scale of their Gaussian perturbation of the identity.
ASCENT_STEPS = 200
ASCENT_SCALE = 0.05


@dataclass(frozen=True)
class ProbeReport:
    epsilons: Tuple[float, ...]
    log_ratio_values: Tuple[float, ...]
    fitted_slope: float
    predicted_slope: Fraction
    residual: float
    verdict: bool

    def max_ratio(self) -> float:
        return float(np.exp(np.max(self.log_ratio_values)))

    def to_dict(self) -> Dict:
        return {
            "epsilons": list(self.epsilons),
            "log_ratio_values": list(self.log_ratio_values),
            "fitted_slope": self.fitted_slope,
            "predicted_slope": str(self.predicted_slope),
            "residual": self.residual,
            "verdict": "matches" if self.verdict else "diverges-from-prediction",
        }


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int
    dimension: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 1 <= self.dimension <= MAX_GROUND_SIZE:
            raise ValueError(f"dimension must lie in 1..{MAX_GROUND_SIZE}")
        entries = self.count * self.dimension ** 2
        if entries > MAX_SAMPLE_ENTRIES:
            raise ValueError(
                f"{self.count} samples of dimension {self.dimension} are "
                f"{entries} matrix entries; at most {MAX_SAMPLE_ENTRIES} "
                "are supported")


def _validate_grid(grid: Sequence[float]) -> Tuple[float, ...]:
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise ValueError("grid must not be empty")
    if any(not 0.0 < x < 1.0 for x in grid):
        raise ValueError("grid values must lie in (0, 1)")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly decreasing")
    if np.log10(grid[0] / grid[-1]) < 4:
        raise ValueError("grid must span at least 4 decades")
    return grid


def _fit_line(grid: Tuple[float, ...], values: Sequence[float]
              ) -> Tuple[float, float, float]:
    """Least-squares line values ~ slope * log(eps) + intercept over a
    nonempty grid, in closed form: (slope, intercept, residual), where the
    residual is the largest absolute deviation from the line.  Both
    coordinates are centred and every sum is a correctly rounded
    `math.fsum`, so the result does not depend on how the Python version
    adds floats."""
    logs = [math.log(eps) for eps in grid]
    count = len(logs)
    mean_x = math.fsum(logs) / count
    mean_y = math.fsum(values) / count
    dx = [x - mean_x for x in logs]
    dy = [y - mean_y for y in values]
    slope = math.fsum(map(mul, dx, dy)) / math.fsum(map(mul, dx, dx))
    residual = max(abs(y - slope * x) for x, y in zip(dx, dy))
    return slope, mean_y - slope * mean_x, residual


def _fit_report(grid: Tuple[float, ...], values: List[float],
                predicted: Fraction) -> ProbeReport:
    slope, _, residual = _fit_line(grid, values)
    tol = 0.05 * max(1.0, abs(float(predicted)))
    verdict = abs(slope - float(predicted)) <= tol
    return ProbeReport(grid, tuple(values), slope, predicted, residual,
                       verdict)


def eval_family_slope(v: FormalLog, m: RationalMatrix,
                      grid: Sequence[float] = DEFAULT_GRID) -> ProbeReport:
    """Evaluate the log-ratio along A_eps = M^T M + eps*I and fit its slope
    against log(eps); the predicted slope is the exact inner product of the
    formal log with the nullity type of M."""
    if not is_homogeneous(v):
        raise ValueError("slope probe requires a homogeneous formal log")
    grid = _validate_grid(grid)
    n = v.ground_size
    mat = np.array([[float(x) for x in row] for row in m])
    if mat.shape[1] != n:
        raise ValueError("matrix column count must equal the ground size")
    family = mat.T @ mat + np.multiply.outer(grid, np.eye(n))
    values = evaluate_log_ratio(v, family).tolist()
    # v's exponents are ints / d: the exact slope from one integer dot.
    ints, d = v.cleared
    predicted = Fraction(dot(ints, nullity_type(m).entries), d)
    return _fit_report(grid, values, predicted)


def eval_poly_family_slope(v: FormalLog, p: PolyMatrix,
                           grid: Sequence[float] = DEFAULT_POLY_GRID
                           ) -> ProbeReport:
    """Slope probe along A_eps = P(eps)^T P(eps); the predicted slope is
    2 * (formal log . asn(P)) because the dominating minor terms are even
    powers eps^(2 d_S)."""
    if not is_homogeneous(v):
        raise ValueError("slope probe requires a homogeneous formal log")
    grid = _validate_grid(grid)
    if p.size != v.ground_size:
        raise ValueError(
            "polynomial matrix column count must equal the ground size")
    mats = eval_poly_matrix(p, np.array(grid))
    # log det (P^T P)[S] from the singular values of P[:, S]: factoring the
    # formed P^T P squares the condition number and loses minors scaling
    # like eps^(2 d_S).  One SVD call per subset size takes the matrices
    # P(eps)[:, S] of every S of that size, shape (masks, grid, n, |S|),
    # and one positivity test and one log pass take all its singular
    # values.  The support lists the sizes in increasing order, so the
    # first size with a zero singular value holds the first singular S.
    by_size: Dict[int, List[int]] = {}
    for mask in v.support():
        by_size.setdefault(mask.bit_count(), []).append(mask)
    minors = {}
    for masks in by_size.values():
        cols = np.array([[i - 1 for i in members_of(m)] for m in masks])
        sing = np.linalg.svd(mats[:, :, cols].transpose(2, 0, 1, 3),
                             compute_uv=False)
        singular = sing <= 0
        if singular.any():
            first = int(singular.any(axis=(1, 2)).argmax())
            raise NotPositiveDefiniteError(members_of(masks[first]))
        minors.update(zip(masks, 2.0 * np.log(sing).sum(axis=-1)))
    values = log_ratio_from_minors(v, minors, len(grid))
    predicted = 2 * asn_inner_product(v, asn(p))
    return _fit_report(grid, values.tolist(), predicted)


def fill_pd(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out, a contiguous (m, n, n) array, with rng's next m samples
    G^T G + RIDGE * I for standard normal G, and return it.  The Gram
    products are one stacked matmul, which BLAS takes as a symmetric
    rank-k update, so every sample is exactly symmetric; the ridge goes
    onto the diagonal only.  NotPositiveDefiniteError unless every sample
    is PD.  rng draws the same stream in chunks as at once, and the matmul
    and the check work matrix by matrix, so samples filled a chunk at a
    time are bitwise those filled at once."""
    m, n = out.shape[0], out.shape[-1]
    g = rng.standard_normal((m, n, n))
    np.matmul(g.transpose(0, 2, 1), g, out=out)
    out.reshape(m, n * n)[:, ::n + 1] += RIDGE
    batch_log_minors(out, [(1 << n) - 1])  # raises unless every sample is PD
    return out


def sample_pd_chunks(cfg: SamplerConfig) -> Iterator[np.ndarray]:
    """cfg's PD samples G^T G + RIDGE * I for standard normal G, seeded,
    filled by fill_pd into fresh arrays of at most SAMPLE_CHUNK samples: a
    check holds one chunk, not all."""
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.count, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, cfg.count - start)
        yield fill_pd(rng, np.empty((size, cfg.dimension, cfg.dimension)))


def sample_pd(cfg: SamplerConfig) -> np.ndarray:
    """All of cfg's samples in one (count, n, n) batch, filled one chunk at
    a time, so that no more than the batch and one chunk are held."""
    batch = np.empty((cfg.count, cfg.dimension, cfg.dimension))
    start = 0
    for chunk in sample_pd_chunks(cfg):
        batch[start:start + len(chunk)] = chunk
        start += len(chunk)
    return batch


@lru_cache(maxsize=None)
def _fiedler_weights(n: int) -> np.ndarray:
    """J - 2I, read-only: entry i of r @ (J - 2I) is sum_j r_j - 2 r_i."""
    w = np.ones((n, n)) - 2.0 * np.eye(n)
    w.flags.writeable = False
    return w


def fiedler_check(a: np.ndarray) -> np.ndarray:
    """Residuals RHS - LHS of 2 sqrt(a_ii b_ii) + (n-2) <= sum_j sqrt(a_jj b_jj)
    with B = A^{-1}, for one matrix or a stack of shape (..., n, n).  The
    residuals of the roots r_i = sqrt(a_ii b_ii) are one product
    r @ (J - 2I) - (n - 2).  The inequality is a theorem, so a residual
    below -1e-9 means the floating-point inverse broke down:
    FloatingPointError."""
    a = np.asarray(a, dtype=float)
    b = np.linalg.inv(a)
    n = a.shape[-1]
    # ndarray.diagonal, the ufuncs and a float n - 2, not the np.diagonal/
    # np.any wrappers, the reduction methods or an int scalar: a caller
    # looping over single matrices pays their dispatch on every call.
    roots = a.diagonal(0, -2, -1) * b.diagonal(0, -2, -1)
    np.sqrt(roots, out=roots)
    residuals = roots @ _fiedler_weights(n)
    residuals -= n - 2.0
    if np.minimum.reduce(residuals, None, initial=0.0) < -1e-9:
        raise FloatingPointError(
            "Fiedler inequality violated beyond tolerance")
    return residuals


def complement_ratio_check(a: np.ndarray) -> np.ndarray:
    """For each i, min over j != i of ({i}{i}^c / {j}{j}^c)(A); each is at
    most (n-1)^2.  Takes one matrix or a stack of shape (..., n, n) and
    returns shape (..., n)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n < 3:
        raise ValueError("complement ratio check requires n >= 3")
    full = (1 << n) - 1
    masks = [1 << k for k in range(n)] + [full ^ (1 << k) for k in range(n)]
    minors = batch_log_minors(a.reshape(-1, n, n), masks)
    logvals = np.stack([minors[1 << k] + minors[full ^ (1 << k)]
                        for k in range(n)], axis=1)
    # exp is monotone, so the min over j != i of exp(l_i - l_j) is
    # exp(l_i - max_{j != i} l_j): the row's largest value, or its second
    # largest at the largest (equal to it on a tie).
    top2 = np.partition(logvals, n - 2, axis=1)[:, n - 2:]
    others = np.where(logvals == top2[:, 1:], top2[:, :1], top2[:, 1:])
    return np.exp(logvals - others).reshape(a.shape[:-1])


@dataclass(frozen=True)
class BoundSearchResult:
    max_ratio: float
    argmax: np.ndarray
    diverging: bool


def bound_search(v: FormalLog, cfg: SamplerConfig) -> BoundSearchResult:
    """Empirical supremum of exp(log-ratio) over sampled PD matrices plus
    local congruence ascent E A E^T from the best sample.

    Diagonal congruence leaves homogeneous ratios invariant, so the ascent
    perturbs with general near-identity congruence factors.  Step i tries
    E_i A E_i^T and keeps it if it is PD on v's support and raises the
    log-ratio.  The factors are drawn up front, and one kernel call per
    accepted step evaluates every remaining step's candidate from the
    current matrix: the same draws and a bitwise identical result to
    trying the steps one at a time.
    """
    return bound_searches([v], cfg)[0]


def bound_searches(logs: Sequence[FormalLog], cfg: SamplerConfig
                   ) -> List[BoundSearchResult]:
    """bound_search of each ratio, all over one stream of cfg's samples.
    Each chunk's log-minors on the union of the supports are factored
    once, and each ratio keeps only its first maximal sample and value, so
    memory does not grow with the count; each ascent then draws from a
    generator seeded by (cfg.seed, 1).  A ratio that is not homogeneous
    has no finite supremum (scaling row and column i of A by sqrt(t)
    scales it by t to the net exponent of i), so it raises ValueError
    before any draw."""
    if not all(map(is_homogeneous, logs)):
        raise ValueError("bound search requires a homogeneous formal log")
    # In subset order, as each support lists its masks.
    masks = sorted({mask for v in logs for mask in v.support()},
                   key=lambda mask: (mask.bit_count(), mask))
    best: List[Optional[Tuple[float, np.ndarray]]] = [None] * len(logs)
    for chunk in sample_pd_chunks(cfg):
        minors = batch_log_minors(chunk, masks)
        for k, v in enumerate(logs):
            values = log_ratio_from_minors(v, minors, len(chunk))
            i = int(np.argmax(values))
            # np.argmax takes the first maximum: a later chunk's sample
            # replaces the best one only when it is strictly greater.
            if best[k] is None or values[i] > best[k][0]:
                best[k] = float(values[i]), chunk[i].copy()
    return [_ascent(v, value, start, cfg.seed)
            for v, (value, start) in zip(logs, best)]


def _ascent(v: FormalLog, best_val: float, start: np.ndarray,
            seed: int) -> BoundSearchResult:
    """The congruence ascent of bound_search from its best sample and that
    sample's log-ratio; the factors come from a generator seeded by
    (seed, 1)."""
    n = v.ground_size
    rng = np.random.default_rng((seed, 1))
    factors = np.eye(n) + ASCENT_SCALE * rng.standard_normal(
        (ASCENT_STEPS, n, n))
    current = start
    current_val = best_val
    step = 0
    while step < ASCENT_STEPS:
        rest = factors[step:]
        cands = rest @ current @ rest.transpose(0, 2, 1)
        vals, finite = log_ratio_values(v, cands)
        better = np.flatnonzero(finite & (vals > current_val))
        if not len(better):
            break
        accepted = int(better[0])
        current, current_val = cands[accepted], float(vals[accepted])
        step += accepted + 1
    diverging = current_val > best_val + 5.0
    return BoundSearchResult(float(np.exp(current_val)), current, diverging)


def decomposition_check() -> bool:
    """Verify, exactly in formal-log arithmetic, the factorizations of R1,
    R2, R3 into Koteljanskii factors times {1}{23}/{2}{13}; a failure
    raises CertificateError."""
    for name, factors in (("R1", R1_FACTORS), ("R2", R2_FACTORS),
                          ("R3", R3_FACTORS)):
        target = named_log(name)
        total = [Fraction(0)] * (1 << 4)
        for text in factors:
            fl = log_of(text, 4)
            total = [t + x for t, x in zip(total, fl.exponents)]
        if tuple(total) != target.exponents:
            raise CertificateError(f"factorization identity for {name} failed")
        for text in factors[:-1]:
            if not is_koteljanskii_ray(log_of(text, 4)):
                raise CertificateError(
                    f"factor {text} of {name} is not a Koteljanskii ratio")
    return True


def random_homogeneous_log(n: int, rng: np.random.Generator) -> FormalLog:
    """Random nonzero integer vector in log(H_n), a {-1, 0, 1} combination
    of homogeneity_basis(n), drawn again while all coefficients are zero
    (the basis is independent, so no other draw gives zero)."""
    if n < 2:
        raise ValueError("log(H_n) is zero for n < 2")
    while True:
        coeffs = rng.integers(-1, 2, size=(1 << n) - n - 1)
        if np.any(coeffs):
            return FormalLog(n, tuple(as_fractions(
                h_lift(coeffs.tolist(), n), 1)))


def random_rank_deficient_matrix(n: int, rng: np.random.Generator
                                 ) -> RationalMatrix:
    """Random small-integer matrix with fewer than n rows (so rank < n)."""
    rows = int(rng.integers(1, n))
    while True:
        m = rng.integers(-2, 3, size=(rows, n))
        if np.any(m):
            return matrix(m.tolist())


@dataclass(frozen=True)
class SlopeCase:
    report: ProbeReport
    classified_divergent: bool
    predicted_divergent: bool


def slope_law_suite() -> List[SlopeCase]:
    """SLOPE_LAW_COUNT random (homogeneous v, rank-deficient M) pairs at
    n = 4, drawn from SLOPE_LAW_SEED, checked against the boundedness
    criterion: fitted slope must match v . nul(M) and its sign must
    classify bounded-versus-divergent behavior on SLOPE_LAW_GRID."""
    rng = np.random.default_rng(SLOPE_LAW_SEED)
    cases = []
    while len(cases) < SLOPE_LAW_COUNT:
        v = random_homogeneous_log(4, rng)
        m = random_rank_deficient_matrix(4, rng)
        report = eval_family_slope(v, m, SLOPE_LAW_GRID)
        # Divergence on the grid: the log-ratio climbs toward small eps.
        observed = (report.log_ratio_values[-1] - report.log_ratio_values[0]
                    > 1.0)
        cases.append(SlopeCase(report, observed, report.predicted_slope < 0))
    return cases
