"""Independent checks of every job's output.

Nothing here relies on the package's own `assert`s (they vanish under
`python -O`) or reuses its linear algebra: ranks, nullity types, Gram
determinants and the group action are recomputed with this module's own
exact arithmetic.  Each check returns a list of problems; an empty list
means the output is correct.
"""

import math
import re
from fractions import Fraction
from itertools import permutations
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from perfbench import inputs

EXPECTED_RAYS = {"E3": 6, "D3": 6, "E4": 31, "D4": 46}
BOUND_LIMIT = 4
# Tolerances of the package's documented probe contract.
SLOPE_TOLERANCE = 0.05
FIEDLER_TOLERANCE = 1e-9


# ------------------------------------------------------- exact helpers

def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def rank(rows: Sequence[Sequence]) -> int:
    """Rank by Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def det(mat: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = [list(row) for row in mat]
    k = len(m)
    total = Fraction(1)
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            total = -total
        total *= m[c][c]
        for i in range(c + 1, k):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return total


def homogeneity(n: int) -> List[Tuple[int, ...]]:
    size = 1 << n
    return [tuple([1] * size)] + [
        tuple(m >> i & 1 for m in range(size)) for i in range(n)]


def is_primitive(vec: Sequence[int]) -> bool:
    return all(isinstance(x, int) for x in vec) and math.gcd(*vec) == 1


# ------------------------------------------------------------------ rays

def group_images(n: int):
    """All (perm, complement) pairs of S_n x {id, complement}."""
    return [(perm, comp) for perm in permutations(range(1, n + 1))
            for comp in (False, True)]


def orbit_partition(vectors: Sequence[Tuple[int, ...]], n: int
                    ) -> FrozenSet[FrozenSet[Tuple[int, ...]]]:
    remaining = set(vectors)
    orbits = set()
    group = group_images(n)
    for vec in sorted(vectors):
        if vec not in remaining:
            continue
        images = {inputs.relabel_vector(vec, perm, comp, n)
                  for perm, comp in group}
        orbit = frozenset(images & remaining)
        orbits.add(orbit)
        remaining -= orbit
    return frozenset(orbits)


def check_extreme_ray_set(system, vectors: Sequence[Tuple[int, ...]],
                          kind: str) -> List[str]:
    """Count, primitivity, feasibility, and extremality: the rows tight at
    each ray, with the equalities, have rank 2^n - 1."""
    n = system.ground_size
    problems = []
    if len(vectors) != EXPECTED_RAYS[kind]:
        problems.append(f"{kind}: {len(vectors)} rays, expected "
                        f"{EXPECTED_RAYS[kind]}")
    if len(set(vectors)) != len(vectors):
        problems.append(f"{kind}: duplicate rays")
    eqs = homogeneity(n)
    for vec in vectors:
        if not is_primitive(vec):
            problems.append(f"{kind}: ray not primitive")
        if any(dot(row, vec) < 0 for row in system.inequalities):
            problems.append(f"{kind}: ray violates an inequality")
        if any(dot(eq, vec) != 0 for eq in list(eqs) + list(
                system.equalities)):
            problems.append(f"{kind}: ray violates an equality")
        tight = [row for row in system.inequalities if dot(row, vec) == 0]
        if rank(eqs + tight) != (1 << n) - 1:
            problems.append(f"{kind}: ray is not extreme")
    return problems


class RaysVerifier:
    """Canonical ray sets and orbits, verified once at setup; each job's
    output must be their image under the job's relabelling."""

    def __init__(self, build, extreme_rays):
        self.canonical: Dict[str, Tuple] = {}
        for kind in EXPECTED_RAYS:
            n = int(kind[1])
            system = build[kind[0]](n)
            vectors = [r.vector for r in extreme_rays(system)]
            problems = check_extreme_ray_set(system, vectors, kind)
            if problems:
                raise RuntimeError("canonical rays: " + "; ".join(problems))
            self.canonical[kind] = (frozenset(vectors),
                                    orbit_partition(vectors, n))

    def check(self, item: Dict, out: Dict) -> List[str]:
        kind, n = item["kind"], item["n"]
        perm, comp = item["perm"], item["complement"]
        system, rays, orbits = out["system"], out["rays"], out["orbits"]
        vectors = [r.vector for r in rays]
        problems = []
        if len(vectors) != EXPECTED_RAYS[kind]:
            problems.append(f"{len(vectors)} rays, expected "
                            f"{EXPECTED_RAYS[kind]}")
        canon, canon_orbits = self.canonical[kind]
        image = {inputs.relabel_vector(v, perm, comp, n) for v in canon}
        if set(vectors) != image:
            problems.append("ray set is not the image of the canonical set")
        eqs = homogeneity(n) + list(system.equalities)
        for vec in vectors:
            if any(dot(row, vec) < 0 for row in system.inequalities):
                problems.append("ray violates an inequality")
                break
            if any(dot(eq, vec) != 0 for eq in eqs):
                problems.append("ray violates an equality")
                break
        expected_orbits = {
            frozenset(inputs.relabel_vector(v, perm, comp, n) for v in orbit)
            for orbit in canon_orbits}
        got_orbits = {frozenset(o.members) for o in orbits}
        if got_orbits != expected_orbits or sum(
                len(o.members) for o in orbits) != len(vectors):
            problems.append("orbits do not partition the rays correctly")
        return problems


# ------------------------------------------------------------ membership

def e_rows(n: int) -> List[Tuple[int, ...]]:
    """Closed forms of the E_n rows: nul(M_S)(T) = [T contains S] for
    |S| >= 3, then nul(M^S)(T) = |T| - [T not within S] for |S| <= n-2."""
    order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    rows = [tuple(int(t & s == s) for t in range(1 << n))
            for s in order if s.bit_count() >= 3]
    rows += [tuple(t.bit_count() - int(t & ~s != 0) for t in range(1 << n))
             for s in order if s.bit_count() <= n - 2]
    return rows


class MembershipVerifier:
    def __init__(self, systems: Dict):
        self.systems = systems
        n = systems["E"].ground_size
        if list(systems["E"].inequalities) != e_rows(n):
            raise RuntimeError("E system rows differ from their closed form")
        self.generators = []
        seen = set()
        for s in range(1 << n):
            for t in range(1 << n):
                if s | t not in (s, t):
                    vec = tuple(inputs.koteljanskii_vector(s, t, n))
                    if vec not in seen:
                        seen.add(vec)
                        self.generators.append(vec)

    def check(self, item: Dict, out: Dict) -> List[str]:
        n = item["n"]
        problems = []
        target = tuple(Fraction(x) for x in item["vector"])
        if tuple(out["log"].exponents) != target:
            problems.append("parsed formal log differs from the input vector")
        verdicts = {}
        for name in ("E", "D"):
            cert = out[name]
            rows = self.systems[name].inequalities
            products = [value for _, value in cert.inner_products]
            if products != [dot(target, row) for row in rows]:
                problems.append(f"{name}: wrong inner products")
            member = all(p >= 0 for p in products)
            first_negative = next(((label, value) for label, value
                                   in cert.inner_products if value < 0), None)
            if cert.verdict != member or cert.witness != first_negative:
                problems.append(f"{name}: verdict or witness inconsistent")
            verdicts[name] = member
        cert = out["K"]
        if cert.verdict:
            total = [Fraction(0)] * (1 << n)
            for (s, t), coeff in cert.combination:
                if coeff < 0:
                    problems.append("K: negative coefficient")
                total = [a + coeff * b for a, b in
                         zip(total, inputs.koteljanskii_vector(s, t, n))]
            if tuple(total) != target:
                problems.append("K: combination does not rebuild the target")
        else:
            h = cert.hyperplane
            if h is None or not dot(h, target) < 0:
                problems.append("K: hyperplane does not cut off the target")
            elif any(dot(h, g) < 0 for g in self.generators):
                problems.append("K: hyperplane cuts off a generator")
        if item["kind"] == "member" and not cert.verdict:
            problems.append("K: a constructed member came back a non-member")
        # cone(K_n) lies in D_n, which lies in E_n.
        if cert.verdict and not verdicts["D"]:
            problems.append("K member outside D")
        if verdicts["D"] and not verdicts["E"]:
            problems.append("D member outside E")
        return problems


# ---------------------------------------------------------------- probes

def nullity_entries(matrix_text: str, n: int) -> List[int]:
    rows = [[int(x) for x in line.split()] for line in
            matrix_text.splitlines() if line.strip()]
    out = [0] * (1 << n)
    for mask in range(1, 1 << n):
        cols = [i - 1 for i in inputs.members(mask)]
        out[mask] = len(cols) - rank([[row[c] for c in cols] for row in rows])
    return out


def gram_half_degrees(coeffs: Tuple, n: int) -> List[int]:
    """d_S with det (P^T P)[S](e) ~ C e^(2 d_S), from exact values at
    e = 1e-20 and e = 1e-40: the log-ratio of the two is 40 d_S."""
    a, b, c = coeffs

    def gram_at(e: Fraction):
        p = [[a[i][j] + b[i][j] * e + c[i][j] * e * e for j in range(n)]
             for i in range(n)]
        return [[sum(p[k][i] * p[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    grams = [gram_at(Fraction(1, 10 ** 20)), gram_at(Fraction(1, 10 ** 40))]
    out = [0] * (1 << n)
    for mask in range(1, 1 << n):
        idx = [i - 1 for i in inputs.members(mask)]
        logs = []
        for g in grams:
            d = det([[g[i][j] for j in idx] for i in idx])
            if d <= 0:
                raise ValueError("Gram minor is not positive")
            logs.append(math.log10(d.numerator) - math.log10(d.denominator))
        out[mask] = round((logs[0] - logs[1]) / 40)
    return out


def parse_ratio_text(text: str, n: int) -> List[int]:
    """Nonempty-set entries of a ratio's formal log (the empty-set entry is
    left 0: it does not change the ratio's value)."""
    vec = [0] * (1 << n)
    numerator, denominator = text.split("/", 1)
    for side, sign in ((numerator, 1), (denominator, -1)):
        for body, power in re.findall(r"\{([\d,\s]*)\}(?:\^(\d+))?", side):
            mask = sum(1 << (int(i) - 1) for i in body.split(",") if i.strip())
            if mask:
                vec[mask] += sign * int(power or 1)
    return vec


def log_ratio(vec: Sequence[int], a: np.ndarray) -> float:
    total = 0.0
    for mask, x in enumerate(vec):
        if mask and x:
            idx = [i - 1 for i in inputs.members(mask)]
            sign, logdet = np.linalg.slogdet(a[np.ix_(idx, idx)])
            if sign <= 0:
                raise ValueError("matrix is not positive definite")
            total += x * logdet
    return total


def _check_report(report, predicted: Fraction) -> List[str]:
    """The exact slope must be right, and the reported fit and verdict must
    be what the reported values give.  A fit that misses the exact slope
    (say, a grid that stops short of the asymptotic regime) is a correct
    report when the probe says so."""
    problems = []
    if report.predicted_slope != predicted:
        problems.append(f"predicted slope {report.predicted_slope}, "
                        f"expected {predicted}")
    logs = np.log(np.asarray(report.epsilons))
    slope = float(np.polyfit(logs, np.asarray(report.log_ratio_values), 1)[0])
    if not math.isclose(slope, report.fitted_slope, rel_tol=1e-9,
                        abs_tol=1e-9):
        problems.append("fitted slope differs from a refit of the values")
    matches = abs(slope - float(predicted)) <= SLOPE_TOLERANCE * max(
        1.0, abs(float(predicted)))
    if matches != report.verdict:
        problems.append("slope verdict does not match the exact slope")
    return problems


def check_probe(item: Dict, out: Dict) -> List[str]:
    kind, n = item["kind"], item["n"]
    if kind == "family":
        nul = nullity_entries(item["matrix"], n)
        report = out["report"]
        problems = _check_report(report, Fraction(dot(item["vector"], nul)))
        rows = np.array([[float(x) for x in line.split()] for line in
                         item["matrix"].splitlines() if line.strip()])
        eps = report.epsilons[0]
        value = log_ratio(item["vector"], rows.T @ rows + eps * np.eye(n))
        if not math.isclose(value, report.log_ratio_values[0],
                            rel_tol=1e-6, abs_tol=1e-6):
            problems.append("log-ratio value differs from recomputation")
        return problems
    if kind.startswith("poly"):
        half = gram_half_degrees(item["coeffs"], n)
        return _check_report(out["report"],
                             Fraction(2 * dot(item["vector"], half)))
    if kind == "fiedler":
        batch = out["batch"]
        problems = []
        if batch.shape != (item["samples"], item["n"], item["n"]):
            problems.append("batch has the wrong shape")
        np.linalg.cholesky(batch)  # raises if a sample is not PD
        inv = np.linalg.inv(batch)
        roots = np.sqrt(np.einsum("bii->bi", batch)
                        * np.einsum("bii->bi", inv))
        residuals = (roots.sum(axis=1, keepdims=True)
                     - (2 * roots + (item["n"] - 2)))
        worst = float(residuals.min())
        if not math.isclose(worst, out["worst"], rel_tol=1e-6, abs_tol=1e-9):
            problems.append("worst Fiedler residual differs")
        if worst < -FIEDLER_TOLERANCE:
            problems.append("Fiedler inequality violated")
        return problems
    result = out["result"]
    problems = []
    if kind == "bound_named":
        vec = parse_ratio_text(out["ratio"], n)
        if not result.max_ratio <= BOUND_LIMIT + 1e-9 or result.diverging:
            problems.append(f"{item['name']} not bounded by {BOUND_LIMIT}")
    else:
        vec = item["vector"]
    np.linalg.cholesky(result.argmax)  # raises if argmax is not PD
    value = log_ratio(vec, result.argmax)
    # Two double-precision log-determinants of an ill-conditioned matrix
    # agree to about cond(A) * machine epsilon per minor.
    tolerance = 1e-6 + 1e-14 * np.linalg.cond(result.argmax) * sum(
        abs(x) for x in vec[1:])
    if not abs(value - math.log(result.max_ratio)) <= tolerance:
        problems.append("max_ratio differs from the ratio at argmax")
    return problems


# ------------------------------------------------------------- reproduce

def check_reproduce(item: Dict, out: Dict) -> List[str]:
    problems = []
    if out["returncode"] != 0:
        problems.append(f"exit code {out['returncode']}")
    report = out["report"] or {"checks": []}
    checks = report["checks"]
    passed = sum(1 for c in checks if c["passed"])
    if len(checks) != 10 or passed != 10:
        problems.append(f"{passed}/{len(checks)} checks passed, expected 10/10")
    lines = out["stdout"].strip().splitlines()
    if not lines or lines[-1] != "10/10 checks passed":
        problems.append("summary line missing")
    return problems
