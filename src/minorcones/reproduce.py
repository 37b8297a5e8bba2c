"""One-shot reproduction suite: every checkable headline claim as a named
pass/fail check with exact values where the claim is exact.

Used by the `reproduce` CLI command and mirrored by the acceptance tests.
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import cones, nullity, probe
from .constants import M6, P_for_Q, Q, counterexample_E4, named_log
from .exact import clear_denominators, dot, primitive, rank
from .oracles import (brute_force_rays, gram_principal_minors,
                      poly_det_cofactor, rank_by_minors)
from .polyarith import asn, asn_inner_product, gram, principal_submatrix
from .ratios import (FormalLog, delete_index, koteljanskii_generators,
                     log_of)
from .subsets import group_gathers, image_gather, members_of

# Sample counts: per n = 3..6 for the Fiedler suite, and at n = 4 for the
# R1-R3 bound searches.
FIEDLER_SAMPLES = 10_000
BOUNDS_SAMPLES = 100_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: Dict = field(default_factory=dict)
    seconds: float = 0.0


@lru_cache(maxsize=None)
def _d4_rays():
    return tuple(cones.extreme_rays(cones.build_D_system(4)))


def _named_primitive(name: str) -> Tuple[int, ...]:
    return primitive(named_log(name).exponents)


def check_e3_extreme_rays() -> CheckResult:
    rays = cones.extreme_rays(cones.build_E_system(3))
    expected = {
        primitive(log_of(t, 3).exponents) for t in (
            "{1,2}{}/{1}{2}", "{1,3}{}/{1}{3}", "{2,3}{}/{2}{3}",
            "{1,2,3}{1}/{1,2}{1,3}", "{1,2,3}{2}/{1,2}{2,3}",
            "{1,2,3}{3}/{1,3}{2,3}")}
    got = {r.vector for r in rays}
    return CheckResult("e3_extreme_rays", len(rays) == 6 and got == expected,
                       {"ray_count": len(rays)})


def check_d4_extreme_rays() -> CheckResult:
    rays = _d4_rays()
    kot = [r for r in rays
           if probe.is_koteljanskii_ray(FormalLog(4, r.vector))]
    # R1's own orbit under permutation+complementation coincides with its
    # permutation orbit; count the pure permutation images separately.
    r1 = _named_primitive("R1")
    perm_images = {gather(r1) for _, complement, gather in group_gathers(4)
                   if not complement}
    r1_perm_rays = [r for r in rays if r.vector in perm_images]
    rest = [r for r in rays
            if r not in kot and r.vector not in perm_images]
    r2_r3_orbit = {gather(vec) for vec in map(_named_primitive, ("R2", "R3"))
                   for _, _, gather in group_gathers(4)}
    rest_ok = all(r.vector in r2_r3_orbit for r in rest)
    passed = (len(rays) == 46 and len(kot) == 24 and len(r1_perm_rays) == 6
              and len(rest) == 16 and rest_ok)
    return CheckResult("d4_extreme_rays", passed, {
        "ray_count": len(rays), "koteljanskii": len(kot),
        "r1_permutations": len(r1_perm_rays), "r2_r3_orbit": len(rest)})


def check_d4_generators() -> CheckResult:
    orbits = cones.orbit_decompose(list(_d4_rays()))
    names = ("hadamard", "koteljanskii3", "R1", "R2", "R3")
    gens = {
        "hadamard": primitive(log_of("{1,2}{}/{1}{2}", 4).exponents),
        "koteljanskii3": primitive(log_of("{1,2,3}{1}/{1,2}{1,3}", 4).exponents),
        "R1": _named_primitive("R1"),
        "R2": _named_primitive("R2"),
        "R3": _named_primitive("R3"),
    }
    # The D4 rays are closed under the group, so each orbit's members are
    # all the images of its representative.
    hits = {name: [i for i, o in enumerate(orbits) if gens[name] in o.members]
            for name in names}
    passed = (len(orbits) == 5
              and sorted(sum(hits.values(), [])) == sorted(range(5))
              and all(len(h) == 1 for h in hits.values()))
    return CheckResult("d4_generators", passed, {
        "orbit_sizes": [len(o.members) for o in orbits],
        "generator_orbits": {k: v[0] for k, v in hits.items() if v}})


def check_e4_minus_d4_witness() -> CheckResult:
    cx = counterexample_E4()
    in_e4 = cones.membership(cx, cones.build_E_system(4)).verdict
    d4 = cones.build_D_system(4)
    cert = cones.membership(cx, d4)
    witness_ok = (not cert.verdict and cert.witness[1] == -1
                  and d4.inequalities[d4.labels.index(cert.witness[0])]
                  == nullity.nullity_type(M6()).entries)
    report = probe.eval_family_slope(cx, M6())
    slope_ok = abs(report.fitted_slope - (-1.0)) <= 0.05
    blows_up = report.max_ratio() > 1e3
    return CheckResult("e4_minus_d4_witness",
                       in_e4 and witness_ok and slope_ok and blows_up, {
                           "in_E4": in_e4,
                           "witness": cert.witness and (
                               cert.witness[0], str(cert.witness[1])),
                           "fitted_slope": report.fitted_slope,
                           "max_ratio": report.max_ratio()})


def check_q_membership() -> CheckResult:
    q = Q()
    d5 = cones.build_D_system(5)
    cert = cones.membership(q, d5)
    partitions = [p for p in nullity.enumerate_partitions(5)
                  if p.loops == 0 and len(p.blocks) != 2]
    loop_free_ok = (len(partitions) == 37 and all(
        dot(q.exponents, nullity.partition_nullity(p).entries) >= 0
        for p in partitions))
    deletions_ok = all(
        cones.koteljanskii_cone_membership(delete_index(q, i)).verdict
        for i in range(1, 6))
    inner = asn_inner_product(q, asn(P_for_Q()))
    report = probe.eval_poly_family_slope(q, P_for_Q())
    slope_ok = abs(report.fitted_slope - (-2.0)) <= 0.1
    passed = (cert.verdict and loop_free_ok and deletions_ok
              and inner == -1 and slope_ok)
    return CheckResult("q_membership", passed, {
        "q_in_d5": cert.verdict, "loop_free_cases": len(partitions),
        "deletion_certificates": deletions_ok,
        "asn_inner_product": str(inner),
        "fitted_slope": report.fitted_slope})


def check_slope_law() -> CheckResult:
    cases = probe.slope_law_suite()
    slopes_ok = sum(1 for c in cases if c.report.verdict)
    classified_ok = sum(1 for c in cases
                        if c.classified_divergent == c.predicted_divergent)
    passed = slopes_ok == len(cases) and classified_ok == len(cases)
    return CheckResult("slope_law", passed, {
        "cases": len(cases), "slope_matches": slopes_ok,
        "classification_matches": classified_ok})


def check_fiedler_suite() -> CheckResult:
    worst_residual = np.inf
    worst_complement_ratio_margin = np.inf
    for n in (3, 4, 5, 6):
        for chunk, _ in probe.sample_pd_chunks(probe.SamplerConfig(
                seed=500 + n, count=FIEDLER_SAMPLES, dimension=n)):
            residuals, best = probe.fiedler_and_complement_checks(chunk)
            worst_residual = min(worst_residual, float(residuals.min()))
            worst_complement_ratio_margin = min(
                worst_complement_ratio_margin,
                float(((n - 1) ** 2 - best).min()))
    passed = worst_residual >= -1e-9 and worst_complement_ratio_margin >= -1e-9
    return CheckResult("fiedler_suite", passed, {
        "samples_per_n": FIEDLER_SAMPLES, "worst_residual": worst_residual,
        "worst_complement_ratio_margin": worst_complement_ratio_margin})


def check_bounds() -> CheckResult:
    names = ("R1", "R2", "R3")
    # One sample stream for the three; their supports cover the 15
    # nonempty subsets of {1..4}, factored once per chunk.
    searches = probe.bound_searches(
        [named_log(name) for name in names],
        probe.SamplerConfig(seed=4200, count=BOUNDS_SAMPLES, dimension=4))
    results = {name: res.max_ratio for name, res in zip(names, searches)}
    ok = all(res.max_ratio <= 4 + 1e-9 for res in searches)
    decomposition = probe.decomposition_check()
    return CheckResult("bounds", ok and decomposition, {
        "max_ratios": results,
        "r1_reported_approach": "27/16 = 1.6875 (reported, not asserted)",
        "factorizations_exact": decomposition})


def check_structural_identities() -> CheckResult:
    failures = []
    # Rank-nullity on the catalogue's bases: the Bareiss rank of each column
    # submatrix T != {} (rows cleared) plus nul(T) from the walk is |T|.
    for name, base in nullity.CATALOG_N4_BASES:
        nt = nullity.nullity_type(base)
        rows = [clear_denominators(row)[0] for row in base]
        if any(rank([[row[i - 1] for i in members_of(t)] for row in rows])
               + nt[t] != t.bit_count() for t in range(1, 16)):
            failures.append(f"rank-nullity: {name}")
    complement = image_gather(range(1, 5), True, 4)
    for label, nt in nullity.d_constraint_set(4):
        dual = nullity.dual_nullity_type(nt)
        if not nullity.h_equivalent(complement(nt.entries), dual.entries, 4):
            failures.append(f"dual/complement equivalence: {label}")
    # Direct-sum additivity on random small instances.
    rng = np.random.default_rng(99)
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        m1 = nullity.matrix(rng.integers(-2, 3, size=(n1, n1 + 1)).tolist())
        m2 = nullity.matrix(rng.integers(-2, 3, size=(n2, n2 + 1)).tolist())
        if not _direct_sum_additive(m1, m2):
            failures.append("direct-sum additivity")
            break
    # The six local generators: E3's rays, from a source that the D3 and
    # E3 systems do not share.
    d3 = {r.vector for r in cones.extreme_rays(cones.build_D_system(3))}
    if d3 != {vec for _, vec in koteljanskii_generators(3)}:
        failures.append("D3 rays != local Koteljanskii generators")
    e4 = cones.build_E_system(4)
    for r in _d4_rays():
        if not cones.membership(FormalLog(4, r.vector), e4).verdict:
            failures.append("a D4 ray fails E4 membership")
            break
    reduced = cones._reduce_rows(cones.build_D_system(4).inequalities,
                                 4).tolist()
    dim = len(cones.homogeneity_basis(4))
    if rank(reduced) != dim:
        failures.append("D4 system has nonzero lineality")
    return CheckResult("structural_identities", not failures,
                       {"failures": failures})


def _direct_sum_additive(m1, m2) -> bool:
    c1, c2 = len(m1[0]), len(m2[0])

    def block(rows, offset):
        # The rows padded with int zeros to width c1 + c2 from column offset.
        return [[0] * offset + list(row) + [0] * (c1 + c2 - offset - len(row))
                for row in rows]

    top, bottom = block(m1, 0), block(m2, c1)
    eye = [[int(i == j) for j in range(c1 + c2)] for i in range(c1 + c2)]
    nd, nl, nr = (nullity.nullity_type(rows) for rows in (
        top + bottom, top + eye[c1:], eye[:c1] + bottom))
    return all(nd[m] == nl[m] + nr[m] for m in range(1 << (c1 + c2)))


def check_oracle_equivalence() -> CheckResult:
    e3 = cones.build_E_system(3)
    dd = {r.vector for r in cones.extreme_rays(e3)}
    bf = {r.vector for r in brute_force_rays(e3)}
    rays_ok = dd == bf
    rng = np.random.default_rng(321)
    rank_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 6))
        m = rng.integers(-3, 4, size=(rows, n)).tolist()
        if rank(m) != rank_by_minors(m):
            rank_ok = False
            break
    # The cofactor oracle against the subset walk behind asn, on every
    # principal minor.
    g = gram(P_for_Q())
    det_ok = all(poly_det_cofactor(principal_submatrix(g, s)) == minor
                 for s, minor in enumerate(gram_principal_minors(g)))
    return CheckResult("oracle_equivalence", rays_ok and rank_ok and det_ok,
                       {"dd_equals_brute_force": rays_ok,
                        "rank_oracle_agreement": rank_ok,
                        "determinant_oracle_agreement": det_ok})


CHECKS: Tuple[Tuple[str, Callable[[], CheckResult]], ...] = (
    ("e3_extreme_rays", check_e3_extreme_rays),
    ("d4_extreme_rays", check_d4_extreme_rays),
    ("d4_generators", check_d4_generators),
    ("e4_minus_d4_witness", check_e4_minus_d4_witness),
    ("q_membership", check_q_membership),
    ("slope_law", check_slope_law),
    ("fiedler_suite", check_fiedler_suite),
    ("bounds", check_bounds),
    ("structural_identities", check_structural_identities),
    ("oracle_equivalence", check_oracle_equivalence),
)


def run_all() -> List[CheckResult]:
    results = []
    for name, fn in CHECKS:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as err:  # a crash is a failing check, not a crash
            result = CheckResult(name, False, {"error": repr(err)})
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
