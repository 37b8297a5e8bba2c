"""One job per input item, timed around the calls into the package.

Each job function returns (seconds, output).  Only calls into minorcones are
inside the timed region; the benchmark's own bookkeeping (relabelling a
system, collecting a child's report) is not.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from minorcones import cones, constants, nullity, polyarith, probe
from minorcones.ratios import homogeneity_vectors, log_of
from minorcones.subsets import subset_order

from perfbench import calibration, inputs

# The grid of the package's own slope-law suite (1e-3 .. 1e-7).
SLOPE_GRID = tuple(float(x) for x in np.geomspace(1e-3, 1e-7, 9))


def warm_up(workload: str) -> Dict:
    """Fill the package's caches that the workload's jobs read, and return
    what the jobs need.  This is the work `setup_s` times."""
    state: Dict = {}
    if workload == "rays":
        for n in (3, 4):
            cones.homogeneity_basis(n)
        nullity.catalog_n4()
    elif workload == "membership":
        n = inputs.MEMBERSHIP_N
        cones.homogeneity_basis(n)
        state["E"] = cones.build_E_system(n)
        state["D"] = cones.build_D_system(n)
        cones.koteljanskii_generators(n)
    elif workload == "probes":
        n = inputs.PROBE_N
        subset_order(n)
        homogeneity_vectors(n)
        for name in inputs.NAMED_BOUNDED:
            constants.named_log(name)
        probe.sample_pd(probe.SamplerConfig(seed=0, count=4, dimension=n))
    return state


# ------------------------------------------------------------------ rays

def relabel_system(system: cones.ConstraintSystem, item: Dict
                   ) -> cones.ConstraintSystem:
    """Apply the item's sigma (and complement) to every row, then put the
    inequality rows in the item's seeded order."""
    n, perm, comp = system.ground_size, item["perm"], item["complement"]
    rows = [inputs.relabel_vector(r, perm, comp, n)
            for r in system.inequalities]
    order = list(range(len(rows)))
    random.Random(item["order_seed"]).shuffle(order)
    return cones.ConstraintSystem(
        n,
        tuple(inputs.relabel_vector(e, perm, comp, n)
              for e in system.equalities),
        tuple(rows[i] for i in order),
        tuple(system.labels[i] for i in order))


def rays_job(item: Dict, state: Dict) -> Tuple[float, Dict]:
    """build_*_system -> extreme_rays -> orbit_decompose, the path of the
    `extreme-rays` command, on a relabelled, reordered copy."""
    build = getattr(cones, f"build_{item['system']}_system")
    start = time.perf_counter()
    system = build(item["n"])
    built = time.perf_counter()
    relabelled = relabel_system(system, item)
    resumed = time.perf_counter()
    rays = cones.extreme_rays(relabelled)
    orbits = cones.orbit_decompose(rays)
    end = time.perf_counter()
    return (built - start) + (end - resumed), {
        "system": relabelled, "rays": rays, "orbits": orbits}


# ------------------------------------------------------------ membership

def membership_job(item: Dict, state: Dict) -> Tuple[float, Dict]:
    """log_of -> membership in E_n and D_n -> cone(K_n) membership."""
    start = time.perf_counter()
    v = log_of(item["ratio"], item["n"])
    cert_e = cones.membership(v, state["E"])
    cert_d = cones.membership(v, state["D"])
    cert_k = cones.koteljanskii_cone_membership(v)
    end = time.perf_counter()
    return end - start, {"log": v, "E": cert_e, "D": cert_d, "K": cert_k}


# ---------------------------------------------------------------- probes

def _bound_ratio(item: Dict) -> str:
    if "name" in item:
        return getattr(constants, f"{item['name']}_TEXT")
    return item["ratio"]


def probes_job(item: Dict, state: Dict) -> Tuple[float, Dict]:
    kind = item["kind"]
    start = time.perf_counter()
    if kind == "family":
        v = log_of(item["ratio"], item["n"])
        m = nullity.parse_matrix(item["matrix"])
        out = {"report": probe.eval_family_slope(v, m, SLOPE_GRID)}
    elif kind.startswith("poly"):
        v = log_of(item["ratio"], item["n"])
        p = polyarith.parse_poly_matrix(item["poly_matrix"])
        out = {"report": probe.eval_poly_family_slope(v, p)}
    elif kind == "fiedler":
        # The loop of the `fiedler` command.
        cfg = probe.SamplerConfig(seed=item["sampler_seed"],
                                  count=item["samples"], dimension=item["n"])
        batch = probe.sample_pd(cfg)
        worst = min(float(probe.fiedler_check(a).min()) for a in batch)
        out = {"batch": batch, "worst": worst}
    else:
        text = _bound_ratio(item)
        v = log_of(text, item["n"])
        cfg = probe.SamplerConfig(seed=item["sampler_seed"],
                                  count=item["samples"], dimension=item["n"])
        out = {"result": probe.bound_search(v, cfg), "ratio": text}
    end = time.perf_counter()
    return end - start, out


# ------------------------------------------------------------- reproduce

def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def reproduce_job(item: Dict, state: Dict) -> Tuple[float, Dict]:
    """`minorcones reproduce --out REPORT` in a fresh interpreter, so every
    job pays cold caches and interpreter start as a user does.  The child
    times calibration loops between the checks; they are left out of the
    job's seconds, and out["scale"] converts those to calibrated seconds.
    With state["traced"], the child installs the trace wrappers instead."""
    out_dir: Path = state["out_dir"]
    report = out_dir / f"reproduce-{os.getpid()}.json"
    marks = out_dir / f"reproduce-{os.getpid()}.marks.json"
    spans = out_dir / f"reproduce-{os.getpid()}.spans.json"
    if state.get("traced"):
        cmd = [sys.executable, "-m", "perfbench.child", "reproduce-traced",
               str(spans), str(report)]
    else:
        cmd = [sys.executable, "-m", "perfbench.child", "reproduce",
               str(report), str(marks)]
    for path in (report, marks, spans):
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=state["root"], env=state["env"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    end = time.perf_counter()
    seconds = end - start
    out = {"returncode": proc.returncode, "stdout": proc.stdout,
           "stderr": proc.stderr, "scale": 1.0,
           "report": (json.loads(report.read_text())
                      if report.exists() else None)}
    if state.get("traced") and spans.exists():
        out["spans"] = json.loads(spans.read_text())
    if marks.exists():
        calibrated, seconds = calibration.scaled_interval(
            start, end, json.loads(marks.read_text()))
        out["scale"] = calibrated / seconds
    return seconds, out


JOBS = {
    "rays": rays_job,
    "membership": membership_job,
    "probes": probes_job,
    "reproduce": reproduce_job,
}
