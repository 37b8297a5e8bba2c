"""Frontier record: cases beyond what the gated workloads run.

Not a workload and not gated.  Each case runs in a child interpreter under
a hard timeout and is recorded in seconds or as "did not finish in T s",
so a later change can show the frontier moving without hanging the run.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

from perfbench import inputs

CASES = {
    "E5_rays": "extreme rays of E_5 (double description)",
    "D5_rays": "extreme rays of D_5 (double description)",
    "K5_member": "cone(K_5) membership of one seeded member",
    "K5_random": "cone(K_5) membership of one seeded random vector",
    "K6_random": "cone(K_6) membership of one seeded random vector",
    "E8_build": "build_E_system(8)",
}


def run_case(case: str, seed: int) -> Dict:
    """Run one case in this process; returns its time and a summary."""
    from fractions import Fraction
    from minorcones import cones
    from minorcones.ratios import FormalLog
    rng = random.Random(f"frontier:{case}:{seed}")
    start = time.perf_counter()
    if case in ("E5_rays", "D5_rays"):
        build = cones.build_E_system if case[0] == "E" else cones.build_D_system
        summary = {"rays": len(cones.extreme_rays(build(5)))}
    elif case.startswith("K"):
        n = int(case[1])
        vec = (inputs.koteljanskii_member(rng, n) if case.endswith("member")
               else inputs.random_homogeneous(rng, n))
        v = FormalLog(n, tuple(Fraction(x) for x in vec))
        summary = {"member": cones.koteljanskii_cone_membership(v).verdict}
    elif case == "E8_build":
        summary = {"rows": len(cones.build_E_system(8).inequalities)}
    else:
        raise ValueError(f"unknown frontier case {case!r}")
    return {"seconds": time.perf_counter() - start, **summary}


def record(root: Path, env: Dict[str, str], seed: int, timeout: float
           ) -> Dict:
    results = {}
    for case, description in CASES.items():
        cmd = [sys.executable, "-m", "perfbench.child", "frontier", case,
               str(seed)]
        entry = {"description": description}
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            entry["status"] = f"did not finish in {timeout:g} s"
        else:
            if proc.returncode == 0:
                entry.update(json.loads(proc.stdout.strip().splitlines()[-1]))
                entry["status"] = "finished"
            else:
                entry["status"] = f"failed with exit code {proc.returncode}"
                entry["stderr"] = proc.stderr.strip().splitlines()[-1:]
        seconds = f"{entry['seconds']:.3f} s" if "seconds" in entry else ""
        print(f"frontier {case:<10} {entry['status']:<28} {seconds}",
              flush=True)
        results[case] = entry
    return {"seed": seed, "timeout_s": timeout, "cases": results}
