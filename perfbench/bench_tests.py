"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/bench_tests.py
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import minorcones.cli  # noqa: E402,F401  (loads every package module)
from minorcones import cones, exact  # noqa: E402

from perfbench import inputs, jobs, tracing, verify  # noqa: E402


def first(stream, count=60):
    return list(itertools.islice(stream, count))


def find(stream, kind):
    return next(item for item in stream if item["kind"] == kind)


# ------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", sorted(inputs.STREAMS))
def test_same_seed_same_inputs(workload):
    make = inputs.STREAMS[workload]
    assert first(make(7)) == first(make(7))
    if workload != "reproduce":
        assert first(make(7)) != first(make(8))


@pytest.mark.parametrize("workload", ["rays", "membership", "probes"])
def test_every_block_has_the_stated_mix(workload):
    block = inputs.MIXES[workload]
    items = first(inputs.STREAMS[workload](3), 5 * len(block))
    for start in range(0, len(items), len(block)):
        kinds = [item["kind"] for item in items[start:start + len(block)]]
        assert sorted(kinds) == sorted(block)


def test_ratio_text_round_trips_through_the_parser():
    from minorcones.ratios import log_of
    for item in first(inputs.membership_stream(5), 20):
        parsed = log_of(item["ratio"], item["n"]).exponents
        assert parsed == tuple(Fraction(x) for x in item["vector"])


# ---------------------------------------------------------- verifier

@pytest.fixture(scope="module")
def rays_verifier():
    return verify.RaysVerifier(
        {"E": cones.build_E_system, "D": cones.build_D_system},
        cones.extreme_rays)


def test_rays_verifier_accepts_output_and_rejects_a_dropped_ray(
        rays_verifier):
    item = find(inputs.rays_stream(1), "E4")
    _, out = jobs.rays_job(item, {})
    assert rays_verifier.check(item, out) == []
    dropped = dict(out, rays=out["rays"][1:])
    assert rays_verifier.check(item, dropped)


def test_rays_verifier_rejects_a_feasible_non_extreme_ray(rays_verifier):
    item = find(inputs.rays_stream(1), "D4")
    _, out = jobs.rays_job(item, {})
    first_ray, second_ray, *rest = out["rays"]
    summed = tuple(a + b for a, b in zip(first_ray.vector, second_ray.vector))
    replaced = [cones.Ray(item["n"], summed), second_ray, *rest]
    assert rays_verifier.check(item, dict(out, rays=replaced))


@pytest.fixture(scope="module")
def membership_setup():
    state = jobs.warm_up("membership")
    return state, verify.MembershipVerifier(state)


def test_membership_verifier_rejects_a_tampered_combination(
        membership_setup):
    state, verifier = membership_setup
    item = find(inputs.membership_stream(2), "member")
    _, out = jobs.membership_job(item, state)
    assert verifier.check(item, out) == []
    cert = out["K"]
    (pair, coeff), *rest = cert.combination
    tampered = dataclasses.replace(
        cert, combination=((pair, coeff + 1), *rest))
    assert verifier.check(item, dict(out, K=tampered))
    negative = dataclasses.replace(
        cert, combination=((pair, -coeff), *rest))
    assert verifier.check(item, dict(out, K=negative))


def test_membership_verifier_rejects_a_tampered_hyperplane(
        membership_setup):
    state, verifier = membership_setup
    stream = inputs.membership_stream(4)
    for item in stream:
        _, out = jobs.membership_job(item, state)
        if not out["K"].verdict:
            break
    assert verifier.check(item, out) == []
    flipped = dataclasses.replace(
        out["K"], hyperplane=tuple(-x for x in out["K"].hyperplane))
    assert verifier.check(item, dict(out, K=flipped))


def test_membership_verifier_rejects_wrong_verdicts(membership_setup):
    state, verifier = membership_setup
    item = find(inputs.membership_stream(2), "member")
    _, out = jobs.membership_job(item, state)
    non_member = cones.KoteljanskiiCertificate(False, None, (Fraction(0),)
                                               * (1 << item["n"]))
    assert verifier.check(item, dict(out, K=non_member))
    wrong_e = dataclasses.replace(out["E"], verdict=not out["E"].verdict)
    assert verifier.check(item, dict(out, E=wrong_e))


def test_probe_verifier_rejects_a_wrong_slope_verdict():
    stream = inputs.probes_stream(3)
    for kind in ("family", "poly_linear", "poly_quadratic"):
        item = find(stream, kind)
        _, out = jobs.probes_job(item, {})
        assert verify.check_probe(item, out) == []
        report = out["report"]
        wrong = dataclasses.replace(report, verdict=not report.verdict)
        assert verify.check_probe(item, {"report": wrong})
        moved = dataclasses.replace(
            report, predicted_slope=report.predicted_slope + 1)
        assert verify.check_probe(item, {"report": moved})


def test_probe_verifier_rejects_an_unbounded_named_ratio():
    item = find(inputs.probes_stream(3), "bound_named")
    _, out = jobs.probes_job(item, {})
    assert verify.check_probe(item, out) == []
    result = dataclasses.replace(out["result"], max_ratio=5.0)
    assert verify.check_probe(item, dict(out, result=result))


def test_reproduce_verifier_requires_ten_passing_checks():
    checks = [{"name": str(i), "passed": True} for i in range(10)]
    good = {"returncode": 0, "stdout": "10/10 checks passed\n",
            "report": {"checks": checks}}
    item = {"job": 0, "kind": "reproduce"}
    assert verify.check_reproduce(item, good) == []
    one_failed = [dict(c, passed=c["name"] != "3") for c in checks]
    assert verify.check_reproduce(
        item, dict(good, report={"checks": one_failed}))
    assert verify.check_reproduce(item, dict(good, returncode=1))


# ------------------------------------------------------------ tracing

def snapshot():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "minorcones" or name.startswith("minorcones.")}


def test_trace_wrappers_restore_every_patched_name():
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.recording(job=0):
        assert cones.bareiss_rank is exact.bareiss_rank
        assert cones.bareiss_rank.__wrapped__ is before[
            "minorcones.exact"]["bareiss_rank"]
        cones.extreme_rays(cones.build_E_system(3))
    after = snapshot()
    assert before.keys() == after.keys()
    for name in before:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    names = {span[0] for span in tracer.spans}
    assert {"cones.build", "cones.rays", "exact.rank",
            "nullity.type"} <= names
    patched = {(mod.__name__, attr) for mod, attr, _, _ in tracer.bindings}
    assert ("minorcones.cones", "bareiss_rank") in patched
    assert ("minorcones.exact", "bareiss_rank") in patched
    assert ("minorcones.reproduce", "CHECKS") in patched


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None],
             ["b", 5.0, 6.0, 0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.under(spans, "b") == [False, False, True, False]


def test_scaled_interval_leaves_out_samples_and_scales_work():
    from perfbench import calibration
    nominal = calibration.NOMINAL_S
    # 1 s of work at nominal speed, a 0.5 s sample, then 2 s at half speed.
    marks = [(1.0, 1.5, nominal), (3.5, 3.5, 2 * nominal)]
    calibrated, measured = calibration.scaled_interval(0.0, 3.5, marks)
    assert measured == 3.0
    assert calibrated == pytest.approx(1.0 + 2.0 / 1.5)


# ----------------------------------------------------------- harness

@pytest.mark.parametrize("workload", ["rays", "membership", "probes",
                                      "reproduce"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_reports_every_metric(workload, trace):
    from perfbench import run
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = tracing.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rays",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    from perfbench import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
