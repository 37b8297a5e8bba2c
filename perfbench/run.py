"""Benchmark entry point for the minorcones package.

    python3 perfbench/run.py --workload rays --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --frontier --seed 1 --timeout 60

Run from the root of a checkout; the package is imported from its `src`.
Each workload is a closed loop with one client in one process, pinned to
one CPU: the next job starts when the previous one has finished.  BLAS and
OpenMP threads are pinned to 1.  Every job's output is checked by
`perfbench.verify` outside the timed region.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of several fresh interpreters), jobs per second, the
median job latency, and peak resident memory.  The 90th-percentile latency
is printed where at least ten samples lie beyond it.  Times of in-process
jobs, of `reproduce` jobs and of set-up are scaled by `perfbench.calibration`
to a fixed machine speed; measured times are printed and recorded beside
them.  With `--trace 1` each job runs once untraced and once with spans
around the package's public functions, alternating which goes first; the
spans give the per-layer metrics, and the gap between the two is the
tracing overhead.
The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the environment, job mix, sample
counts and `fail_frac` are printed above it and written, with the spans of
a traced run, under `.perfbench_out/`.

`--frontier` records cases no workload runs (E5 and D5 rays, cone(K_5) and
cone(K_6) membership, `build_E_system(8)`), each in a child interpreter
under a hard timeout.  It is not gated.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("rays", "membership", "probes", "reproduce")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
# Calibration loops timed before each set-up sample, and the number of
# neighbouring jobs on each side whose calibration times scale a job.
SETUP_CALIBRATION_REPEATS = 25
CALIBRATION_WINDOW = 10
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark the minorcones package.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true",
                        help="record the frontier cases instead")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-case limit of --frontier, in seconds")
    args = parser.parse_args(argv)
    if not args.frontier and args.workload is None:
        parser.error("--workload is required unless --frontier is given")
    return args


def environment(args, mix) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, one client, one process", "job_mix": list(mix)}


def setup_samples(workload: str, env: dict):
    """Set-up time in fresh interpreters: import plus cache warm-up, or for
    `reproduce` interpreter start plus `import minorcones`.  Returns the
    calibrated and the measured seconds of each sample."""
    from perfbench import calibration
    scaled, measured = [], []
    for _ in range(SETUP_SAMPLES):
        reference = calibration.sample(SETUP_CALIBRATION_REPEATS)
        if workload == "reproduce":
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import minorcones"],
                           cwd=ROOT, env=env, check=True, timeout=60)
            seconds = time.perf_counter() - start
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.child", "setup", workload],
                cwd=ROOT, env=env, check=True, timeout=60,
                stdout=subprocess.PIPE, text=True)
            seconds = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        measured.append(seconds)
        scaled.append(seconds * calibration.NOMINAL_S / reference)
    return scaled, measured


class Loop:
    """Runs and verifies jobs of one workload; records their failures."""

    def __init__(self, workload: str, state: dict, check):
        from perfbench import jobs
        self.job = jobs.JOBS[workload]
        self.state = state
        self.check = check
        self.failures = []

    def run(self, item, context=None):
        """Run one job, inside `context` if given, then verify it.  Returns
        its seconds (None if it raised), whether it passed, and its output."""
        try:
            with context or nullcontext():
                seconds, out = self.job(item, self.state)
        except Exception as err:  # a job that raises is a failed job
            self.failures.append((item["job"], item["kind"], repr(err)))
            return None, False, None
        try:
            problems = self.check(item, out)
        except Exception as err:  # so is output the verifier cannot read
            problems = [f"verifier raised {err!r}"]
        if problems:
            self.failures.append((item["job"], item["kind"], problems))
        return seconds, not problems, out


def make_checker(workload: str, state: dict):
    from minorcones import cones
    from perfbench import verify
    if workload == "rays":
        return verify.RaysVerifier(
            {"E": cones.build_E_system, "D": cones.build_D_system},
            cones.extreme_rays).check
    if workload == "membership":
        return verify.MembershipVerifier(state).check
    if workload == "probes":
        return verify.check_probe
    return verify.check_reproduce


def percentile(values, fraction: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(fraction * 100) - 1]


def run_untraced(args, env, check, state, stream) -> dict:
    from perfbench import calibration
    loop = Loop(args.workload, state, check)
    # In-process jobs are scaled by calibration loops timed beside them; a
    # reproduce job runs for seconds in a child that times its own loops
    # between checks, as the machine's speed can change within the job.
    in_process = args.workload != "reproduce"
    references, timings, own_scales = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not timings or time.perf_counter() < deadline:
        item = next(stream)
        if in_process:
            references.append(calibration.sample(1))
        seconds, ok, out = loop.run(item)
        timings.append((item["kind"], seconds, ok))
        if not in_process:
            own_scales.append(out["scale"] if out else 1.0)
    if args.workload == "reproduce":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, setup_measured = setup_samples(args.workload, env)

    factors = (calibration.scales(references, CALIBRATION_WINDOW)
               if in_process else own_scales)
    scaled = [(kind, seconds * f, ok) for (kind, seconds, ok), f
              in zip(timings, factors) if seconds is not None]
    latencies = [seconds for _, seconds, ok in scaled if ok]
    measured = [seconds for _, seconds, ok in timings if ok]
    kinds = {}
    for kind, seconds, ok in scaled:
        if ok:
            kinds.setdefault(kind, []).append(seconds)
    p50 = statistics.median(latencies) if latencies else float("nan")
    p90 = percentile(latencies, 0.9) if latencies else float("nan")
    busy = sum(seconds for _, seconds, _ in scaled)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "jobs_per_s": (len(latencies) / busy if busy else 0.0, len(timings)),
        "job_p50_ms": (1000 * p50, len(latencies)),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }
    beyond = sum(1 for x in latencies if x > p90)
    return {"attempted": len(timings), "failures": loop.failures,
            "metrics": metrics,
            # Reported only where at least ten samples lie beyond it.
            "job_p90_ms": 1000 * p90 if beyond >= 10 else None,
            "beyond_p90": beyond,
            "kind_p50_ms": {k: 1000 * statistics.median(v)
                            for k, v in sorted(kinds.items())},
            "calibration_ms": (1000 * statistics.median(references)
                               if in_process else None),
            "measured": measured and {
                "setup_s": statistics.median(setup_measured),
                "jobs_per_s": (len(measured) / sum(
                    s for _, s, _ in timings if s is not None)),
                "job_p50_ms": 1000 * statistics.median(measured),
                "job_p90_ms": 1000 * percentile(measured, 0.9)}}


def run_traced(args, tracer, check, state, stream) -> dict:
    from perfbench.tracing import layer_metrics, write_spans
    loop = Loop(args.workload, state, check)
    spans = tracer.spans if tracer else []
    traced_s, untraced_s = [], []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        item = next(stream)
        job = attempted
        attempted += 1
        timings = {}
        for traced in ((False, True) if job % 2 == 0 else (True, False)):
            if tracer is None:
                state["traced"] = traced
                seconds, ok, out = loop.run(item)
                if traced and out and "spans" in out:
                    offset = len(spans)
                    for span in out["spans"]:
                        span[4] = job
                        if span[3] >= 0:
                            span[3] += offset
                        spans.append(span)
            elif traced:
                seconds, ok, out = loop.run(item, tracer.recording(job))
            else:
                seconds, ok, out = loop.run(item)
            timings[traced] = seconds
        if None not in timings.values():
            traced_s.append(timings[True])
            untraced_s.append(timings[False])
    processes = len(traced_s) if tracer is None else 1
    metrics = layer_metrics(spans, len(traced_s), processes, traced_s,
                            untraced_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json.gz"
    write_spans(spans, spans_path)
    return {"attempted": attempted, "failures": loop.failures,
            "metrics": {k: (v, len(traced_s)) for k, v in metrics.items()},
            "spans": len(spans), "spans_file": str(spans_path)}


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "minorcones" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found: run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP threads before numpy is first imported, here and in
    # every child, and import the package from this checkout only.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and its children, so that a job and the
    # calibration loops timed next to it run on the same core.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, jobs
    import minorcones
    if Path(minorcones.__file__).resolve() != package.resolve():
        print(f"error: minorcones imported from {minorcones.__file__}",
              file=sys.stderr)
        return 2
    env = jobs.child_env(ROOT)
    OUT_DIR.mkdir(exist_ok=True)

    if args.frontier:
        from perfbench import frontier
        record = frontier.record(ROOT, env, args.seed, args.timeout)
        record["environment"] = environment(args, ())
        (OUT_DIR / "frontier.json").write_text(json.dumps(record, indent=2))
        print(json.dumps(record))
        return 0

    mix = inputs.MIXES[args.workload]
    info = environment(args, mix)
    stream = inputs.STREAMS[args.workload](args.seed)
    tracer = None
    if args.workload == "reproduce":
        state = {"root": ROOT, "env": env, "out_dir": OUT_DIR}
    elif args.trace:
        import minorcones.cli, minorcones.reproduce  # noqa: F401,E401
        from perfbench.tracing import SETUP_JOB, Tracer
        tracer = Tracer()
        with tracer.recording(SETUP_JOB):
            state = jobs.warm_up(args.workload)
    else:
        state = jobs.warm_up(args.workload)
    check = make_checker(args.workload, state)

    if args.trace:
        from perfbench.tracing import PER_LAYER
        result = run_traced(args, tracer, check, state, stream)
        units = PER_LAYER
    else:
        result = run_untraced(args, env, check, state, stream)
        units = END_TO_END
    failed = len({job for job, _, _ in result["failures"]})
    attempted = result["attempted"]

    print(f"environment: {json.dumps(info)}")
    for name, (value, samples) in result["metrics"].items():
        print(f"{name:<34} {value:14.6g} {units[name]:<8} samples={samples}")
    print(f"{'fail_frac':<34} {failed / attempted:14.6g} {'fraction':<8} "
          f"samples={attempted}")
    for key in ("job_p90_ms", "beyond_p90", "kind_p50_ms", "calibration_ms",
                "measured", "spans", "spans_file"):
        if key in result:
            print(f"{key}: {result[key]}")
    for failure in result["failures"][:5]:
        print(f"failure: {failure}")

    summary = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in result["metrics"].items()}}
    record = {"environment": info, "fail_frac": failed / attempted,
              "samples": {k: s for k, (_, s) in result["metrics"].items()},
              **{k: v for k, v in result.items() if k != "metrics"},
              **summary}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
