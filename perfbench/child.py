"""Work the benchmark runs in a fresh interpreter.

    python3 -m perfbench.child setup WORKLOAD
        import the package and warm its caches; print {"setup_s": ...}
    python3 -m perfbench.child reproduce REPORT MARKS
        `minorcones reproduce --out REPORT` with a calibration sample before
        each check and at both ends; write the samples to MARKS
    python3 -m perfbench.child reproduce-traced SPANS REPORT
        `minorcones reproduce --out REPORT` with trace wrappers installed;
        write the spans to SPANS and exit with the command's code
    python3 -m perfbench.child frontier CASE SEED
        run one frontier case; print a JSON summary

Run with the repository's `src` and root on PYTHONPATH.  The package is
imported inside each mode, so the setup timer can start before it.
"""

import json
import sys
import time


def setup(workload: str) -> int:
    start = time.perf_counter()
    import minorcones  # noqa: F401  (the import is what is timed)
    from perfbench import jobs
    jobs.warm_up(workload)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


# Calibration loops per sample inside a reproduce job.
CHECK_CALIBRATION_REPEATS = 3


def reproduce_calibrated(report_path: str, marks_path: str) -> int:
    from perfbench import calibration
    marks = []

    def mark():
        start = time.perf_counter()
        median = calibration.sample(CHECK_CALIBRATION_REPEATS)
        marks.append((start, time.perf_counter(), median))

    def after_mark(check):
        def run():
            mark()
            return check()
        return run

    mark()
    from minorcones import cli, reproduce
    reproduce.CHECKS = tuple((name, after_mark(check))
                             for name, check in reproduce.CHECKS)
    code = cli.main(["reproduce", "--out", report_path])
    mark()
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


def reproduce_traced(spans_path: str, report_path: str) -> int:
    from minorcones import cli, reproduce  # noqa: F401  (loads every module)
    from perfbench.tracing import Tracer
    tracer = Tracer()
    with tracer.recording(job=0):
        code = cli.main(["reproduce", "--out", report_path])
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


def frontier(case: str, seed: int) -> int:
    from perfbench.frontier import run_case
    print(json.dumps(run_case(case, seed)))
    return 0


def main(argv) -> int:
    mode, *rest = argv
    if mode == "setup":
        return setup(*rest)
    if mode == "reproduce":
        return reproduce_calibrated(*rest)
    if mode == "reproduce-traced":
        return reproduce_traced(*rest)
    if mode == "frontier":
        return frontier(rest[0], int(rest[1]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
