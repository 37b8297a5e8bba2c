"""Opt-in spans around the package's public functions.

The tracer wraps each target function on every name that binds it in a
loaded minorcones module (for example `cones.bareiss_rank` as well as
`exact.bareiss_rank`), because a caller resolves the name it imported, not
the defining module's attribute.  Spans are kept in memory as
(name, start, end, parent, job, value) and written out when the run ends.
Nothing is patched until `install()`, and `restore()` puts back every
original object.
"""

import gzip
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

# (module, function, span name).  Functions sharing a span name form one
# layer metric.  Tiny helpers called in inner loops (dot, subset masks) are
# left out: a span would cost more than their work.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exact", "bareiss_rank", "exact.rank"),
    ("exact", "rank", "exact.rank"),
    ("exact", "primitive", "exact.primitive"),
    ("exact", "rref", "exact.rref"),
    ("nullity", "nullity_type", "nullity.type"),
    ("nullity", "catalog_n4", "nullity.catalog"),
    ("nullity", "d5_constraint_set", "nullity.catalog"),
    ("cones", "build_E_system", "cones.build"),
    ("cones", "build_D_system", "cones.build"),
    ("cones", "extreme_rays", "cones.rays"),
    ("cones", "orbit_decompose", "cones.orbit"),
    ("cones", "membership", "cones.membership"),
    ("cones", "koteljanskii_cone_membership", "cones.kcone"),
    ("simplex", "nonnegative_combination", "simplex.lp"),
    ("ratios", "parse_ratio", "ratios.parse"),
    ("ratios", "formal_log", "ratios.formal_log"),
    ("ratios", "evaluate_log_ratio", "ratios.eval"),
    ("polyarith", "asn", "polyarith.asn"),
    ("polyarith", "principal_minor_poly", "polyarith.minor"),
    ("probe", "sample_pd", "probe.sample"),
    ("probe", "batch_log_minors", "probe.minors"),
    ("probe", "bound_search", "probe.bound_search"),
    ("probe", "eval_family_slope", "probe.slope"),
    ("probe", "eval_poly_family_slope", "probe.slope"),
    ("probe", "fiedler_check", "probe.fiedler"),
)

# Span name -> value recorded from (args, result): work done by the call.
VALUES: Dict[str, Callable] = {
    "cones.rays": lambda args, result: len(result),
    "simplex.lp": lambda args, result: int(result[0] is not None),
    "probe.minors": lambda args, result: args[0].shape[0] * len(result),
}

REPRODUCE_CHECKS = ("e3_extreme_rays", "d4_extreme_rays", "d4_generators",
                    "e4_minus_d4_witness", "q_membership", "slope_law",
                    "fiedler_suite", "bounds", "structural_identities",
                    "oracle_equivalence")

# Per-layer metrics in output order: name -> unit.  Times are self time
# (span minus child spans) in seconds per job and counts are per job,
# except: nullity.catalog_s is inclusive time per interpreter (the catalogues
# are cached), reproduce.<check>_s is each check's inclusive time per job,
# and cli.startup_s is the part of a reproduce job outside its checks.
PER_LAYER: Dict[str, str] = {
    "exact.rank_calls": "count",
    "exact.rank_s": "s",
    "exact.primitive_calls": "count",
    "exact.primitive_s": "s",
    "exact.rref_calls": "count",
    "exact.rref_s": "s",
    "cones.build_s": "s",
    "cones.rays_s": "s",
    "cones.rays_out": "count",
    "cones.rank_calls_per_ray": "ratio",
    "cones.orbit_s": "s",
    "cones.kcone_s": "s",
    "cones.membership_s": "s",
    "nullity.type_calls": "count",
    "nullity.type_s": "s",
    "nullity.catalog_s": "s",
    "simplex.lp_calls": "count",
    "simplex.lp_s": "s",
    "simplex.feasible_frac": "fraction",
    "ratios.parse_calls": "count",
    "ratios.parse_s": "s",
    "ratios.eval_calls": "count",
    "ratios.eval_s": "s",
    "polyarith.asn_calls": "count",
    "polyarith.asn_s": "s",
    "polyarith.minor_calls": "count",
    "polyarith.minor_s": "s",
    "probe.sample_s": "s",
    "probe.minors_s": "s",
    "probe.minors_per_s": "1/s",
    "probe.bound_search_s": "s",
    "probe.slope_s": "s",
    "probe.fiedler_s": "s",
    **{f"reproduce.{name}_s": "s" for name in REPRODUCE_CHECKS},
    "cli.startup_s": "s",
    "trace.overhead_pct": "%",
}

# Metric -> span names whose self time it sums, per job.
SELF_TIME = {
    "exact.rank_s": ("exact.rank",),
    "exact.primitive_s": ("exact.primitive",),
    "exact.rref_s": ("exact.rref",),
    "cones.build_s": ("cones.build",),
    "cones.rays_s": ("cones.rays",),
    "cones.orbit_s": ("cones.orbit",),
    "cones.kcone_s": ("cones.kcone",),
    "cones.membership_s": ("cones.membership",),
    "nullity.type_s": ("nullity.type",),
    "simplex.lp_s": ("simplex.lp",),
    "ratios.parse_s": ("ratios.parse", "ratios.formal_log"),
    "ratios.eval_s": ("ratios.eval",),
    "polyarith.asn_s": ("polyarith.asn",),
    "polyarith.minor_s": ("polyarith.minor",),
    "probe.sample_s": ("probe.sample",),
    "probe.minors_s": ("probe.minors",),
    "probe.bound_search_s": ("probe.bound_search",),
    "probe.slope_s": ("probe.slope",),
    "probe.fiedler_s": ("probe.fiedler",),
}

# Metric -> span name whose calls it counts, per job.
CALLS = {
    "exact.rank_calls": "exact.rank",
    "exact.primitive_calls": "exact.primitive",
    "exact.rref_calls": "exact.rref",
    "nullity.type_calls": "nullity.type",
    "simplex.lp_calls": "simplex.lp",
    "ratios.parse_calls": "ratios.parse",
    "ratios.eval_calls": "ratios.eval",
    "polyarith.asn_calls": "polyarith.asn",
    "polyarith.minor_calls": "polyarith.minor",
}

SETUP_JOB = -1


class Tracer:
    """Records spans while installed.  Create it after the package's
    modules are imported; it binds to the module objects it finds then."""

    def __init__(self):
        self.spans: List[list] = []
        self.job: int = SETUP_JOB
        self._stack: List[int] = []
        self._bindings: List[Tuple[object, str, object, object]] = []
        self._discover()

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "minorcones"
                                        or name.startswith("minorcones."))]

    def _discover(self) -> None:
        wrappers: Dict[int, object] = {}
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"minorcones.{module_name}"]
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, span)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value, wrapper))
        reproduce = sys.modules.get("minorcones.reproduce")
        if reproduce is not None:
            checks = reproduce.CHECKS
            wrapped = tuple((name, self._wrap(fn, f"reproduce.{name}"))
                            for name, fn in checks)
            self._bindings.append((reproduce, "CHECKS", checks, wrapped))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        value_of = VALUES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                    None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                span[5] = value_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @property
    def bindings(self) -> List[Tuple[object, str, object, object]]:
        return list(self._bindings)

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    @contextmanager
    def recording(self, job: int):
        self.job = job
        self.install()
        try:
            yield self
        finally:
            self.restore()



def write_spans(spans: Sequence[Sequence], path) -> None:
    """Write spans as gzip-compressed JSON."""
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job",
                              "value"], "spans": spans}, fh)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time covered by its child spans.
    Parents precede their children, and indices are local to `spans`."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def under(spans: Sequence[Sequence], ancestor: str) -> List[bool]:
    """Whether each span has a span named `ancestor` above it."""
    flags: List[bool] = []
    for name, _, _, parent, _, _ in spans:
        flags.append(parent >= 0 and (spans[parent][0] == ancestor
                                      or flags[parent]))
    return flags


def layer_metrics(spans: Sequence[Sequence], jobs: int, processes: int,
                  job_seconds: Sequence[float],
                  untraced_seconds: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    `jobs` is the number of traced jobs, `processes` the number of
    interpreters that paid the package's caches (catalogue time is per
    process), and `job_seconds`/`untraced_seconds` the wall time of each job
    with and without tracing, in the same order.
    """
    own = self_times(spans)
    in_rays = under(spans, "cones.rays")
    per = 1.0 / max(jobs, 1)
    times: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    values: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    catalog = 0.0
    rank_in_rays = 0
    for i, (name, start, end, _, job, value) in enumerate(spans):
        if name == "nullity.catalog":
            catalog += end - start
        if job == SETUP_JOB:
            continue
        times[name] = times.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if value is not None:
            values[name] = values.get(name, 0) + value
        if name == "exact.rank" and in_rays[i]:
            rank_in_rays += 1

    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(times.get(n, 0.0) for n in names) * per
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) * per
    rays_out = values.get("cones.rays", 0)
    out["cones.rays_out"] = rays_out * per
    out["cones.rank_calls_per_ray"] = (rank_in_rays / rays_out
                                       if rays_out else 0.0)
    out["nullity.catalog_s"] = catalog / max(processes, 1)
    lp_calls = calls.get("simplex.lp", 0)
    out["simplex.feasible_frac"] = (values.get("simplex.lp", 0) / lp_calls
                                    if lp_calls else 0.0)
    minors_time = times.get("probe.minors", 0.0)
    out["probe.minors_per_s"] = (values.get("probe.minors", 0) / minors_time
                                 if minors_time else 0.0)
    check_total = 0.0
    for check in REPRODUCE_CHECKS:
        seconds = inclusive.get(f"reproduce.{check}", 0.0)
        out[f"reproduce.{check}_s"] = seconds * per
        check_total += seconds
    # Interpreter start, imports, argument parsing and report writing: the
    # part of a `reproduce` job outside its ten checks.
    out["cli.startup_s"] = ((sum(job_seconds) - check_total) * per
                            if check_total else 0.0)
    untraced = sum(untraced_seconds)
    out["trace.overhead_pct"] = (100.0 * (sum(job_seconds) / untraced - 1.0)
                                 if untraced else 0.0)
    return {name: out[name] for name in PER_LAYER}
