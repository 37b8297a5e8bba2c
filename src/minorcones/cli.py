"""Command-line interface.

Subcommands: nullity, membership, extreme-rays, asn, probe-family,
probe-poly, bound-search, fiedler, reproduce.  Membership exits 0 for a
member, 1 for a non-member; any command exits 2 on error and 141 when its
stdout is closed early.  Output is byte-stable for fixed inputs and seeds;
subsets print in (size, value) order.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import cones, nullity, polyarith, probe, reproduce
from .ratios import FormalLog, is_homogeneous, log_of
from .subsets import format_subset, ordered_entries, subset_order


def _emit(payload: dict, text: str, args) -> None:
    rendered = json.dumps(payload, indent=2) if args.format == "json" else text
    print(rendered)
    if getattr(args, "out", None):
        Path(args.out).write_text(rendered + "\n")


def _subset_lines(entries, n) -> str:
    return "\n".join(f"{format_subset(mask)}: {entries[mask]}"
                     for mask in subset_order(n))


def _grid(args):
    grid = args.default_grid
    lo = grid[-1] if args.eps_min is None else args.eps_min
    hi = grid[0] if args.eps_max is None else args.eps_max
    if (hi, lo) == (grid[0], grid[-1]):
        return grid
    return tuple(float(x) for x in np.geomspace(hi, lo, 9))


def _system(name: str, n: int):
    return (cones.build_D_system if name == "D" else cones.build_E_system)(n)


def cmd_type(args) -> int:
    """nullity and asn: the subset-indexed type of the matrix in a file,
    with the command's own JSON fields after the entries."""
    vec = args.type_of(args.parse(Path(args.matrix).read_text()))
    payload = {"n": vec.ground_size,
               "entries": {format_subset(mask): vec[mask]
                           for mask in subset_order(vec.ground_size)},
               **args.fields}
    _emit(payload, _subset_lines(vec.entries, vec.ground_size), args)
    return 0


def cmd_membership(args) -> int:
    v = log_of(args.ratio, args.n)
    n = v.ground_size
    if args.semigroup == "H":
        member = is_homogeneous(v)
        payload = {"semigroup": "H", "n": n, "member": member}
        _emit(payload, f"member of H_{n}: {member}", args)
        return 0 if member else 1
    if not is_homogeneous(v):
        print("error: ratio is not homogeneous", file=sys.stderr)
        return 2
    if args.semigroup == "K":
        cert = cones.koteljanskii_cone_membership(v)
        if cert.verdict:
            lines = [f"member of cone(K_{n}); combination:"]
            lines += [f"  ({format_subset(s)},{format_subset(t)}) * {c}"
                      for (s, t), c in cert.combination]
            payload = {"semigroup": "K", "n": n, "member": True,
                       "combination": [
                           [format_subset(s), format_subset(t), str(c)]
                           for (s, t), c in cert.combination]}
        else:
            lines = [f"not a member of cone(K_{n}); separating hyperplane:"]
            lines += ["  " + " ".join(str(x) for x in cert.hyperplane)]
            payload = {"semigroup": "K", "n": n, "member": False,
                       "hyperplane": [str(x) for x in cert.hyperplane]}
        _emit(payload, "\n".join(lines), args)
        return 0 if cert.verdict else 1
    cert = cones.membership(v, _system(args.semigroup, n))
    lines = [f"member of {args.semigroup}_{n}: {cert.verdict}"]
    lines += [f"  {label}: {value}" for label, value in cert.inner_products]
    if cert.witness:
        lines.append(f"violated: {cert.witness[0]} = {cert.witness[1]}")
    payload = {"semigroup": args.semigroup, "n": n, "member": cert.verdict,
               "inner_products": [[label, str(value)]
                                  for label, value in cert.inner_products],
               "witness": cert.witness and [cert.witness[0],
                                            str(cert.witness[1])]}
    _emit(payload, "\n".join(lines), args)
    return 0 if cert.verdict else 1


def cmd_extreme_rays(args) -> int:
    supported = {("E", 3), ("E", 4), ("E", 5), ("D", 3), ("D", 4)}
    if (args.system, args.n) not in supported:
        print(f"error: unsupported system ({args.system}, {args.n})",
              file=sys.stderr)
        return 2
    rays = cones.extreme_rays(_system(args.system, args.n))
    orbits = cones.orbit_decompose(rays)
    koteljanskii = [probe.is_koteljanskii_ray(FormalLog(args.n, ray.vector))
                    for ray in rays]
    ordered = [ordered_entries(ray.vector, args.n) for ray in rays]
    representatives = [ordered_entries(o.representative, args.n)
                       for o in orbits]
    lines = [f"{len(rays)} extreme rays of log({args.system}_{args.n})"]
    for i, (ray, kot) in enumerate(zip(ordered, koteljanskii), start=1):
        kind = "koteljanskii" if kot else "other"
        lines.append(f"ray {i} [{kind}]: " + " ".join(map(str, ray)))
    lines.append(f"{len(orbits)} orbits under permutation+complementation "
                 f"(sizes {[len(o.members) for o in orbits]})")
    for i, rep in enumerate(representatives, start=1):
        lines.append(f"orbit {i} representative: " + " ".join(map(str, rep)))
    payload = {
        "system": args.system, "n": args.n, "ray_count": len(rays),
        "rays": ordered, "koteljanskii": koteljanskii,
        "orbit_sizes": [len(o.members) for o in orbits],
        "orbit_representatives": representatives,
    }
    _emit(payload, "\n".join(lines), args)
    return 0


def cmd_probe(args) -> int:
    """probe-family and probe-poly: the slope probe of a ratio along the
    family of the matrix in a file, on the given grid or the probe's
    default."""
    v = log_of(args.ratio, args.n)
    family = args.parse(Path(args.matrix).read_text())
    report = args.probe(v, family, _grid(args))
    text = "\n".join([
        "epsilons: " + " ".join(f"{e:g}" for e in report.epsilons),
        "log_ratio: " + " ".join(f"{v:.6f}" for v in report.log_ratio_values),
        f"fitted_slope: {report.fitted_slope:.6f}",
        f"predicted_slope: {report.predicted_slope}",
        f"residual: {report.residual:.3g}",
        "verdict: " + ("matches" if report.verdict
                       else "diverges-from-prediction"),
    ])
    _emit(report.to_dict(), text, args)
    return 0


def cmd_bound_search(args) -> int:
    v = log_of(args.ratio, args.n)
    cfg = probe.SamplerConfig(seed=args.seed, count=args.samples,
                              dimension=v.ground_size)
    result = probe.bound_search(v, cfg)
    text = "\n".join([
        f"max_ratio: {result.max_ratio:.9f}",
        f"diverging: {result.diverging}",
        "argmax:",
        "\n".join("  " + " ".join(f"{x:.9f}" for x in row)
                  for row in result.argmax),
    ])
    payload = {"max_ratio": result.max_ratio, "diverging": result.diverging,
               "argmax": result.argmax.tolist()}
    _emit(payload, text, args)
    return 0


def cmd_fiedler(args) -> int:
    cfg = probe.SamplerConfig(seed=args.seed, count=args.samples,
                              dimension=args.n)
    worst = min(float(probe.fiedler_check(chunk).min())
                for chunk in probe.sample_pd_chunks(cfg))
    text = f"samples: {args.samples}\nworst_residual: {worst:.3g}"
    _emit({"samples": args.samples, "worst_residual": worst}, text, args)
    return 0


def cmd_reproduce(args) -> int:
    results = reproduce.run_all()
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<26} "
                     f"{r.seconds:6.2f}s")
        for key, value in r.details.items():
            lines.append(f"      {key}: {value}")
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    text = "\n".join(lines)
    print(text)
    if args.out:
        payload = {"checks": [
            {"name": r.name, "passed": r.passed, "seconds": r.seconds,
             "details": r.details} for r in results]}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorcones",
        description="Bounded ratios of products of principal minors: exact "
                    "cone membership, extreme rays, and numeric probes. "
                    "After deleting index i, indices j > i are relabeled "
                    "to j-1.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="also write the report to this path")

    p = sub.add_parser("nullity", help="nullity type of a rational matrix")
    p.add_argument("matrix", help="matrix file (rows of integers or p/q)")
    common(p)
    p.set_defaults(fn=cmd_type, parse=nullity.parse_matrix,
                   type_of=nullity.nullity_type, fields={})

    p = sub.add_parser("membership", help="semigroup membership certificate")
    p.add_argument("ratio", help="ratio string, e.g. '{1,2}{}/{1}{2}'")
    p.add_argument("--semigroup", choices=("H", "E", "D", "K"), required=True)
    p.add_argument("--n", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_membership)

    p = sub.add_parser("extreme-rays", help="enumerate extreme rays")
    p.add_argument("--system", choices=("E", "D"), required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_extreme_rays)

    p = sub.add_parser("asn", help="asymptotic nullity type of P(e)")
    p.add_argument("matrix", help="polynomial matrix file (entries in e, "
                                  "comma-separated)")
    common(p)
    p.set_defaults(fn=cmd_type, parse=polyarith.parse_poly_matrix,
                   type_of=polyarith.asn,
                   fields={"dominating_coefficients":
                           "all positive even powers"})

    for name, help_text, parse, probe_fn, grid in (
            ("probe-family", "slope probe along M^T M + eps I",
             nullity.parse_matrix, probe.eval_family_slope,
             probe.DEFAULT_GRID),
            ("probe-poly", "slope probe along P(e)^T P(e)",
             polyarith.parse_poly_matrix, probe.eval_poly_family_slope,
             probe.DEFAULT_POLY_GRID)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ratio")
        p.add_argument("matrix")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--eps-min", type=float, default=None)
        p.add_argument("--eps-max", type=float, default=None)
        common(p)
        p.set_defaults(fn=cmd_probe, parse=parse, probe=probe_fn,
                       default_grid=grid)

    p = sub.add_parser("bound-search", help="empirical supremum of a ratio")
    p.add_argument("ratio")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=4200)
    p.add_argument("--samples", type=int, default=100_000)
    common(p)
    p.set_defaults(fn=cmd_bound_search)

    p = sub.add_parser("fiedler", help="Fiedler inequality over random PD")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    common(p)
    p.set_defaults(fn=cmd_fiedler)

    p = sub.add_parser("reproduce", help="run the full reproduction suite")
    p.add_argument("--out", help="write a structured JSON report here")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (`| head -1`): exit as SIGPIPE would, 128 + 13,
        # with stdout on devnull so that the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
