"""Command-line front end.

Subcommands: distance, ball-volume, cdc-table, verify, bump-search, sigma.
Every numeric artifact carries its method, error, seed and budget, and
repeated runs with the same seed are byte-identical regardless of the
CARNOT_ISO_THREADS worker count.

Point syntax: "[x1,...,x2n;t]" for Heisenberg points, "(x1,...|z1,...)"
for H-type exponential coordinates. Each group model refuses the other's
syntax: their layer 2 differ (t = -4 Z on H^1), so one text names two points.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import geodesics, groups, isodiametric, measures, metrics, sampling

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
# FloatingPointError: a volume or sampling box outside the normal float range;
# OverflowError: e.g. Gamma(m/2 + 1) in a ball volume of a large group
NUMERICAL_ERRORS = (metrics.ConvergenceError, metrics.QuadratureError, FloatingPointError,
                    OverflowError)


class InputError(ValueError):
    pass


def parse_group(text: str) -> groups.GroupSpec:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            spec = groups.GroupSpec.from_json(fh.read())
    elif text.startswith("h") and text[1:].isdigit():
        spec = groups.heisenberg(int(text[1:]))
    elif text == "h1-htype":
        spec = groups.h_type(groups.standard_symplectic())
    else:
        raise InputError(f"cannot parse group {text!r} (use hN, h1-htype, or @spec.json)")
    if spec.dim1 + spec.dim2 > sampling.MAX_CHUNK_FLOATS:  # one point must fit in a chunk
        raise InputError(f"group {text!r} has {spec.dim1 + spec.dim2} coordinates a point, above "
                         f"the limit of {sampling.MAX_CHUNK_FLOATS} floats of a sampling chunk")
    return spec


def parse_point(spec: groups.GroupSpec, text: str) -> groups.GroupPoint:
    text = text.strip()
    model, syntax, sep = spec.point_syntax
    if not (text.startswith(syntax[0]) and text.endswith(syntax[-1])):
        raise InputError(f"cannot parse point {text!r}: {model} points are written {syntax}")
    try:
        l1, l2 = ([float(v) for v in part.split(",")] if part.strip() else []
                  for part in text[1:-1].split(sep))
        p = groups.point(l1, l2)
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}: {exc}") from exc
    if p.layer1.shape[-1] != spec.dim1 or p.layer2.shape[-1] != spec.dim2:
        raise InputError(f"point {text!r} has wrong dimensions for the group")
    return p


def emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_distance(args) -> int:
    spec = parse_group(args.group)
    metric = metrics.make_metric(spec, vars(args))
    p = parse_point(spec, args.p)
    q = parse_point(spec, args.q)
    d = metric.dist(p, q)
    doc = {"distance": {"value": d, "error": 0.0, "method": "closed_form"},
           "group": json.loads(spec.to_json()), "metric": metric.describe()}
    emit(args, dump_json(doc))
    return EXIT_OK


def cmd_ball_volume(args) -> int:
    spec = parse_group(args.group)
    metric = metrics.make_metric(spec, vars(args))
    val, err = metrics.unit_ball_volume(metric)
    est = measures.EstimateWithError(val, err, metric.volume_method)
    doc = {"volume": est.to_dict(), "group": json.loads(spec.to_json()),
           "metric": metric.describe()}
    emit(args, dump_json(doc))
    return EXIT_OK


def cmd_cdc_table(args) -> int:
    if args.n_max < args.n_min - 1:
        raise InputError(f"--n-max {args.n_max} is below --n-min {args.n_min} "
                         "(n-max = n-min - 1 gives an empty table)")
    rows, failure = [], None
    for n in range(args.n_min, args.n_max + 1):
        try:
            metric = metrics.CCMetric(groups.heisenberg(n))
            rows.append((n, metrics.unit_ball_volume(metric)[0],
                         isodiametric.projection_upper_bound(metric)))
        except NUMERICAL_ERRORS as exc:  # keep the rows before n, then fail naming n
            failure = type(exc)(f"at n = {n}: {exc}")
            break
    if args.format == "json":
        doc = {"rows": [{"n": n, "cc_ball_volume": v, "cdc_upper_bound": b}
                        for n, v, b in rows],
               "method": metrics.CCMetric.volume_method}
        emit(args, dump_json(doc))
    else:
        lines = ["n,cc_ball_volume,cdc_upper_bound"]
        lines += [f"{n},{v:.12g},{b:.12g}" for n, v, b in rows]
        emit(args, "\n".join(lines) + "\n")
    if failure:
        raise failure
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = parse_group(args.group)
    if args.counterexample == "cc":
        report = geodesics.verify_assumption_C(spec, sample_budget=args.budget,
                                               seed=args.seed)
    else:
        metric = metrics.make_metric(spec, {"metric": args.counterexample})
        report = isodiametric.apex_reach(metric, budget=args.budget, seed=args.seed)
    doc = {"counterexample": args.counterexample, "report": report.to_dict(),
           "budget": args.budget, "seed": args.seed}
    emit(args, dump_json(doc))
    return EXIT_OK


def cmd_bump_search(args) -> int:
    spec = parse_group(args.group)
    metric = metrics.make_metric(spec, vars(args))
    result = isodiametric.maximize_bump(metric, budget=args.budget, seed=args.seed)
    doc = {"result": result.to_dict(), "budget": args.budget, "seed": args.seed}
    emit(args, dump_json(doc))
    return EXIT_OK


def cmd_sigma(args) -> int:
    spec = parse_group(args.group)
    metric = metrics.make_metric(spec, vars(args))
    if (args.c_lower is None) != (args.c_upper is None):
        raise InputError("give both --c-lower and --c-upper, or neither")
    if args.c_lower is not None:
        bounds = isodiametric.SigmaBounds(C_lower=args.c_lower, C_upper=args.c_upper)
    else:
        bounds = isodiametric.sigma_bounds_for(metric, budget=args.budget,
                                               seed=args.seed)
    doc = {"sigma": bounds.to_dict(), "group": json.loads(spec.to_json()),
           "metric": metric.describe(), "budget": args.budget, "seed": args.seed}
    emit(args, dump_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carnotiso",
        description="Homogeneous distances, ball volumes and isodiametric "
                    "bounds on Heisenberg and H-type groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, metric=True, mc=False):
        p.add_argument("--group", default="h1",
                       help="hN, h1-htype, or @spec.json (default h1)")
        if metric:
            p.add_argument("--metric", default="dinf", choices=["dinf", "gauge", "cc"])
            # None marks "not given": only d_inf takes them, and then 1.0
            p.add_argument("--c1", type=float, default=None, help="d_inf only (default 1)")
            p.add_argument("--c2", type=float, default=None, help="d_inf only (default 1)")
        p.add_argument("--output", default=None)
        if mc:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--budget", type=int, default=10**6)

    p = sub.add_parser("distance", help="distance between two points")
    common(p)
    p.add_argument("p", help='first point, e.g. "[0,0;0]"')
    p.add_argument("q", help='second point, e.g. "[0,0;4]"')
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("ball-volume", help="Haar volume of the unit ball")
    common(p)
    p.set_defaults(func=cmd_ball_volume)

    p = sub.add_parser("cdc-table", help="CC isodiametric upper bounds per n")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cdc_table)

    p = sub.add_parser("verify", help="counterexample evidence reports")
    p.add_argument("counterexample", choices=["dinf", "gauge", "cc"])
    common(p, metric=False, mc=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bump-search", help="best ball-plus-bump ratio")
    common(p, mc=True)
    p.set_defaults(func=cmd_bump_search)

    p = sub.add_parser("sigma", help="density-constant interval")
    common(p, mc=True)
    p.add_argument("--c-lower", type=float, default=None)
    p.add_argument("--c-upper", type=float, default=None)
    p.set_defaults(func=cmd_sigma)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once a process: building it is most of a short call's fixed cost.

    parse_args keeps no state between calls, so every call parses as a fresh parser would.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # OSError: the --group @file or --output path cannot be read or written
    except (InputError, groups.GroupError, metrics.MetricError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except NUMERICAL_ERRORS as exc:
        what = f"overflow ({exc})" if isinstance(exc, OverflowError) else exc
        sys.stderr.write(f"numerical error: {what}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
