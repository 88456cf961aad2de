"""Command-line front end.

Subcommands:
  fixture list | fixture emit <name> --out cloud.txt
  analyze --input <cloud.txt|fixture:name> --point <coords> --order k --alpha a
  verify --suite <cones|equivalence|uniqueness|shear|pointwise|sff|touching|transfer|all>
  plot-data --trace report.json --out trace.csv

Exit codes: 0 holds, 1 fails, 2 usage, 3 inconclusive.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .density import (
    DYADIC_GAP_SCHEDULE,
    DYADIC_SCHEDULE,
    ScaleSchedule,
    blow_up_tangent,
    cone_condition_check,
    density_ratio,
    density_transfer_check,
    in_lower_tangent_cone,
    in_upper_tangent_cone,
    lower_density,
    upper_density,
)
from .fixtures import CATALOG, ground_truth_report, make_fixture, point_key
from .geometry import Plane
from .jetfit import (
    estimate_tangent_plane,
    iterated_jet_fit,
    jet_uniqueness_crosscheck,
    jsonable,
    shear_invariance_check,
)
from .measure import CloudOracle, read_cloud, write_cloud
from .pointwise import (
    carve_full_density_subset,
    in_pt_lower_cone,
    in_pt_upper_cone,
    pt_diff_order1_test,
    touching_ball_check,
)
from .sff import approximate_sff, normal_field_identity_check

EXIT_HOLDS, EXIT_FAILS, EXIT_USAGE, EXIT_INCONCLUSIVE = 0, 1, 2, 3


class UsageError(Exception):
    pass


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise UsageError(f"cannot parse point {text!r}")
    if not np.all(np.isfinite(point)):
        raise UsageError(f"point {text!r} has a non-finite coordinate")
    return point


def _parse_schedule(text: str) -> ScaleSchedule:
    try:
        r0, q, J = text.split(",")
        return ScaleSchedule(float(r0), float(q), int(J))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad schedule {text!r}: {exc}")


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"parameter {pair!r} is not key=value")
        key, val = pair.split("=", 1)
        if "," in val:
            out[key] = tuple(float(tok) for tok in val.split(","))
        else:
            try:
                out[key] = int(val)
            except ValueError:
                try:
                    out[key] = float(val)
                except ValueError:
                    out[key] = val
    return out


def _load_input(spec: str):
    """Returns (oracle, default_schedule, fixture_or_none).

    A cloud's default schedule is ScaleSchedule() with q raised, if need
    be, until its granularity leaves a trace long enough for a verdict.
    """
    if spec.startswith("fixture:"):
        name = spec.split(":", 1)[1]
        try:
            fx = make_fixture(name)
        except KeyError as exc:
            raise UsageError(str(exc))
        return fx.oracle, fx.schedule, fx
    try:
        cloud, m = read_cloud(spec)
        oracle = CloudOracle(cloud, m=m)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read cloud {spec!r}: {exc}")
    return oracle, ScaleSchedule().decisive_for(oracle), None


def _write_out(path: str, write) -> None:
    """write(fp) into path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fp:
            write(fp)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}")


def _verdict_exit(status: str) -> int:
    if status == "holds":
        return EXIT_HOLDS
    if status == "fails":
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# fixture


def cmd_fixture(args) -> int:
    if args.action == "list":
        for name in sorted(CATALOG):
            print(f"{name:18s} {CATALOG[name][1]}")
        return EXIT_HOLDS
    try:
        fx = make_fixture(args.name, **_parse_params(args.param))
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc))
    except TypeError as exc:
        # a tuple where a number belongs, or the reverse
        raise UsageError(f"bad parameters for fixture {args.name!r}: {exc}")
    # segment-backed oracles quantize to their sampling density; emit them
    # fine enough that re-analysis of the file resolves the default schedule
    cloud = fx.sample_cloud(per_piece=32768)
    # the cloud first: a ground truth is never left without its cloud
    _write_out(args.out, lambda fp: write_cloud(cloud, fx.m, fp))
    gt_path = args.out + ".gt.json"
    _write_out(gt_path, lambda fp: json.dump(jsonable(ground_truth_report(fx)), fp,
                                             sort_keys=True, indent=2))
    print(f"wrote {len(cloud.weights)} samples to {args.out}, "
          f"ground truth to {gt_path}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# analyze


def run_analysis(oracle, a, k, alpha, schedule) -> tuple[dict, int]:
    timings = {}
    t0 = time.perf_counter()
    try:
        jet, verdict = iterated_jet_fit(oracle, a, k, alpha, schedule)
    except NotImplementedError as exc:
        # exact closed-form oracles cannot evaluate every region family the
        # higher-order residual conditions need; the analysis cannot decide
        print(f"note: {exc}", file=sys.stderr)
        jet = verdict = None
    timings["jet_fit"] = time.perf_counter() - t0

    tangent, traces = None, []
    if verdict is None:
        verdicts, code = {"jet_fit": "inconclusive"}, EXIT_INCONCLUSIVE
    else:
        # without a validated plane the tangent stage decided the jet fit,
        # and its status and reason are the jet fit's
        tangent_decided = verdict.diagnostics.get("stage") == "tangent_plane"
        verdicts = {
            "tangent_plane": verdict.status if tangent_decided else "holds",
            "jet_fit": verdict.status,
        }
        if k >= 2 and not tangent_decided:
            try:
                approximate_sff(jet)
                verdicts["sff"] = "holds"
            except ValueError:
                verdicts["sff"] = "fails"
        tangent = ({"reason": verdict.diagnostics["tangent"].get("reason")}
                   if tangent_decided
                   else {"m": jet.plane.m, "basis": jet.plane.basis.tolist()})
        code = _verdict_exit(verdict.status)

        t0 = time.perf_counter()
        try:
            traces.append(upper_density(oracle, a, oracle.m, schedule))
        except ValueError:
            pass
        timings["density_trace"] = time.perf_counter() - t0

    report = {
        "version": __version__,
        "point": [float(c) for c in a],
        "schedule": schedule.to_dict(),
        "tangent": tangent,
        "jet": jsonable(jet),
        "traces": [jsonable(t) for t in traces],
        "verdicts": verdicts,
        "timings": timings,
    }
    return report, code


def cmd_analyze(args) -> int:
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    if not 0.0 <= args.alpha <= 1.0:
        raise UsageError(f"--alpha must lie in [0, 1], got {args.alpha}")
    oracle, default_schedule, fx = _load_input(args.input)
    a = _parse_point(args.point)
    if a.shape[0] != oracle.n:
        raise UsageError(f"point has {a.shape[0]} coords, set lives in R^{oracle.n}")
    schedule = _parse_schedule(args.schedule) if args.schedule else default_schedule
    if args.out:   # an unwritable path fails now, not after the analysis
        _write_out(args.out, lambda fp: None)
    report, code = run_analysis(oracle, a, args.order, args.alpha, schedule)
    report["input"] = args.input
    if args.out:
        _write_out(args.out, lambda fp: json.dump(report, fp, sort_keys=True, indent=2))
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        print()
    print(f"jet_fit: {report['verdicts']['jet_fit']}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# verification suites


def _check(name, ok, **numbers):
    entry = {"name": name, "pass": bool(ok)}
    entry.update({k: jsonable(v) for k, v in numbers.items()})
    return entry


def suite_cones(seed: int) -> list[dict]:
    checks = []
    dyadic = make_fixture("dyadic_annuli")
    a1 = np.zeros(1)
    worst = 0.0
    for i in range(2, 9):
        lo, _ = density_ratio(dyadic.oracle, a1, 1, 2.0 ** (-2 * i - 1))
        hi, _ = density_ratio(dyadic.oracle, a1, 1, 2.0 ** (-2 * i))
        worst = max(worst, abs(lo - 1 / 3), abs(hi - 2 / 3))
    checks.append(_check("dyadic_exact_ratios", worst <= 1e-9, worst=worst))
    for v in (1.0, -1.0):
        up = in_upper_tangent_cone(dyadic.oracle, a1, 1, np.array([v]),
                                   schedule=DYADIC_SCHEDULE)
        lo = in_lower_tangent_cone(dyadic.oracle, a1, 1, np.array([v]),
                                   schedule=DYADIC_GAP_SCHEDULE)
        checks.append(_check(f"dyadic_upper_cone_v={v}", up.status == "holds",
                             status=up.status))
        checks.append(_check(f"dyadic_lower_cone_v={v}", lo.status == "fails",
                             status=lo.status))

    line = make_fixture("line")
    a2 = np.zeros(2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for v, want in ((e1, "holds"), (e2, "fails")):
        up = in_upper_tangent_cone(line.oracle, a2, 1, v, schedule=line.schedule)
        lo = in_lower_tangent_cone(line.oracle, a2, 1, v, schedule=line.schedule)
        checks.append(_check(f"line_upper_cone_v={v.tolist()}",
                             up.status == want, status=up.status))
        checks.append(_check(f"line_lower_cone_v={v.tolist()}",
                             lo.status == want, status=lo.status))

    aag = make_fixture("a_alpha_gamma", gamma=2.0, alpha=0.75)
    trace = lower_density(aag.oracle, a2, 1, aag.schedule)
    tail = trace.ratios()[-10:]
    increasing = bool(np.all(np.diff(tail) > 0))
    checks.append(_check("aag_lower_density_diverges",
                         increasing and tail[-1] > 10,
                         verdict=trace.verdict, last=float(tail[-1])))
    est = estimate_tangent_plane(aag.oracle, a2, aag.schedule)
    gap = (est[1].distance_to(Plane.axis(2, [0]))
           if est is not None else float("inf"))
    checks.append(_check("aag_tangent_is_x_axis", gap <= 1e-2, angle_gap=gap))
    blow = blow_up_tangent(aag.oracle, a2, 1, schedule=aag.schedule)
    checks.append(_check("aag_blow_up_is_none", blow is None))
    return checks


def suite_equivalence(seed: int) -> list[dict]:
    x_axis, y_axis = Plane.axis(2, [0]), Plane.axis(2, [1])
    diag = Plane.from_spanning(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
    cases = []
    for name, kwargs in (("line", {}), ("graph_poly", dict(coeffs=(1.0, 0.0))),
                         ("graph_poly", dict(coeffs=(0.5, 2.0))),
                         ("graph_poly", dict(coeffs=(0.0, 1.0))),
                         ("parabola_touch", {})):
        fx = make_fixture(name, **kwargs)
        label = name if not kwargs else f"{name}{kwargs.get('coeffs', '')}"
        for T, tlab in ((x_axis, "x"), (y_axis, "y"), (diag, "diag")):
            cases.append((label, fx.oracle, fx.marked_points[0], T, tlab,
                          fx.schedule))
    circle = make_fixture("circle")
    tangent = Plane.from_spanning(np.array(
        circle.ground_truth[point_key(circle.marked_points[0])]["plane_basis"]))
    normal = Plane.axis(2, [0])
    for T, tlab in ((tangent, "tangent"), (normal, "normal"), (diag, "diag")):
        cases.append(("circle", circle.oracle, circle.marked_points[0], T, tlab,
                      circle.schedule))
    comb = make_fixture("comb")
    for T, tlab in ((x_axis, "x"), (y_axis, "y")):
        cases.append(("comb", comb.oracle, comb.marked_points[0], T, tlab,
                      comb.schedule))

    checks = []
    for label, oracle, a, T, tlab, sched in cases:
        vii, viii = cone_condition_check(oracle, a, T, schedule=sched)
        checks.append(_check(f"equivalence_{label}_{tlab}",
                             vii.status == viii.status,
                             cond_ii=vii.status, cond_iii=viii.status))
    return checks


GRAPH_COEFFS = [(1.0, 0.0), (0.5, 2.0), (0.0, 1.0)]


def _fitted_graph_jets():
    out = []
    for c2, c3 in GRAPH_COEFFS:
        fx = make_fixture("graph_poly", coeffs=(c2, c3))
        jet, verdict = iterated_jet_fit(fx.oracle, np.zeros(2), 3, 0.0,
                                        fx.schedule)
        out.append((f"graph({c2},{c3})", fx, jet, verdict))
    return out


def suite_uniqueness(seed: int) -> list[dict]:
    checks = []
    for label, fx, jet, verdict in _fitted_graph_jets():
        checks.append(_check(f"fit_{label}", verdict.status == "holds",
                             status=verdict.status))
        cross = jet_uniqueness_crosscheck(fx.oracle, np.zeros(2), jet.plane, 3,
                                          fx.schedule)
        gap = cross.diagnostics.get("gap", float("inf"))
        checks.append(_check(f"uniqueness_{label}",
                             cross.status == "holds" and gap <= 1e-2, gap=gap))
    return checks


def suite_shear(seed: int) -> list[dict]:
    checks = []
    for label, fx, jet, verdict in _fitted_graph_jets():
        if verdict.status != "holds":
            checks.append(_check(f"shear_{label}", False, status=verdict.status))
            continue
        out = shear_invariance_check(fx.oracle, np.zeros(2), jet, fx.schedule)
        checks.append(_check(f"shear_{label}", out.status == "holds",
                             before=out.diagnostics.get("before_status"),
                             after=out.diagnostics.get("after_status")))
    return checks


def suite_pointwise(seed: int) -> list[dict]:
    checks = []
    line = make_fixture("line")
    a2 = np.zeros(2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for v, want in ((e1, "holds"), (e2, "fails")):
        up = in_pt_upper_cone(line, a2, v, line.schedule)
        lo = in_pt_lower_cone(line, a2, v, line.schedule)
        checks.append(_check(f"line_pt_upper_v={v.tolist()}", up.status == want,
                             status=up.status))
        checks.append(_check(f"line_pt_lower_v={v.tolist()}", lo.status == want,
                             status=lo.status))

    x_axis = Plane.axis(2, [0])
    parabola = make_fixture("graph_poly", coeffs=(1.0, 0.0))
    T = pt_diff_order1_test(parabola, a2, parabola.schedule)
    gap = T.distance_to(x_axis) if T is not None else float("inf")
    checks.append(_check("parabola_pt_plane", gap <= 1e-2, angle_gap=gap))

    circle = make_fixture("circle")
    want = Plane.from_spanning(np.array(
        circle.ground_truth[point_key(circle.marked_points[0])]["plane_basis"]))
    T = pt_diff_order1_test(circle, circle.marked_points[0], ScaleSchedule())
    gap = T.distance_to(want) if T is not None else float("inf")
    checks.append(_check("circle_pt_plane", gap <= 1e-2, angle_gap=gap))

    dyadic = make_fixture("dyadic_annuli")
    T = pt_diff_order1_test(dyadic, np.zeros(1), DYADIC_GAP_SCHEDULE)
    checks.append(_check("dyadic_no_pt_plane", T is None))

    noisy = make_fixture("noisy_parabola", k=2)
    jet, verdict = iterated_jet_fit(noisy.oracle, a2, 2, 0.0, noisy.schedule)
    carved, carve_verdict = carve_full_density_subset(noisy.oracle, a2, jet,
                                                      noisy.schedule)
    checks.append(_check("noisy_parabola_carve",
                         verdict.status == "holds"
                         and carve_verdict.status == "holds",
                         fit=verdict.status, carve=carve_verdict.status))
    T = pt_diff_order1_test(carved, a2, noisy.schedule)
    gap = T.distance_to(x_axis) if T is not None else float("inf")
    checks.append(_check("carved_pt_plane", gap <= 1e-2, angle_gap=gap))
    return checks


def suite_sff(seed: int) -> list[dict]:
    checks = []
    cases = [("circle", {}, [1.0]), ("sphere", {}, [1.0, 1.0]),
             ("torus", {}, [1 / 1.3, 1 / 0.3])]
    for name, kwargs, want in cases:
        fx = make_fixture(name, **kwargs)
        key = point_key(fx.marked_points[0])
        form = approximate_sff(fx.jets[key])
        chart = fx.sff_charts[key]
        nu = chart.normal(np.atleast_2d(chart.t0))[0]
        eig = np.sort(np.linalg.eigvalsh(-form.matrix(nu)))
        gap = float(np.max(np.abs(eig - np.sort(want))))
        checks.append(_check(f"sff_eigenvalues_{name}", gap <= 1e-9,
                             eigenvalues=eig, gap=gap))
    for name, kwargs in (("circle", {}), ("sphere", {}), ("torus", {}),
                         ("graph_poly", dict(coeffs=(1.0, 0.0)))):
        fx = make_fixture(name, **kwargs)
        out = normal_field_identity_check(fx, fx.marked_points[0])
        checks.append(_check(f"normal_identity_{name}", out.status == "holds",
                             worst_gap=out.diagnostics.get("worst_gap")))
    return checks


def suite_touching(seed: int) -> list[dict]:
    fx = make_fixture("parabola_touch")
    a = np.zeros(2)
    jet = fx.jets[point_key(a)]
    checks = []
    for sc in fx.ground_truth[point_key(a)]["touching"]:
        out = touching_ball_check(fx, a, np.array(sc["nu"]), sc["r"], jet)
        checks.append(_check(f"touching_r={sc['r']}", out.status == sc["expect"],
                             status=out.status, expected=sc["expect"]))
    return checks


def transfer_trial(rng, domains) -> tuple[str, dict]:
    """One randomized trial with the sublevel hypothesis true by construction."""
    dlabel, oracle, sched = domains[int(rng.integers(len(domains)))]
    gamma = float(rng.uniform(1.05, 2.0))
    lam = float(rng.uniform(0.2, 2.0))
    style = int(rng.integers(3))
    if style == 0:
        # scaled-down steeper power: the failure set is empty at every scale
        c = lam * float(rng.uniform(0.1, 0.6))
        g2 = gamma + float(rng.uniform(0.0, 1.0))
        f = lambda X: c * np.abs(np.atleast_2d(X)[:, 0]) ** g2
        M = float(rng.uniform(0.05, 0.3))
    elif style == 1:
        # oscillation pushes a thin outer annulus above the threshold
        eps = float(rng.uniform(0.01, 0.2))
        w = float(rng.uniform(1.0, 30.0))
        f = lambda X: (lam * np.abs(np.atleast_2d(X)[:, 0]) ** gamma
                       * (1.0 + eps * np.cos(w * np.atleast_2d(X)[:, 0])))
        M = 4.0 * eps / gamma + 0.05
    else:
        # two-term envelope below 0.8 lam r^gamma on the unit ball
        c1 = lam * float(rng.uniform(0.1, 0.4))
        c2 = lam * float(rng.uniform(0.1, 0.4))
        g1 = gamma + float(rng.uniform(0.0, 0.5))
        g2 = gamma + float(rng.uniform(0.5, 1.5))
        f = lambda X: (c1 * np.abs(np.atleast_2d(X)[:, 0]) ** g1
                       + c2 * np.abs(np.atleast_2d(X)[:, 0]) ** g2)
        M = float(rng.uniform(0.05, 0.3))
    verdict = density_transfer_check(oracle, f, np.zeros(oracle.n),
                                     gamma=gamma, lam=lam, M=M, schedule=sched)
    return verdict.status, {"domain": dlabel, "style": style, "gamma": gamma,
                            "lam": lam, "M": M}


def suite_transfer(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    line = make_fixture("line")
    graph = make_fixture("graph_poly", coeffs=(0.5, 2.0))
    domains = [("line", line.oracle, line.schedule),
               ("graph(0.5,2)", graph.oracle, graph.schedule)]
    checks = []
    for trial in range(50):
        status, params = transfer_trial(rng, domains)
        checks.append(_check(f"transfer_trial_{trial:02d}", status == "holds",
                             status=status, **params))
    return checks


SUITES = {
    "cones": suite_cones,
    "equivalence": suite_equivalence,
    "uniqueness": suite_uniqueness,
    "shear": suite_shear,
    "pointwise": suite_pointwise,
    "sff": suite_sff,
    "touching": suite_touching,
    "transfer": suite_transfer,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.out:   # an unwritable path fails now, not after the suites
        _write_out(args.out, lambda fp: None)
    results = {"version": __version__, "seed": args.seed, "suites": {}}
    all_pass = True
    for name in names:
        t0 = time.perf_counter()
        checks = SUITES[name](args.seed)
        elapsed = time.perf_counter() - t0
        ok = all(c["pass"] for c in checks)
        all_pass &= ok
        results["suites"][name] = {"checks": checks, "pass": ok}
        print(f"{name:12s} {'PASS' if ok else 'FAIL':4s} "
              f"({len(checks)} checks, {elapsed:.1f}s)")
    if args.out:
        _write_out(args.out, lambda fp: json.dump(results, fp, sort_keys=True, indent=2))
    return EXIT_HOLDS if all_pass else EXIT_FAILS


# ---------------------------------------------------------------------------
# plot-data


def cmd_plot_data(args) -> int:
    try:
        with open(args.trace) as fp:
            report = json.load(fp)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {args.trace!r}: {exc}")
    traces = report.get("traces")
    if not isinstance(traces, list) or not 0 <= args.index < len(traces):
        raise UsageError(f"report has no trace at index {args.index}")
    trace = traces[args.index]
    entries = trace.get("entries", []) if isinstance(trace, dict) else None
    if not isinstance(entries, list) or not all(_is_trace_entry(e) for e in entries):
        raise UsageError(f"trace {args.index} has no list of [r, ratio, err] entries")

    def write(fp):
        fp.write("r,ratio,err\n")
        for r, ratio, err in entries:
            fp.write(f"{r!r},{ratio!r},{err!r}\n")

    _write_out(args.out, write)
    return EXIT_HOLDS


def _is_trace_entry(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 3 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmtjet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="list or emit catalog fixtures")
    fsub = p.add_subparsers(dest="action", required=True)
    fsub.add_parser("list", help="print the fixture catalog")
    pe = fsub.add_parser("emit", help="write a fixture as a gmt-cloud file")
    pe.add_argument("name")
    pe.add_argument("--param", action="append", default=[],
                    help="fixture parameter key=value (repeatable)")
    pe.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="tangent plane, jet and sff at a point")
    p.add_argument("--input", required=True,
                   help="gmt-cloud file or fixture:<name>")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--schedule", help="r0,q,J geometric scale schedule")
    p.add_argument("--out", help="report JSON path (default stdout)")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="results JSON path")

    p = sub.add_parser("plot-data", help="extract a density trace as CSV")
    p.add_argument("--trace", required=True, help="analysis report JSON")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


COMMANDS = {
    "fixture": cmd_fixture,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "plot-data": cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
