"""The three workloads: seeded inputs, timed operations and their checks.

Each workload runs in one process with one client in a closed loop: an
operation starts only after the previous one has returned.  `setup()` makes
the inputs; that is the work setup_s measures after the imports.  `run_pass()`
performs one pass of timed operations and checks every output against closed
forms or the fixture catalog's ground truth; no seeded draw is skipped.

gmtjet is reached through its modules (``jetfit.iterated_jet_fit``, never a
name imported from it), so that a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from gmtjet import cli, config, fixtures, geometry, jetfit

# outcomes of one operation
OK = "ok"                # the answer is the expected one
NO_ANSWER = "no_answer"  # inconclusive verdict, no estimate, or an exception
WRONG = "wrong"          # a decided answer that contradicts the ground truth

UNDECIDED = ("inconclusive", "precondition_failed")


@dataclass
class Op:
    label: str
    span: tuple | None      # (start, end) in time.monotonic(); None for untimed checks
    outcome: str
    output: str             # canonical text of the result, compared across runs
    note: str = ""

    def to_dict(self):
        return asdict(self)


def _timed(tracer, label, fn):
    """(result, (start, end), traceback or None); spans are tagged with label.

    The interval is read from time.monotonic(), a clock shared by all
    processes, so that run.py can match it with the CPU speed samples."""
    if tracer is not None:
        tracer.request = label
    t0 = time.monotonic()
    try:
        result, err = fn(), None
    except Exception:
        result, err = None, traceback.format_exc()
    span = (t0, time.monotonic())
    if tracer is not None:
        tracer.request = None
    if err is not None:
        print(f"{label} raised:\n{err}", file=sys.stderr)
    return result, span, err


def _run_cli(argv):
    """gmtjet's command line in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, refdir: str):
        self.seed = seed
        self.workdir = workdir
        self.refdir = refdir

    def setup(self):
        pass

    def run_pass(self, tracer) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# surface_sweep


def _jet_text(jet) -> str:
    forms = [(deg, sorted((beta, np.asarray(c).tolist())
                          for beta, c in form.coefficients.items()))
             for deg, form in sorted(jet.forms.items())]
    return repr([jet.plane.basis.tolist(), jet.hoelder_constant, forms])


class SurfaceSweep(Workload):
    """Criterion-4 rows of the curved-surface fixtures at their marked points.

    The torus has the same rows, but one torus pass takes about 110 s and
    1.8 GB on a 2-CPU machine, more than a run may take; the sphere exercises
    the same chart-quadrature path.  The work does not depend on the seed.
    """

    name = "surface_sweep"
    FIXTURES = ("sphere",)

    def setup(self):
        self.fixtures = [fixtures.make_fixture(name) for name in self.FIXTURES]

    def run_pass(self, tracer):
        ops = []
        for fx in self.fixtures:
            for point in fx.marked_points:
                truth = fx.ground_truth.get(fixtures.point_key(point), {})
                table = truth.get("classify")
                if not table:
                    continue
                a = np.asarray(point, dtype=float)
                label = f"{fx.name}:tangent"
                est, span, err = _timed(
                    tracer, label,
                    lambda: jetfit.estimate_tangent_plane(fx.oracle, a, fx.schedule))
                ops.append(self._check_tangent(label, span, err, est, truth))
                for key, expected in table.items():
                    k, alpha = (float(tok) for tok in key.strip("()").split(","))
                    label = f"{fx.name}:jet{key}"
                    res, span, err = _timed(
                        tracer, label,
                        lambda: jetfit.iterated_jet_fit(fx.oracle, a, int(k), alpha,
                                                        fx.schedule, tangent=est))
                    ops.append(self._check_jet(label, span, err, res, expected))
        return ops

    @staticmethod
    def _check_tangent(label, span, err, est, truth) -> Op:
        if err is not None:
            return Op(label, span, NO_ANSWER, "raised", err.splitlines()[-1])
        if est is None:
            return Op(label, span, NO_ANSWER, "None", "no validated tangent plane")
        m, plane = est
        want = geometry.Plane.from_spanning(np.array(truth["plane_basis"]))
        gap = plane.distance_to(want)
        ok = m == truth["m"] and gap <= config.DEFAULT_TOL.angle_tol
        return Op(label, span, OK if ok else WRONG,
                  f"m={m} basis={plane.basis.tolist()!r}",
                  f"m={m} (want {truth['m']}), angle gap {gap:.2e}")

    @staticmethod
    def _check_jet(label, span, err, res, expected) -> Op:
        if err is not None:
            return Op(label, span, NO_ANSWER, "raised", err.splitlines()[-1])
        jet, verdict = res
        status = verdict.status
        if status == expected:
            outcome = OK
        elif status in UNDECIDED:
            outcome = NO_ANSWER
        else:
            outcome = WRONG
        return Op(label, span, outcome, f"{status} {_jet_text(jet)}",
                  f"{status} (want {expected}, stage {verdict.diagnostics.get('stage')})")


# ---------------------------------------------------------------------------
# verify_all


class VerifyAll(Workload):
    """`gmtjet verify --suite all --seed <seed>` in this process.

    Passes when the command exits 0 with every check passing.  The first run
    of a seed keeps its results.json under refdir; every later run of that
    seed on the same sources must write the same bytes.
    """

    name = "verify_all"
    SUITES = 8

    def run_pass(self, tracer):
        out = os.path.join(self.workdir, "results.json")
        label = "verify --suite all"
        res, span, err = _timed(
            tracer, label,
            lambda: _run_cli(["verify", "--suite", "all", "--seed", str(self.seed),
                              "--out", out]))
        if err is not None:
            return [Op(label, span, NO_ANSWER, "raised", err.splitlines()[-1])]
        code = res[0]
        with open(out, "rb") as fp:
            data = fp.read()
        suites = json.loads(data)["suites"]
        failing = [f"{name}/{check['name']}" for name, suite in suites.items()
                   for check in suite["checks"] if not check["pass"]]
        checks = sum(len(suite["checks"]) for suite in suites.values())
        ok = code == 0 and not failing and len(suites) == self.SUITES
        digest = hashlib.sha256(data).hexdigest()
        ops = [Op(label, span, OK if ok else WRONG, digest,
                  f"exit {code}, {len(suites)} suites, {checks} checks, "
                  f"failing: {failing or 'none'}")]
        ops.append(self._same_seed_check(data, digest))
        return ops

    def _same_seed_check(self, data, digest) -> Op:
        label = "same-seed results.json"
        ref = os.path.join(self.refdir, f"results-seed{self.seed}.json")
        if not os.path.exists(ref):
            tmp = f"{ref}.{os.getpid()}"
            with open(tmp, "wb") as fp:
                fp.write(data)
            os.replace(tmp, ref)
            return Op(label, None, OK, digest, "first run of this seed: kept as reference")
        with open(ref, "rb") as fp:
            same = fp.read() == data
        return Op(label, None, OK if same else WRONG, digest,
                  "byte-identical to the first run of this seed" if same
                  else f"differs from {ref}")


# ---------------------------------------------------------------------------
# cloud_jets


class CloudJets(Workload):
    """`gmtjet analyze --order 3` on emitted graph clouds y = c2 x^2/2 + c3 x^3/6.

    Each draw takes (c2, c3) uniformly from [-2, 2] x [-3, 3].  A pass sends
    the drawn clouds in order until ANSWERS of them got a decided answer, so
    that every pass yields the same number of verdicts; draws without one
    still count as attempted and failed.  The fitted jet must recover c2/2
    and s c3/6, s the sign of the fitted plane's first basis entry, to 1e-2
    relative (absolute below 1, as in criterion 3).
    """

    name = "cloud_jets"
    ANSWERS = 5
    DRAWS = 8      # ANSWERS plus spares for draws that come back undecided
    TOL = 1e-2

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.draws = [(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-3.0, 3.0)))
                      for _ in range(self.DRAWS)]
        self.files = []
        for i, (c2, c3) in enumerate(self.draws):
            path = os.path.join(self.workdir, f"graph-{i}.cloud")
            code, _, err = _run_cli(["fixture", "emit", "graph_poly",
                                     "--param", f"coeffs={c2!r},{c3!r}", "--out", path])
            if code != 0:
                raise RuntimeError(f"fixture emit failed with exit {code}: {err}")
            self.files.append(path)

    def run_pass(self, tracer):
        ops = []
        for i, (path, (c2, c3)) in enumerate(zip(self.files, self.draws)):
            report_path = os.path.join(self.workdir, f"report-{i}.json")
            label = f"analyze c2={c2:.4f} c3={c3:.4f}"
            res, span, err = _timed(
                tracer, label,
                lambda: _run_cli(["analyze", "--input", path, "--point", "0,0",
                                  "--order", "3", "--out", report_path]))
            ops.append(self._check(label, span, err, res, report_path, c2, c3))
            if sum(op.outcome != NO_ANSWER for op in ops) == self.ANSWERS:
                break
        return ops

    def _check(self, label, span, err, res, report_path, c2, c3) -> Op:
        if err is not None:
            return Op(label, span, NO_ANSWER, "raised", err.splitlines()[-1])
        code, _, stderr = res
        if code not in (cli.EXIT_HOLDS, cli.EXIT_FAILS, cli.EXIT_INCONCLUSIVE):
            return Op(label, span, NO_ANSWER, f"exit {code}", stderr.strip())
        with open(report_path) as fp:
            report = json.load(fp)
        # timings vary and input names this run's scratch file
        report.pop("timings", None)
        report.pop("input", None)
        output = json.dumps(report, sort_keys=True)
        verdict = report["verdicts"].get("jet_fit")
        if code == cli.EXIT_INCONCLUSIVE:
            return Op(label, span, NO_ANSWER, output,
                      f"exit {code}, verdicts {report['verdicts']}")
        if code == cli.EXIT_FAILS:
            return Op(label, span, WRONG, output, f"exit {code}: a smooth graph fails")
        s = 1.0 if report["tangent"]["basis"][0][0] >= 0 else -1.0
        worst = 0.0
        for deg, want in (("2", c2 / 2), ("3", s * c3 / 6)):
            got = np.array(report["jet"]["forms"][deg][0][1])
            err_rel = float(np.linalg.norm(got - np.array([0.0, want]))) / max(abs(want), 1.0)
            worst = max(worst, err_rel)
        return Op(label, span, OK if worst <= self.TOL else WRONG, output,
                  f"{verdict}, coefficient error {worst:.1e}")


WORKLOADS = {cls.name: cls for cls in (SurfaceSweep, VerifyAll, CloudJets)}
