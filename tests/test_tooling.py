import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_tracer_installs():
    # the benchmark's traced run wraps gmtjet names from bench/tracing.py;
    # a deleted or renamed name must fail here, not only in the benchmark
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import tracing; tracing.install()")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "bench"),
                           os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bench_checks_accept_ground_truth():
    # the benchmark's surface_sweep checks read gmtjet names of their own
    # (config.DEFAULT_TOL.angle_tol, Plane.from_spanning, point_key); fed the
    # sphere's ground-truth plane and verdicts they must report ok
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import workloads
from gmtjet import density, fixtures, geometry

fx = fixtures.make_fixture("sphere")
a = np.asarray(fx.marked_points[0], dtype=float)
truth = fx.ground_truth[fixtures.point_key(a)]
plane = geometry.Plane.from_spanning(np.array(truth["plane_basis"]))
sweep = workloads.SurfaceSweep
op = sweep._check_tangent("tangent", None, None, (truth["m"], plane), truth)
assert op.outcome == workloads.OK, op
assert truth["classify"]
for key, expected in truth["classify"].items():
    res = (geometry.Jet.zero(a, plane, 2), density.Verdict(expected))
    op = sweep._check_jet(key, None, None, res, expected)
    assert op.outcome == workloads.OK, op
"""
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "bench"),
                           os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
