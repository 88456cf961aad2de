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
