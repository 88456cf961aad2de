"""gmtjet benchmark.

    python3 bench/run.py --workload <surface_sweep|verify_all|cloud_jets>
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the gmtjet sources are taken from ../src next to this
directory.  Every process that sets up or measures a workload is a fresh
worker (worker.py) with the BLAS thread count pinned to BLAS_THREADS.  The
workers and a CPU speed sampler (sampler.py) are pinned to one CPU.

Times are reported in reference seconds: each measured interval is scaled by
REFERENCE_KERNEL_S over the mean CPU time the sampler's fixed kernel took
during that interval.  On a shared host the speed of a core drifts by tens
of percent within minutes; the scaling removes that drift and leaves the
work the program did.  The raw seconds are printed and recorded beside them.

--trace 0 measures the end-to-end metrics: set-up (SETUP_SAMPLES fresh
processes, median), the median pass time, peak RSS and the median operation
latency.  --trace 1 runs the workload traced, checks that it produced the same
outputs as an untraced run of the same seed on the same sources (the last one
kept under out/reference/, or a fresh one when there is none), and reports the
per-layer metrics of the traced run plus the tracing overhead.

Prints one line per metric with its unit and sample count, writes the full
record to out/<workload>/, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero without that
line when the sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("surface_sweep", "verify_all", "cloud_jets")
BLAS_THREADS = 1          # no larger than nproc on any machine
SETUP_SAMPLES = 2
DEADLINE_S = 175.0        # a run must end within 180 s
# CPU time of the sampler's kernel on an unloaded core of the 2-CPU Xeon
# machine the benchmark was written on; it only sets the unit
REFERENCE_KERNEL_S = 0.006
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until this much time has gone (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def source_digest() -> str:
    """Digest of the program and benchmark sources, src/gmtjet/*.py and bench/*.py."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "gmtjet"), BENCH):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fp:
                    h.update(fp.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def worker_env():
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# workers


class Runner:
    """Starts the workers of one run, pinned to one CPU beside the sampler."""

    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = worker_env()
        self.cpu = max(os.sched_getaffinity(0))
        self.outdir = os.path.join(OUT, args.workload)
        # same-seed references are only compared on the same sources
        self.refdir = os.path.join(OUT, "reference", source_digest()[:16])
        os.makedirs(self.outdir, exist_ok=True)
        os.makedirs(self.refdir, exist_ok=True)
        self.samples_path = os.path.join(self.outdir, f"seed{args.seed}-trace{args.trace}.speed")
        self.sampler = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "sampler.py"), "--out", self.samples_path,
             "--lifetime", repr(DEADLINE_S)], preexec_fn=self.pin)

    def pin(self):
        os.sched_setaffinity(0, {self.cpu})

    def close(self):
        self.sampler.kill()
        self.sampler.wait()

    def speed_samples(self):
        """(time, kernel CPU s) pairs; the sampler may be writing its last line."""
        with open(self.samples_path) as fp:
            rows = [line.split() for line in fp]
        return [(float(t), float(k)) for t, k in (row for row in rows if len(row) == 2)]

    def untraced_path(self):
        """Where the last untraced run of this seed on these sources is kept."""
        return os.path.join(self.refdir, f"{self.args.workload}-seed{self.args.seed}-untraced.json")

    def keep_untraced(self, run):
        tmp = f"{self.untraced_path()}.{os.getpid()}"
        with open(tmp, "w") as fp:
            json.dump(run, fp)
        os.replace(tmp, self.untraced_path())

    def stored_untraced(self):
        try:
            with open(self.untraced_path()) as fp:
                return json.load(fp)
        except (OSError, ValueError):
            return None

    def spawn(self, role, phase, trace):
        """Run one worker to completion and return its record."""
        a = self.args
        stem = os.path.join(self.outdir, f"seed{a.seed}-trace{a.trace}-{role}")
        record_path = stem + ".json"
        if os.path.exists(record_path):
            os.remove(record_path)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for worker {role}")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", repr(a.seconds), "--trace", str(trace), "--phase", phase,
               "--record", record_path, "--workdir", f"{stem}.work",
               "--refdir", self.refdir, "--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=remaining,
                                  preexec_fn=self.pin)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {role} did not finish within {remaining:.0f} s")
        if proc.returncode != 0 or not os.path.exists(record_path):
            raise BenchError(f"worker {role} exited with {proc.returncode}")
        with open(record_path) as fp:
            return json.load(fp)


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else float("nan")


class Speed:
    """Scales measured intervals to reference seconds with the sampler's kernel times."""

    def __init__(self, samples):
        if not samples:
            raise BenchError("the CPU speed sampler recorded nothing")
        self.t = [s[0] for s in samples]
        self.k = [s[1] for s in samples]

    def kernel_s(self, t0, t1):
        i, j = bisect.bisect_left(self.t, t0), bisect.bisect_right(self.t, t1)
        if j > i:
            return statistics.fmean(self.k[i:j])
        # an interval shorter than the sampling period: the nearest sample
        mid = (t0 + t1) / 2
        return self.k[min(range(len(self.t)), key=lambda n: abs(self.t[n] - mid))]

    def seconds(self, span):
        t0, t1 = span
        return (t1 - t0) * REFERENCE_KERNEL_S / self.kernel_s(t0, t1)


def raw_seconds(span):
    return span[1] - span[0]


def timed_ops(record):
    return [op for op in record["ops"] if op["span"] is not None]


def answered_ops(record):
    """The timed operations that returned an answer; all timed ones if none did.

    Time is only counted towards answers: an operation that fails fast must
    not make a run look faster.  Unanswered operations count in failed."""
    ops = timed_ops(record)
    return [op for op in ops if op["outcome"] != "no_answer"] or ops


def pass_sums(record, seconds, keep=lambda op: True):
    """Per pass, the seconds of the answered operations that `keep` selects."""
    sums = [0.0] * record["passes"]
    for op in answered_ops(record):
        if keep(op):
            sums[op["pass_no"]] += seconds(op["span"])
    return sums


def end_to_end(setups, run, seconds):
    """name -> (value, samples, what a sample is), times measured by `seconds`."""
    latencies = [seconds(op["span"]) for op in answered_ops(run)]
    setup_values = [seconds(r["setup_span"]) for r in setups]
    walls = pass_sums(run, seconds)
    return {
        "setup_s": (median(setup_values), len(setup_values), "fresh-process set-ups"),
        "wall_s": (median(walls), len(walls), "passes"),
        "peak_rss_mb": (run["peak_rss_mb"], 1, "measured process"),
        "request_p50_s": (median(latencies), len(latencies), "answered operations"),
    }


def stage_split(run, seconds):
    """tangent_s and jet_s of a surface_sweep run, medians over passes."""
    out = {}
    for stage, test in (("tangent_s", lambda op: op["label"].endswith(":tangent")),
                        ("jet_s", lambda op: ":jet(" in op["label"])):
        sums = pass_sums(run, seconds, test)
        out[stage] = (median(sums), len(sums), "passes")
    return out


def outcomes(run):
    ops = run["ops"]
    failed = [op for op in ops if op["outcome"] != "ok"]
    wrong = [op for op in ops if op["outcome"] == "wrong"]
    return len(ops), failed, wrong


def output_mismatches(plain, traced):
    a = [(op["label"], op["output"]) for op in plain["ops"]]
    b = [(op["label"], op["output"]) for op in traced["ops"]]
    if len(a) != len(b):
        return [f"{len(a)} untraced operations against {len(b)} traced"]
    return [la for (la, oa), (lb, ob) in zip(a, b) if la != lb or oa != ob]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# main


def measure(args, spec, runner):
    setups = [runner.spawn(f"setup{i}", "setup", 0) for i in range(1, SETUP_SAMPLES)]
    run = runner.spawn("run", "run", 0)
    setups.append(run)
    speed = Speed(runner.speed_samples())
    metrics = end_to_end(setups, run, speed.seconds)
    raw = end_to_end(setups, run, raw_seconds)
    runner.keep_untraced({"run": run, "wall_s": metrics["wall_s"][0]})
    attempted, failed, wrong = outcomes(run)
    lines = [f"  {name:<16} {fmt(v):>12} {unit_of(spec, 'end_to_end', name):<3} "
             f"n={n} {what}" + (f"; raw {fmt(raw[name][0])}" if name != "peak_rss_mb" else "")
             for name, (v, n, what) in metrics.items()]
    if args.workload == "surface_sweep":
        for name, (v, n, what) in stage_split(run, speed.seconds).items():
            lines.append(f"  {name:<16} {fmt(v):>12} {'s':<3} n={n} {what}")
    record = {"setups": setups, "run": run, "raw_metrics": raw}
    return metrics, attempted, failed, wrong, lines, record


def measure_traced(args, spec, runner):
    # the untraced side is the last untraced run of this seed on the same
    # sources when there is one, otherwise a fresh one
    stored = runner.stored_untraced()
    if stored is None:
        plain = runner.spawn("untraced", "run", 0)
    traced = runner.spawn("traced", "run", 1)
    speed = Speed(runner.speed_samples())
    if stored is None:
        stored = {"run": plain, "wall_s": median(pass_sums(plain, speed.seconds))}
        runner.keep_untraced(stored)
    plain, plain_wall = stored["run"], stored["wall_s"]
    mismatches = output_mismatches(plain, traced)
    traced_wall = median(pass_sums(traced, speed.seconds))
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    metrics = {name: (value, 1, "traced run") for name, value in layers.items()}
    attempted, failed, wrong = outcomes(traced)
    failed = failed + [{"label": f"untraced/traced outputs differ: {m}"} for m in mismatches]
    wrong = wrong + [{"label": m} for m in mismatches]
    lines = [f"  untraced wall_s {fmt(plain_wall)} s, traced wall_s {fmt(traced_wall)} s, "
             f"overhead {fmt(layers['trace.overhead_s'])} s "
             f"({100 * layers['trace.overhead_frac']:.1f}%)",
             f"  outputs of the traced run equal the untraced run: {not mismatches}"]
    lines += [f"  {name:<48} {fmt(v):>12} {unit_of(spec, 'per_layer', name)}"
              for name, (v, _, _) in metrics.items()
              if name in {m['name'] for m in spec['per_layer']}]
    record = {"untraced": plain, "traced": traced, "mismatches": mismatches}
    return metrics, attempted, failed, wrong, lines, record


def unit_of(spec, kind, name):
    for m in spec[kind]:
        if m["name"] == name:
            return m["unit"]
    return ""


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gmtjet", "__init__.py")):
        print(f"error: gmtjet sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    runner = Runner(args, start + DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, failed, wrong, lines, record = measure_traced(args, spec, runner)
        else:
            metrics, attempted, failed, wrong, lines, record = measure(args, spec, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run did not measure: {missing}",
              file=sys.stderr)
        return 1
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in spec[kind]}}

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "blas_threads": BLAS_THREADS,
           "pinned_cpu": runner.cpu, "reference_kernel_s": REFERENCE_KERNEL_S,
           "commit": git_commit(), "source_digest": source_digest(),
           "versions": (record.get("run") or record.get("traced"))["versions"]}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, "result": result,
               "samples": {name: n for name, (_, n, _) in metrics.items()},
               "failed_ops": failed, **record}
    path = os.path.join(runner.outdir, f"seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fp:
        json.dump(summary, fp, indent=1, sort_keys=True)

    v = env["versions"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"blas_threads={BLAS_THREADS} cpu={runner.cpu} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} commit={env['commit'] or 'unknown'} "
          f"source={env['source_digest'][:12]}")
    print(f"  cpu: {env['cpu_model']}")
    for line in lines:
        print(line)
    print(f"  failed_frac      {len(failed) / attempted:.4g} ({len(failed)} of {attempted} "
          f"operations; {len(wrong)} wrong answers)")
    for op in failed:
        print(f"    failed: {op['label']}  {op.get('note', '')}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
