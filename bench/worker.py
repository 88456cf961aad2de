"""One benchmark process: imports, set-up, timed passes, checks, one record.

run.py starts this script in a fresh process for every set-up sample and for
every measured run, with the BLAS thread count pinned in the environment, and
reads the JSON record it writes to --record.  With --phase setup the process
stops after the set-up.  With --trace 1 gmtjet is traced (see tracing.py)
from before the set-up on.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), default="run")
    p.add_argument("--record", required=True, help="path of the JSON record to write")
    p.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    p.add_argument("--refdir", required=True, help="directory of same-seed references")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy
    import scipy

    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.refdir)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "phase": args.phase, "pid": os.getpid(),
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    try:
        workload.setup()
        record["setup_span"] = (args.spawned_at, time.monotonic())
        if args.phase == "run":
            ops = []
            start = time.perf_counter()
            for pass_no in itertools.count():
                ops.extend(dict(op.to_dict(), pass_no=pass_no)
                           for op in workload.run_pass(tracer))
                if time.perf_counter() - start >= args.seconds:
                    break
            record["passes"] = pass_no + 1
            record["ops"] = ops
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer)
            record["spans_by_name"] = {name: st.to_dict()
                                       for name, st in sorted(tracer.stats.items())}
            spans_path = os.path.splitext(args.record)[0] + ".spans.tsv.gz"
            tracer.dump(spans_path)
            record["spans_file"] = spans_path
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    tmp = f"{args.record}.tmp"
    with open(tmp, "w") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)
    os.replace(tmp, args.record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
