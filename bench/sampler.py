"""CPU speed sampler: times a fixed pure-Python kernel every PERIOD_S seconds.

run.py starts it pinned to the CPU its workers are pinned to and stops it when
the run ends.  Each line of the output file is ``<time.monotonic()> <CPU
seconds the kernel took>``.  The kernel's CPU time rises when the core runs
slower (other tenants on a shared host, frequency changes), so run.py divides
each measured interval by the kernel times sampled during it.  The sampler
exits on its own when its parent is gone or after --lifetime seconds.
"""
import argparse
import os
import time

PERIOD_S = 0.25
KERNEL_ITERATIONS = 100_000


def kernel_cpu_s() -> float:
    start = time.process_time()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return time.process_time() - start


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True)
    p.add_argument("--lifetime", type=float, required=True)
    args = p.parse_args()
    parent = os.getppid()
    stop = time.monotonic() + args.lifetime
    with open(args.out, "w") as fp:
        while os.getppid() == parent and time.monotonic() < stop:
            cpu_s = kernel_cpu_s()
            fp.write(f"{time.monotonic()!r} {cpu_s!r}\n")
            fp.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
