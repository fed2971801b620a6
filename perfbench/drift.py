"""Drift probe: how steady is this host's speed over a few tens of seconds?

    python3 perfbench/drift.py [--seconds 40]

Times one fixed 660-matrix `matrices.from_params` batch (the descent's batch
size) back to back and prints, per second, the median wall and thread-CPU
time of a batch.  A change in both columns is the host's speed moving under
a steady single-threaded load, not waiting or stolen time; the last line
gives the range of the per-second medians as a share of their median.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    run.load_program()
    import numpy as np
    from fusionlab import matrices

    params = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(660, 16))
    matrices.from_params(params)
    per_second = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        wall, cpu = [], []
        second = time.perf_counter() + 1.0
        while time.perf_counter() < second:
            w0, c0 = time.perf_counter(), time.thread_time()
            matrices.from_params(params)
            wall.append(time.perf_counter() - w0)
            cpu.append(time.thread_time() - c0)
        per_second.append((statistics.median(wall), statistics.median(cpu)))
        print(f"{len(per_second):3d}s  wall {1e3 * per_second[-1][0]:.3f} ms  "
              f"cpu {1e3 * per_second[-1][1]:.3f} ms")
    walls = [w for w, _ in per_second]
    print(f"per-second median wall {1e3 * min(walls):.3f}..{1e3 * max(walls):.3f} ms, "
          f"range {(max(walls) - min(walls)) / statistics.median(walls):.1%} of the median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
