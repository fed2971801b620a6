"""Benchmark command: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from the root of a checkout: the program is imported from its `src/`
directory, never from an installed copy, and the command exits 2 without a
result when that source is missing.  BLAS and OpenMP are pinned to one
thread before numpy loads.

A run measures set-up (several fresh interpreters, each importing fusionlab
and generating the workload's inputs), performs one untimed warm-up
operation, then times whole rounds of operations until S seconds have
passed; S defaults to `run_seconds` in BENCHMARK.json.  Each operation's
outputs are checked after it is timed and then dropped, so the peak memory
is that of one operation.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics, from
spans kept in memory and written to .perfbench-out/ at the end, under
--trace 1.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
}


class MissingProgram(RuntimeError):
    pass


def run_seconds() -> float:
    """The run length that BENCHMARK.json sets and its bounds were measured at."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def load_program():
    """Import fusionlab from this checkout's src/ and the modules that drive it."""
    if not (SRC / "fusionlab" / "__init__.py").is_file():
        raise MissingProgram(f"no fusionlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fusionlab

    if Path(fusionlab.__file__).resolve().parent != SRC / "fusionlab":
        raise MissingProgram(f"imported fusionlab from {fusionlab.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: import, generate inputs, print the clock, clean up."""
    workloads = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    try:
        workloads.WORKLOADS[workload].setup(seed, workdir)
        print(repr(perf_counter()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning an interpreter until its inputs are ready.

    perf_counter reads CLOCK_MONOTONIC, which the parent and child share.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = load_program()
    workload = workloads.WORKLOADS[workload_name]
    setup_s = None if trace else measure_setup(workload_name, seed)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR)
    tracer = None
    try:
        inputs = workload.setup(seed, workdir)
        workload.prepare(inputs, 0)
        workload.run(inputs, 0)  # warm-up: caches, lazy imports, page faults

        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        op_s: list[float] = []
        items = attempted = failed = 0
        problems: list[str] = []
        digests: list[str] = []
        started = perf_counter()
        k = 0
        while k == 0 or perf_counter() - started < seconds:
            for _ in range(workload.round_size):
                workload.prepare(inputs, k)
                gc.collect()
                attempted += 1
                if tracer:
                    tracer.begin_op(k)
                t0 = perf_counter()
                try:
                    out, n_items = workload.run(inputs, k)
                except Exception:  # a failed operation is counted, not fatal
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    out = None
                t1 = perf_counter()
                if tracer:
                    tracer.end_op()
                if out is not None:
                    op_s.append(t1 - t0)
                    items += n_items
                    digests.append(workload.digest(out).hex())
                    problems += [f"op {k}: {msg}" for msg in workload.check(inputs, k, out)]
                out = None
                k += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    with open(OUT_DIR / f"{stem}-digests.json", "w") as fh:
        json.dump(digests, fh)
    if not op_s:
        raise RuntimeError("every operation failed")
    op_ms_p50 = 1e3 * statistics.median(op_s)
    print(f"{workload_name}: {len(op_s)} ops, op_ms_p50 {op_ms_p50:.3f} (trace {int(trace)})",
          file=sys.stderr)
    if tracer:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")
        from tracing import layer_units

        values = tracer.layer_metrics(len(op_s))
        units = layer_units()
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms_p50": op_ms_p50,
            "items_per_s": items / sum(op_s),
        }
        units = E2E_UNITS
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
