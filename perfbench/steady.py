"""Run two sets of benchmark runs of the same code and report their spread.

    python3 perfbench/steady.py [--runs 10]

Each set runs every workload of BENCHMARK.json once per seed, for its
`run_seconds` (set 1 seeds 1..N, set 2 seeds N+1..2N), workloads
interleaved so that host drift reaches all of them alike.
For every workload and end-to-end metric it prints each set's median and
spread -- the distance between the first and third quartile as a share of
the median -- the shift of the second median in the metric's worse
direction, the spread over both sets' runs together, and the metric's bound
from BENCHMARK.json.  A row passes when
both spreads and the shift stay within the bound; the share of failed
operations must match exactly between the sets.  Right
after its first untraced run, each workload also runs traced with the same
seed: the traced run must reproduce the untraced run's operation digests
bit for bit, and its median operation time against the untraced one gives
the tracing overhead.

Results also go to .perfbench-out/steady.json.  Exit code 0 when every check
holds, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
RUN = [sys.executable, str(HERE / "run.py")]


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run of `run_seconds`; check failures it reports go to stderr."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(first, second, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def op_ms_from_spans(path: Path) -> float:
    with open(path) as fh:
        ops = [json.loads(line) for line in fh]
    return 1e3 * statistics.median(s["end"] - s["start"] for s in ops if s["name"] == "op")


def main(argv=None) -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seeds = [list(range(1, args.runs + 1)), list(range(args.runs + 1, 2 * args.runs + 1))]

    results = {name: [[], []] for name in names}
    traced = {}
    for set_idx, set_seeds in enumerate(seeds):
        for seed in set_seeds:
            for name in names:
                res = run_once(name, seed, 0)
                results[name][set_idx].append(res)
                print(f"set {set_idx + 1} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      file=sys.stderr)
                if name not in traced:
                    traced[name] = run_once(name, seed, 1)

    ok = True
    report = {"seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    header = f"{'workload':18s} {'metric':12s} {'median1':>12s} {'spread1':>8s} " \
             f"{'median2':>12s} {'spread2':>8s} {'shift':>8s} {'spread':>8s} {'bound':>6s}  verdict"
    print(header)
    for name in names:
        sets = results[name]
        rows = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            v1 = [r["metrics"][m]["value"] for r in sets[0]]
            v2 = [r["metrics"][m]["value"] for r in sets[1]]
            s1, s2, s_all = spread(v1), spread(v2), spread(v1 + v2)
            shift = worse_shift(v1, v2, metric["better"])
            good = max(s1, s2) <= metric["bound"] and shift <= metric["bound"]
            ok &= good
            rows[m] = {"median1": statistics.median(v1), "spread1": s1,
                       "median2": statistics.median(v2), "spread2": s2,
                       "shift": shift, "spread_all": s_all, "bound": metric["bound"], "ok": good}
            print(f"{name:18s} {m:12s} {statistics.median(v1):12.6g} {s1:8.4f} "
                  f"{statistics.median(v2):12.6g} {s2:8.4f} {shift:8.4f} {s_all:8.4f} {metric['bound']:6.3f}  "
                  f"{'ok' if good else 'FAIL'}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        ok &= shares[0] == shares[1] and correct
        print(f"{name:18s} failed share {shares[0]!r} / {shares[1]!r}, "
              f"all outputs correct: {correct}")

        stem = OUT_DIR / f"{name}-seed{seeds[0][0]}"
        with open(f"{stem}-trace0-digests.json") as fh:
            plain = json.load(fh)
        with open(f"{stem}-trace1-digests.json") as fh:
            with_trace = json.load(fh)
        common = min(len(plain), len(with_trace))
        identical = common > 0 and plain[:common] == with_trace[:common]
        ok &= identical and traced[name]["correct"]
        overhead = op_ms_from_spans(Path(f"{stem}-trace1-spans.jsonl")) / \
            sets[0][0]["metrics"]["op_ms_p50"]["value"] - 1.0
        print(f"{name:18s} traced run: {common} ops bit-identical: {identical}, "
              f"tracing overhead on op_ms_p50 {100 * overhead:+.1f} %")
        report["workloads"][name] = {
            "metrics": rows, "failed_share": shares, "correct": correct,
            "traced_identical": identical, "traced_ops_compared": common,
            "tracing_overhead": overhead, "runs": sets, "traced": traced[name],
        }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "steady.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
