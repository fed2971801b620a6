"""Tests of the benchmark itself: metric coverage, tracing, negative controls.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import run

workloads = run.load_program()

import tracing  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "crosscheck",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(spec, trace, section):
    result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == named
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_program_gives_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in run.HERE.glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def first_ops(tmp_path_factory):
    """Operation 0 of every workload, untraced, with its inputs."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.setup(5, str(tmp_path_factory.mktemp(name)))
        wl.prepare(inputs, 0)
        out[name] = (wl, inputs, wl.run(inputs, 0)[0])
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_is_bit_identical(first_ops, name):
    wl, inputs, plain = first_ops[name]
    assert wl.check(inputs, 0, plain) == []
    plain_digest = wl.digest(plain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        traced = wl.run(inputs, 0)[0]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert len(tracer.spans) > 1
    assert wl.digest(traced) == plain_digest


@pytest.mark.parametrize("name", ["sweep-expectation", "sweep-threshold"])
def test_perturbed_winner_fails_the_check(first_ops, name):
    wl, inputs, rows = first_ops[name]
    bad_rows = [dict(r) for r in rows]
    res = bad_rows[2]["result"]
    kick = 1e-6 * np.random.default_rng(0).standard_normal((4, 4))
    bad_rows[2]["result"] = dataclasses.replace(res, best_matrix=res.best_matrix + kick)
    assert wl.check(inputs, 0, bad_rows)


@pytest.mark.parametrize("name", ["sweep-expectation", "sweep-threshold"])
def test_swapped_values_fail_the_check(first_ops, name):
    wl, inputs, rows = first_ops[name]
    bad_rows = [dict(r) for r in rows]
    bad_rows[0]["hard_value"], bad_rows[1]["hard_value"] = rows[1]["hard_value"], rows[0]["hard_value"]
    assert wl.check(inputs, 0, bad_rows)


def test_flipped_landscape_probability_fails_the_check(first_ops):
    wl, inputs, (exp_rows, summary, thr_rows) = first_ops["landscape"]
    n = workloads.LANDSCAPE_N
    one = workloads.LANDSCAPE_S_TARGETS.index(1.0)
    bad = list(thr_rows)
    s, p = bad[one * n + 7]
    bad[one * n + 7] = (s, 1.0 - p)
    assert wl.check(inputs, 0, (exp_rows, summary, bad))


def test_flipped_report_probability_fails_the_check(first_ops):
    wl, inputs, (code, report_path, table, comparison) = first_ops["crosscheck"]
    with open(report_path) as fh:
        report = json.load(fh)
    entry = report["relevant_outcomes"][0]
    entry["probability"] = 0.25 - entry["probability"]
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    assert wl.check(inputs, 0, (code, report_path, table, comparison))
