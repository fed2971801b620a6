import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusionlab import fusion, matrices, optimize, reports
from fusionlab.cli import main


SCENARIO = """\
left
2
0 1
right
2
0 1
fuse 0 0
"""


CHAIN_PAIR = str(Path(__file__).resolve().parents[1] / "demos" / "chain_pair.scenario")
BAD_TOLS = ["nan", "inf", "-1"]


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "two_paths.scenario"
    path.write_text(SCENARIO)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# analyze


def test_analyze_stdout(capsys):
    assert main(["analyze", "--matrix", "pbs2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matrix"] == "pbs2"
    assert report["units"] == "bits"
    assert report["total_relevant_probability"] == pytest.approx(0.5)
    assert len(report["relevant_outcomes"]) == 6
    live = [r for r in report["relevant_outcomes"] if r["probability"] > 0]
    assert len(live) == 4
    for row in live:
        assert row["probability"] == pytest.approx(0.125)
        assert row["entropy"] == pytest.approx(1.0)
        assert row["classification"]["labels"][0] == "Stabilizer"


def test_analyze_nats_scaling(capsys):
    main(["analyze", "--matrix", "pbs2"])
    bits = json.loads(capsys.readouterr().out)
    main(["analyze", "--matrix", "pbs2", "--nats"])
    nats = json.loads(capsys.readouterr().out)
    assert nats["units"] == "nats"
    live = [r for r in nats["relevant_outcomes"] if r["probability"] > 0]
    assert live[0]["entropy"] == pytest.approx(np.log(2.0))
    assert bits["relevant_outcomes"][1]["probability"] == pytest.approx(
        nats["relevant_outcomes"][1]["probability"]
    )


def test_analyze_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "--matrix", "theorem7", "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["matrix"] == "theorem7"


def test_analyze_matrix_file_round_trip(tmp_path, capsys):
    path = tmp_path / "pbs2.json"
    matrices.save_matrix(path, matrices.builtin("pbs2"))
    assert main(["analyze", "--matrix", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_relevant_probability"] == pytest.approx(0.5)


def test_analyze_rejects_non_unitary(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 4] * 4}))
    assert main(["analyze", "--matrix", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_overflowing_matrix(tmp_path, capsys):
    """Finite entries whose U^H U overflows are not unitary (the defect is NaN)."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"matrix": [[[1e200, 1e200]] * 4] * 4}))
    assert main(["analyze", "--matrix", str(path)]) == 2
    assert "error: matrix is not unitary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell", [{"re": 1, "im": 0}, [1, 0, 0], [True, False]], ids=["object", "three-numbers", "booleans"]
)
def test_analyze_rejects_malformed_cells(cell, tmp_path, capsys):
    doc = matrices.matrix_to_json(np.eye(4))
    doc["matrix"][0][0] = cell
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "matrix entr" in err


def test_analyze_accepts_near_unitary_matrix(tmp_path, capsys):
    """A matrix that passes validate_unitary gets a report, not a traceback."""
    u = matrices.builtin("pbs2") + 4e-11 * np.random.default_rng(0).normal(size=(4, 4))
    assert 1e-11 < np.abs(u.conj().T @ u - np.eye(4)).max() <= matrices.UNITARY_TOL
    path = tmp_path / "near.json"
    matrices.save_matrix(str(path), u)
    assert main(["analyze", "--matrix", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_relevant_probability"] == pytest.approx(0.5, abs=1e-9)


def test_library_errors_exit_2(monkeypatch, capsys):
    def broken(matrix):
        raise fusion.InconsistentProbabilityError("probability -1 outside [0, 1/4]")

    monkeypatch.setattr(fusion, "outcome_table", broken)
    assert main(["analyze", "--matrix", "pbs2"]) == 2
    assert "error: probability -1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_analyze_rejects_bad_tol(tol, capsys):
    """A NaN tol once dropped the Stabilizer label silently, and -1 labelled
    the live pbs2 outcomes Generic."""
    assert main(["analyze", "--matrix", "pbs2", "--tol", tol]) == 2
    assert "tol must be finite" in capsys.readouterr().err


def test_analyze_rejects_missing_file(capsys):
    assert main(["analyze", "--matrix", "no_such_file.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_deeply_nested_matrix_json_rejected(command, scenario_file, tmp_path, capsys):
    """A RecursionError from the JSON parser once escaped as a traceback and
    exit 1, the code of a failed verification."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    argv = [command, "--matrix", str(deep)]
    if command == "oracle":
        argv.insert(1, scenario_file)
    assert main(argv) == 2
    assert "nested too deeply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sample", "--n", "20", "--seed", "9", "--out", str(out1)]) == 0
    assert main(["sample", "--n", "20", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_csv(out1)
    assert len(rows) == 20
    assert set(rows[0]) == {"p_total", "S_exp", "units"}
    assert rows[0]["units"] == "bits"
    summary = capsys.readouterr().out
    assert "S_exp mean=" in summary


def test_sample_threshold_mode(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        ["sample", "--n", "10", "--mode", "threshold", "--s-target", "0.5",
         "--s-target", "1.0", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 20
    assert set(rows[0]) == {"s_target", "P", "units"}
    assert {r["s_target"] for r in rows} == {"0.5", "1"}


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; a repeated option's list from
    one call must not carry into the next."""
    out = tmp_path / "t.csv"
    base = ["sample", "--n", "3", "--mode", "threshold", "--out", str(out)]
    assert main(base + ["--s-target", "0.5", "--s-target", "1.0"]) == 0
    assert {r["s_target"] for r in _read_csv(out)} == {"0.5", "1"}
    assert main(base + ["--s-target", "0.25"]) == 0
    assert {r["s_target"] for r in _read_csv(out)} == {"0.25"}
    assert main(base) == 0  # the default targets, not the last call's
    assert len({r["s_target"] for r in _read_csv(out)}) == 11


def test_sample_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "0"])
    assert exc.value.code == 2


def test_sample_rejects_s_target_in_expectation_mode(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["sample", "--n", "5", "--s-target", "0.5", "--out", str(out)])
    assert code == 2
    assert "threshold-mode" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# optimize


def test_optimize_tiny_threshold_run(tmp_path, capsys):
    code = main(
        ["optimize", "threshold", "--s-target", "1.0", "--s-target", "0.0",
         "--restarts", "2", "--iterations", "20", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = _read_csv(tmp_path / "sweep_threshold.csv")
    assert [r["s_target_bits"] for r in rows] == ["1", "0"]
    assert float(rows[1]["P_max"]) == 1.0
    assert float(rows[0]["P_max"]) == 0.5
    cfg = optimize.OptimizerConfig(restarts=2, iterations=20)
    swept = optimize.sweep("threshold", [1.0, 0.0], cfg)
    assert [r["p_total"] for r in rows] == [reports.fmt(r["p_total"]) for r in swept]
    best = json.loads((tmp_path / "best_threshold_s1.json").read_text())
    assert best["objective"] == "threshold"
    assert best["target"] == 1.0
    assert best["from_builtin"] in ("pbs2", "theorem7")
    u = matrices.matrix_from_json(best)
    assert u.shape == (4, 4)
    out = capsys.readouterr().out
    assert "wrote" in out and "states_used=" in out


def test_optimize_tiny_expectation_run(tmp_path):
    code = main(
        ["optimize", "expectation", "--p-target", "0.5", "--restarts", "2",
         "--iterations", "20", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = _read_csv(tmp_path / "sweep_expectation.csv")
    assert set(rows[0]) == {
        "p_target",
        "S_exp_max",
        "S_exp_mean",
        "states_used",
        "seed",
        "iterations",
        "units",
        "p_total",
    }
    assert float(rows[0]["S_exp_max"]) == pytest.approx(0.5, abs=1e-9)
    cfg = optimize.OptimizerConfig(restarts=2, iterations=20)
    (swept,) = optimize.sweep("expectation", [0.5], cfg)
    assert rows[0]["p_total"] == reports.fmt(swept["p_total"])
    assert (tmp_path / "best_expectation_p0.5.json").exists()


@pytest.mark.filterwarnings("error")
def test_optimize_extreme_step_is_quiet(tmp_path, capsys):
    """--step 1e308 once overflowed the velocity: RuntimeWarnings on stderr."""
    code = main(["optimize", "threshold", "--s-target", "0.4", "--step", "1e308",
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "sweep_threshold.csv").exists()


def test_optimize_flag_validation(tmp_path, capsys):
    # missing targets
    assert main(["optimize", "expectation", "--out", str(tmp_path)]) == 2
    # wrong-mode flag
    assert main(
        ["optimize", "threshold", "--s-target", "0.5", "--p-target", "0.7",
         "--out", str(tmp_path)]
    ) == 2
    # target outside the valid range
    assert main(
        ["optimize", "expectation", "--p-target", "0.2", "--out", str(tmp_path)]
    ) == 2
    assert capsys.readouterr().err.count("error:") == 3
    # the quadratic-penalty weight is gone: an unknown flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "expectation", "--p-target", "0.7", "--alpha", "1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    assert main(["verify", "--trials", "10", "--suite", "unitarity",
                 "--suite", "norm_identity"]) == 0
    out = capsys.readouterr().out
    assert "unitarity: passed=" in out
    assert out.strip().endswith("PASS")


def test_verify_fault_injection_fails(capsys):
    code = main(["verify", "--trials", "10", "--suite", "channel_invariants",
                 "--inject-fault", "sign"])
    assert code == 1
    assert capsys.readouterr().out.strip().endswith("FAIL")


def test_verify_unknown_fault_kind(capsys):
    """Any KIND once injected the sign flip; only "sign" is accepted."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "5", "--suite", "channel_invariants",
              "--inject-fault", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--trials", "5", "--suite", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err
    assert main(["verify", "--trials", "5", "--suite", "unitarity", "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_verify_rejects_tol(capsys):
    """The suites hold fixed pass criteria, so verify takes no --tol."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "5", "--suite", "unitarity", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_pass(scenario_file, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = main(["oracle", scenario_file, "--matrix", "pbs2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["arity"] == 1
    assert len(report["outcomes"]) == 6


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_oracle_rejects_bad_tol(tol, capsys):
    """NaN and -1 once reported "verification failed" (exit 1) on a scenario
    that passes at the default tol."""
    assert main(["oracle", CHAIN_PAIR, "--matrix", "pbs2"]) == 0
    capsys.readouterr()
    assert main(["oracle", CHAIN_PAIR, "--matrix", "pbs2", "--tol", tol]) == 2
    assert "tol must be finite" in capsys.readouterr().err


def test_oracle_stdout(scenario_file, capsys):
    assert main(["oracle", scenario_file, "--matrix", "theorem7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_oracle_register_too_large(tmp_path, capsys):
    big = SCENARIO.replace("left\n2\n0 1\n", "left\n8\n" + "".join(
        f"{i} {i+1}\n" for i in range(7)
    )).replace("right\n2\n0 1\n", "right\n8\n" + "".join(
        f"{i} {i+1}\n" for i in range(7)
    ))
    path = tmp_path / "big.scenario"
    path.write_text(big)
    assert main(["oracle", str(path), "--matrix", "pbs2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_oracle_rejects_non_finite_chi(tmp_path, capsys):
    """A NaN weight once reached the SVD: a RuntimeWarning, then "did not converge"."""
    path = tmp_path / "nan.scenario"
    path.write_text(SCENARIO.replace("right", "special 0 1 nan\nright"))
    assert main(["oracle", str(path), "--matrix", "pbs2"]) == 2
    assert "bad special edge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, qubit",
    [
        ("left\n2\n0 1\nright\n1\nfuse 0 0\n", "b=0"),
        ("left\n2\n0 1\nright\n2\nfuse 0 0\n", "b=0"),
        ("left\n2\nright\n2\n0 1\nfuse 0 0 nopartner\n", "a=0"),
        ("left\n1\nright\n2\n0 1\nfuse 0 0 nopartner\n", "a=0"),
    ],
    ids=["lone-b", "edgeless-b", "edgeless-a-nopartner", "lone-a-nopartner"],
)
def test_oracle_rejects_marked_qubit_without_neighbour(tmp_path, capsys, text, qubit):
    """These once ended in a bipartition or arity error, and the third in a
    false verification failure (exit 1)."""
    path = tmp_path / "lonely.scenario"
    path.write_text(text)
    assert main(["oracle", str(path), "--matrix", "theorem7"]) == 2
    assert f"marked qubit {qubit} has no neighbour" in capsys.readouterr().err


def test_oracle_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text("left\n2\n0 1\n")
    assert main(["oracle", str(path), "--matrix", "pbs2"]) == 2


# ---------------------------------------------------------------------------
# sizes


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "1000000000000000"],  # 14.2 PiB of draws
        ["optimize", "expectation", "--p-target", "0.7",
         "--restarts", "10000000000000"],  # 114 PiB of candidate rows
    ],
)
def test_impossible_size_exits_2(tmp_path, capsys, argv):
    """Both once ended in a numpy traceback and exit 1, the code of a failed
    check.  Each size lies past the 47-bit address space, so the allocation
    fails at once without touching memory."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "error: out of memory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point


@pytest.mark.skipif(shutil.which("fusionlab") is None, reason="script not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["fusionlab", "verify", "--trials", "5", "--suite", "unitarity"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionlab.cli", "analyze", "--matrix", "identity"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"total_relevant_probability": 1' in proc.stdout
