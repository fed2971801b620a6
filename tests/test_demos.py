"""The scripts in demos/ run to completion against the package in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # pyproject's filterwarnings does not reach a subprocess
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("outcome_anatomy.py", ()),
        ("statevector_crosscheck.py", ()),
        ("random_landscape.py", ("-n", "200")),
    ],
)
def test_demo_runs(tmp_path, script, args):
    _run(tmp_path, script, *args)


@pytest.mark.acceptance
def test_tradeoff_demo_runs(tmp_path):
    _run(tmp_path, "entropy_probability_tradeoff.py")
