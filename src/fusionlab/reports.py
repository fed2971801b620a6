"""Artifact writers: deterministic CSV/JSON files for external plotting.

Every number is printed with 12 significant digits and a '.' decimal
separator regardless of locale, so re-runs diff cleanly.  Files are written
atomically (temp file in the target directory, then rename) to keep partial
output from ever appearing under the final name.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

__all__ = [
    "LN2",
    "fmt",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "entropy_scale",
    "sweep_csv",
    "scatter_csv",
    "analyze_report",
]

LN2 = math.log(2.0)


def fmt(value) -> str:
    """One value as text: floats at 12 significant digits, rest via str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _round12(obj):
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, complex):
        return [_round12(obj.real), _round12(obj.imag)]
    return obj


def json_text(obj) -> str:
    return json.dumps(_round12(obj), indent=2)


def write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj) + "\n")


def entropy_scale(nats: bool) -> tuple[float, str]:
    """Multiplier and unit label for entropy-valued columns."""
    return (LN2, "nats") if nats else (1.0, "bits")


# ---------------------------------------------------------------------------
# schema helpers for the command-line artifacts


def sweep_csv(path, rows, mode: str, nats: bool = False) -> None:
    """One row per `optimize.sweep` target.  Threshold targets are named in
    bits and stay in bits, and P is unitless, so `nats` scales <S> only."""
    if mode == "expectation":
        scale, unit = entropy_scale(nats)
        names = ["p_target", "S_exp_max", "S_exp_mean"]
    elif mode == "threshold":
        scale, unit = 1.0, "bits"
        names = ["s_target_bits", "P_max", "P_mean"]
    else:
        raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
    header = names + ["states_used", "seed", "iterations", "units", "p_total"]
    data = (
        (
            r["target"],
            r["hard_value"] * scale,
            r["mean_value"] * scale,
            r["states_used"],
            r["seed"],
            r["iterations"],
            unit,
            r["p_total"],
        )
        for r in rows
    )
    write_csv(path, header, data)


def scatter_csv(path, rows, mode: str, nats: bool = False) -> None:
    """The (n, 2) rows of `optimize.random_scatter`, one CSV row each;
    `nats` scales S_exp only, as in `sweep_csv`."""
    scale, unit = entropy_scale(nats)
    if mode == "expectation":
        header, scale = ["p_total", "S_exp", "units"], [1.0, scale]
    elif mode == "threshold":
        header, scale, unit = ["s_target", "P", "units"], 1.0, "bits"
    else:
        raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
    write_csv(path, header, (row + [unit] for row in (np.asarray(rows) * scale).tolist()))


def analyze_report(matrix_name, table, entropies, classifications, nats: bool = False) -> dict:
    """JSON document for one matrix: outcomes, entropies, classifications."""
    scale, unit = entropy_scale(nats)
    relevant = table.relevant
    outcomes = []
    for idx, outcome in enumerate(relevant):
        entry = outcome.to_json()
        entry["entropy"] = float(entropies[idx]) * scale
        entry["classification"] = classifications[idx].to_json()
        outcomes.append(entry)
    return {
        "matrix": matrix_name,
        "units": unit,
        "total_relevant_probability": float(
            sum(o.probability for o in relevant)
        ),
        "relevant_outcomes": outcomes,
        "diag_probabilities": [
            float(o.probability) for o in table.outcomes if not o.relevant
        ],
    }
