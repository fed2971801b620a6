"""The four benchmark workloads: inputs, one timed operation, output checks.

A workload builds its inputs from the workload seed alone, so the program
receives only generated inputs.  `prepare(inputs, k)` does the harness's
untimed work for operation k, such as writing its input file; `run(inputs, k)`
performs operation k and returns its output together with the number of
items it completed; `check(inputs, k, output)` returns a list of failure
messages, empty when the output is right.  Checks compare against a
computation made apart from the code under test -- the two-photon Fock
expansion of `oracle.bosonic_outcome_table` with entropies from this
module's own SVD -- or against a property the method must have.  Nothing is
compared with a stored copy.

Operation k of a run depends only on (seed, k), so a traced and an untraced
run with the same seed perform the same operations; `digest` reduces an
output to bytes for that comparison.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from fusionlab import cli, matrices, oracle, optimize

TOL = 1e-9  # agreement required between the program and the checks

# Sweeps: a reduced but complete optimizer run.  restarts = 20 keeps the
# descent batch at 20 x 33 = 660 matrices, the size the default config uses.
SWEEP_CONFIG = optimize.OptimizerConfig(restarts=20, init_samples=100, iterations=60)
EXPECTATION_TARGETS = (0.5, 0.75, 1.0)
THRESHOLD_TARGETS = (0.0, 0.5, 1.0)

# Landscape: 2**16 Haar matrices are 16 MiB of complex128, far beyond L2.
LANDSCAPE_N = 1 << 16
LANDSCAPE_S_TARGETS = (0.0, 0.5, 1.0)
LANDSCAPE_CHECKED_ROWS = 4
HAAR_P_TOTAL_MEAN = 0.6  # (1 + 4 E[n_i^2]) / 2 with E[n_i^2] = Var Beta(2, 2) = 1/20

# Crosscheck: one round scores one Haar matrix on each scenario size from 4
# to 14 qubits, plus one phase-dressed `theorem7` matrix whose stabilizer
# outcomes take the structured-verdict path that generic matrices never reach.
CROSSCHECK_SIZES = tuple(range(4, 15))
CROSSCHECK_DRESSED_SIZE = 9
CROSSCHECK_POOL_ROUNDS = 64


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, independent across operations and workload seeds."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# the independent route: Fock amplitudes from the oracle, entropies by SVD


def svd_entropy(raw) -> float:
    """Entanglement entropy in bits of the 2x2 coefficient matrix [[A, B], [C, D]]."""
    m = np.asarray(raw, dtype=complex).reshape(2, 2)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    lam = np.linalg.svd(m / norm, compute_uv=False) ** 2
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def fock_route(u):
    """(relevant p, relevant S, same-channel p) of `u` by the Fock expansion."""
    table = oracle.bosonic_outcome_table(u)
    rel = table.relevant
    p = np.array([o.probability for o in rel])
    s = np.array([svd_entropy(o.raw) for o in rel])
    diag = np.array([o.probability for o in table.outcomes if not o.relevant])
    return p, s, diag


def threshold_bracket(p, s, diag, s_target: float, slack: float = TOL):
    """Bounds on P(s) that allow for outcomes whose entropy sits on the target.

    An outcome within `slack` of the target may fall on either side of it in
    the program's arithmetic, so P(s) must lie between the sums counting
    outcomes with S >= s + slack and with S >= s - slack.  The same-channel
    outcomes (S = 0) count only at s <= 0.
    """
    lo = float(np.sum(p[s >= s_target + slack]))
    hi = float(np.sum(p[s >= s_target - slack]))
    if s_target <= 0.0:
        lo += float(np.sum(diag))
        hi += float(np.sum(diag))
    return lo, hi


def unitarity_defect(u) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ u - np.eye(4)).max())


def haar_qr(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Ginibre matrices: QR with R's diagonal made positive."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _sha(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


class Workload:
    round_size = 1  # operations that make up one whole round

    def prepare(self, inputs, k: int) -> None:
        pass


# ---------------------------------------------------------------------------
# optimizer sweeps


class Sweep(Workload):
    """One `optimize.sweep` over a fixed target grid; one item is one target."""

    def __init__(self, kind: str, targets):
        self.kind = kind
        self.targets = tuple(targets)

    def setup(self, seed: int, workdir: str) -> int:
        return seed

    def run(self, seed: int, k: int):
        cfg = dataclasses.replace(SWEEP_CONFIG, master_seed=op_seed(seed, k))
        rows = optimize.sweep(self.kind, self.targets, cfg)
        return rows, len(rows)

    def digest(self, rows) -> bytes:
        return _sha(
            *(
                part
                for r in rows
                for part in (
                    r["result"].best_matrix.tobytes(),
                    r["hard_value"],
                    r["mean_value"],
                    r["p_total"],
                    r["result"].trace,
                    r["result"].restart_values,
                )
            )
        )

    def check(self, seed: int, k: int, rows) -> list[str]:
        bad: list[str] = []
        if [r["target"] for r in rows] != list(self.targets):
            return [f"sweep returned targets {[r['target'] for r in rows]}"]
        values = []
        for r in rows:
            t, res = r["target"], r["result"]
            u = res.best_matrix
            if unitarity_defect(u) > TOL:
                bad.append(f"target {t}: winner not unitary ({unitarity_defect(u):.2e})")
                continue
            p, s, diag = fock_route(u)
            p_total = float(np.sum(p))
            if abs(p_total - r["p_total"]) > TOL:
                bad.append(f"target {t}: p_total {r['p_total']!r} != Fock {p_total!r}")
            if self.kind == "expectation":
                s_exp = float(np.sum(p * s))
                if abs(s_exp - r["hard_value"]) > TOL:
                    bad.append(f"target {t}: <S> {r['hard_value']!r} != Fock/SVD {s_exp!r}")
                if r["hard_value"] > p_total + TOL:
                    bad.append(f"target {t}: <S> {r['hard_value']!r} exceeds p_total {p_total!r}")
                if t == 0.5 and r["hard_value"] < 0.5 - TOL:
                    bad.append(f"<S>(0.5) = {r['hard_value']!r} below 1/2")
            else:
                lo, hi = threshold_bracket(p, s, diag, t)
                if not lo - TOL <= r["hard_value"] <= hi + TOL:
                    bad.append(f"s {t}: P {r['hard_value']!r} outside Fock/SVD [{lo!r}, {hi!r}]")
                if t == 0.0 and abs(r["hard_value"] - 1.0) > TOL:
                    bad.append(f"P(0) = {r['hard_value']!r}, expected 1")
                if t == 1.0 and abs(r["hard_value"] - 0.5) > TOL:
                    bad.append(f"P(1) = {r['hard_value']!r}, expected the bound 1/2")
                if t > 0.0 and not r["hard_value"] < 1.0:
                    bad.append(f"P({t}) = {r['hard_value']!r}, but only product states succeed surely")
                values.append(r["hard_value"])
        if any(b > a + TOL for a, b in zip(values, values[1:])):
            bad.append(f"P(s) increases with s: {values}")
        return bad


# ---------------------------------------------------------------------------
# Haar landscape


class Landscape(Workload):
    """`random_scatter` in both modes on one Haar batch; one item is one matrix scored."""

    def setup(self, seed: int, workdir: str) -> int:
        return seed

    def run(self, seed: int, k: int):
        sd = op_seed(seed, k)
        exp_rows, exp_summary = optimize.random_scatter(LANDSCAPE_N, sd, "expectation")
        thr_rows, _ = optimize.random_scatter(
            LANDSCAPE_N, sd, "threshold", s_targets=LANDSCAPE_S_TARGETS
        )
        return (exp_rows, exp_summary, thr_rows), 2 * LANDSCAPE_N

    def digest(self, out) -> bytes:
        exp_rows, exp_summary, thr_rows = out
        return _sha(
            np.array(exp_rows).tobytes(),
            np.array(thr_rows).tobytes(),
            sorted(exp_summary.items()),
        )

    def check(self, seed: int, k: int, out) -> list[str]:
        exp_rows, _, thr_rows = out
        n = LANDSCAPE_N
        bad: list[str] = []
        if len(exp_rows) != n or len(thr_rows) != n * len(LANDSCAPE_S_TARGETS):
            return [f"row counts {len(exp_rows)}, {len(thr_rows)}"]
        exp = np.array(exp_rows)  # (p_total, <S>)
        thr = np.array(thr_rows).reshape(len(LANDSCAPE_S_TARGETS), n, 2)
        p_total = exp[:, 0]
        if not np.array_equal(thr[:, :, 0], np.repeat(np.array(LANDSCAPE_S_TARGETS)[:, None], n, 1)):
            bad.append("threshold rows out of target order")
        p_one = thr[LANDSCAPE_S_TARGETS.index(1.0), :, 1]
        if p_one.max() > 0.5 + TOL:
            bad.append(f"a Haar matrix has P(1) = {p_one.max()!r} above 1/2")
        if p_total.min() < 0.5 - TOL or p_total.max() > 1.0 + TOL:
            bad.append(f"p_total range [{p_total.min()!r}, {p_total.max()!r}] leaves [1/2, 1]")
        se = float(np.std(p_total)) / np.sqrt(n)
        if abs(float(np.mean(p_total)) - HAAR_P_TOTAL_MEAN) > 5.0 * se:
            bad.append(f"mean p_total {np.mean(p_total)!r} not within 5 SE of 0.6")

        # score a few seeded rows of the same batch by the Fock route; the
        # sampler itself is held to the distribution tests above
        rng = np.random.default_rng([seed, k, 1])
        picked = rng.choice(n, size=LANDSCAPE_CHECKED_ROWS, replace=False)
        for idx, u in zip(picked, matrices.haar_sample(op_seed(seed, k), n)[picked]):
            if unitarity_defect(u) > TOL:
                bad.append(f"row {idx}: sample not unitary ({unitarity_defect(u):.2e})")
                continue
            p, s, diag = fock_route(u)
            if abs(float(np.sum(p)) - exp[idx, 0]) > TOL:
                bad.append(f"row {idx}: p_total {exp[idx, 0]!r} != Fock {np.sum(p)!r}")
            if abs(float(np.sum(p * s)) - exp[idx, 1]) > TOL:
                bad.append(f"row {idx}: <S> {exp[idx, 1]!r} != Fock/SVD {np.sum(p * s)!r}")
            for t_idx, t in enumerate(LANDSCAPE_S_TARGETS):
                lo, hi = threshold_bracket(p, s, diag, t)
                if not lo - TOL <= thr[t_idx, idx, 1] <= hi + TOL:
                    bad.append(f"row {idx}: P({t}) {thr[t_idx, idx, 1]!r} outside [{lo!r}, {hi!r}]")
        return bad


# ---------------------------------------------------------------------------
# per-matrix crosscheck


@dataclass(frozen=True)
class Case:
    matrix: np.ndarray
    scenario: object


@dataclass(frozen=True)
class CrosscheckInputs:
    cases: tuple[Case, ...]
    matrix_path: str  # the current operation's `analyze` input
    report_path: str


def _random_graph_text(rng, n: int, marked: int) -> str:
    """A connected graph (random spanning tree plus extra edges) with random flags.

    The marked qubit carries no flag: `oracle.check_Te_stabilizer` ignores
    the flags of the two fused qubits (see CHANGES.md).
    """
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    flags = rng.integers(0, 2, size=n)
    flags[marked] = 0
    head = " ".join([str(n)] + [str(int(f)) for f in flags])
    return "\n".join([head] + [f"{u} {v}" for u, v in sorted(edges)])


def scenario_text(rng, qubits: int) -> str:
    """Two random clusters fused into a `qubits`-qubit register.

    Five or more qubits include the logical partner of the left marked qubit;
    four qubits are two two-vertex clusters without one.
    """
    partner = qubits >= 5
    vertices = qubits - partner
    n_left = int(rng.integers(2, vertices - 1)) if vertices > 4 else 2
    n_right = vertices - n_left
    a, b = int(rng.integers(0, n_left)), int(rng.integers(0, n_right))
    return (
        f"left\n{_random_graph_text(rng, n_left, a)}\n"
        f"right\n{_random_graph_text(rng, n_right, b)}\n"
        f"fuse {a} {b}{'' if partner else ' nopartner'}\n"
    )


def _dressed_theorem7(rng) -> np.ndarray:
    """theorem7 with random diagonal phases on both sides (outcomes unchanged)."""
    t7 = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]]) / np.sqrt(2.0)
    left, right = rng.uniform(-np.pi, np.pi, size=(2, 4))
    return np.exp(1j * left)[:, None] * t7 * np.exp(1j * right)[None, :]


def write_matrix_json(path: str, u) -> None:
    doc = {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in u]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


class Crosscheck(Workload):
    """One matrix through `analyze`, the Fock table and a state-vector scenario.

    One item is one relevant outcome cross-checked on the state vector.
    """

    round_size = len(CROSSCHECK_SIZES) + 1

    def setup(self, seed: int, workdir: str) -> CrosscheckInputs:
        cases = []
        n_cases = CROSSCHECK_POOL_ROUNDS * self.round_size
        ginibre = np.random.default_rng([seed, 0]).standard_normal((n_cases, 2, 4, 4))
        haar = haar_qr(ginibre[:, 0] + 1j * ginibre[:, 1])
        for c in range(n_cases):
            rng = np.random.default_rng([seed, 1, c])
            slot = c % self.round_size
            if slot < len(CROSSCHECK_SIZES):
                qubits, u = CROSSCHECK_SIZES[slot], haar[c]
            else:
                qubits, u = CROSSCHECK_DRESSED_SIZE, _dressed_theorem7(rng)
            cases.append(Case(np.array(u), oracle.parse_scenario(scenario_text(rng, qubits))))
        return CrosscheckInputs(
            cases=tuple(cases),
            matrix_path=os.path.join(workdir, "matrix.json"),
            report_path=os.path.join(workdir, "report.json"),
        )

    def prepare(self, inputs: CrosscheckInputs, k: int) -> None:
        write_matrix_json(inputs.matrix_path, inputs.cases[k % len(inputs.cases)].matrix)

    def run(self, inputs: CrosscheckInputs, k: int):
        case = inputs.cases[k % len(inputs.cases)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--matrix", inputs.matrix_path, "--out", inputs.report_path])
        table = oracle.bosonic_outcome_table(case.matrix)
        comparison = oracle.compare_scenario(case.scenario, case.matrix)
        items = sum("skipped" not in row for row in comparison["outcomes"])
        return (code, inputs.report_path, table, comparison), items

    def digest(self, out) -> bytes:
        code, report_path, table, comparison = out
        with open(report_path) as fh:
            report = json.load(fh)
        del report["matrix"]  # the input's path, which differs between runs
        return _sha(
            code,
            json.dumps(report, sort_keys=True),
            [(o.probability, o.raw) for o in table.outcomes],
            json.dumps(comparison, sort_keys=True, default=repr),
        )

    def check(self, inputs: CrosscheckInputs, k: int, out) -> list[str]:
        code, report_path, table, comparison = out
        if code != 0:
            return [f"analyze exited {code}"]
        with open(report_path) as fh:
            report = json.load(fh)
        bad: list[str] = []
        rel = table.relevant
        p = np.array([o.probability for o in rel])
        diag = np.array([o.probability for o in table.outcomes if not o.relevant])
        if abs(float(np.sum(p) + np.sum(diag)) - 1.0) > TOL:
            bad.append(f"Fock probabilities sum to {np.sum(p) + np.sum(diag)!r}")
        entries = report["relevant_outcomes"]
        if [(e["i"], e["j"]) for e in entries] != [(o.i, o.j) for o in rel]:
            return bad + ["report outcome order differs from the Fock table"]
        for e, o in zip(entries, rel):
            if abs(e["probability"] - o.probability) > TOL:
                bad.append(f"({o.i},{o.j}): p {e['probability']!r} != Fock {o.probability!r}")
            # the entropy of an outcome that (almost) never happens is undefined
            if o.probability > TOL and abs(e["entropy"] - svd_entropy(o.raw)) > TOL:
                bad.append(f"({o.i},{o.j}): S {e['entropy']!r} != SVD {svd_entropy(o.raw)!r}")
        if abs(report["total_relevant_probability"] - float(np.sum(p))) > TOL:
            bad.append(f"total p {report['total_relevant_probability']!r} != Fock {np.sum(p)!r}")
        if np.abs(np.array(report["diag_probabilities"]) - diag).max() > TOL:
            bad.append("same-channel probabilities differ from the Fock table")
        if not comparison["pass"]:
            failed = [r["channels"] for r in comparison["outcomes"] if not r["pass"]]
            bad.append(f"compare_scenario failed on outcomes {failed}")
        return bad


WORKLOADS = {
    "sweep-expectation": Sweep("expectation", EXPECTATION_TARGETS),
    "sweep-threshold": Sweep("threshold", THRESHOLD_TARGETS),
    "landscape": Landscape(),
    "crosscheck": Crosscheck(),
}
