"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line with the measured numbers, and enforces the stated tolerance
and runtime budget.  Run with ``pytest -v tests/test_acceptance.py`` (add
``-s`` to watch the lines appear live); the full module takes a few minutes
because four tests run the optimizer at its default configuration.  Every
test carries the ``acceptance`` marker, so ``pytest -m "not acceptance"``
runs the rest of the suite alone.
"""
import json
import time

import numpy as np
import pytest

from fusionlab import entanglement, fusion, matrices, optimize as opt, oracle
from fusionlab.classify import classify, is_stabilizer, is_weighted_graph
from fusionlab.cli import main

pytestmark = pytest.mark.acceptance


def _report(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    return ok


def _wg_coeffs(theta1, phi1, theta2, phi2):
    e1 = np.exp(1j * theta1) / np.sqrt(2.0)
    e2 = np.exp(1j * theta2) / np.sqrt(2.0)
    return np.array(
        [e1 * np.cos(phi1), 1j * e1 * np.sin(phi1), 1j * e2 * np.sin(phi2), e2 * np.cos(phi2)]
    )


def test_pbs2_outcome_structure(capsys):
    """The polarizing-beam-splitter matrix reproduces its known outcome table."""
    t0 = time.perf_counter()
    assert main(["analyze", "--matrix", "pbs2"]) == 0
    report = json.loads(capsys.readouterr().out)

    diag_total = sum(report["diag_probabilities"])
    ok = abs(diag_total - 0.5) <= 1e-9
    table = fusion.outcome_table(matrices.builtin("pbs2"))
    for oc in table.outcomes:
        if oc.i == oc.j and oc.probability > 1e-9:
            ok &= abs(oc.a * oc.d - oc.b * oc.c) <= 1e-9  # same-port states are product

    by_pair = {(r["i"], r["j"]): r for r in report["relevant_outcomes"]}
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4)):
        ok &= abs(by_pair[pair]["probability"] - 0.125) <= 1e-9
        ok &= abs(by_pair[pair]["entropy"] - 1.0) <= 1e-9
    for pair in ((1, 2), (3, 4)):
        ok &= by_pair[pair]["probability"] <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0

    with capsys.disabled():
        assert _report(
            ok,
            "pbs2 outcome structure",
            f"diag total {diag_total:.9f}, cross-port p=1/8 S=1, {elapsed:.2f}s",
        )


def test_haar_threshold_never_exceeds_half():
    """No unitary pushes the probability of maximal entanglement above 1/2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(10):
        u = matrices.haar_sample(rng, size=10_000)
        worst = max(worst, float(np.max(opt.threshold_probability(u, 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.5 + 1e-9 and elapsed < 60.0
    assert _report(
        ok,
        "Haar threshold bound",
        f"max P(1) over 1e5 samples = {worst:.12f}, {elapsed:.1f}s",
    )


def test_dyadic_builtins_saturate_threshold():
    """The two balanced builtins reach P(1) = 1/2 and the optimizer finds the
    saturating point from scratch."""
    t0 = time.perf_counter()
    p_pbs2 = opt.threshold_probability(matrices.builtin("pbs2"), 1.0)
    p_th7 = opt.threshold_probability(matrices.builtin("theorem7"), 1.0)
    ok = abs(p_pbs2 - 0.5) <= 1e-12 and abs(p_th7 - 0.5) <= 1e-12

    res = opt.optimize(opt.ThresholdProbability(s_target_bits=1.0))
    n_max = float(np.max(np.abs(fusion.channel_invariants(res.best_matrix).n)))
    elapsed = time.perf_counter() - t0
    ok &= res.hard_value >= 0.499 and n_max <= 1e-3 and elapsed < 120.0
    assert _report(
        ok,
        "threshold saturation at s=1",
        f"builtins P= {p_pbs2:.12f}/{p_th7:.12f}, optimizer P={res.hard_value:.6f}, "
        f"max|n|={n_max:.2e}, {elapsed:.1f}s",
    )


def test_deterministic_matrix_has_no_entanglement():
    """Certain success forces product outcomes, and the optimizer never
    pretends otherwise."""
    u = matrices.builtin("blockpair")
    table = fusion.outcome_table(u)
    s = entanglement.entropies_from_matrix(u)
    p = fusion.relevant_probabilities(u)
    ok = bool(np.all(s[p > 1e-9] <= 1e-9))
    ok &= abs(fusion.total_relevant_probability(u) - 1.0) <= 1e-12
    ok &= all(
        abs(oc.a * oc.d - oc.b * oc.c) <= 1e-9
        for oc in table.relevant
        if oc.probability > 1e-9
    )

    res = opt.optimize(opt.ThresholdProbability(s_target_bits=0.1))
    ceiling = 1.0 - 1e-6
    ok &= res.hard_value < ceiling and all(v < ceiling for v in res.restart_values)
    assert _report(
        ok,
        "no entanglement at certain success",
        f"blockpair max S = {float(np.max(s)):.2e}, "
        f"optimizer P(0.1) = {res.hard_value:.6f} < 1",
    )


def _family_a_entropy(p):
    """<S>_A(p) of the family U(t) = pbs2 (R(t) + R(t)), x = sin^2 2t = 2p - 1:
    two outcomes at S = 1 with p = (1 - x)/8 each, and two partly entangled
    ones with p = (1 + x)/8 each and larger eigenvalue
    (1 + sqrt x)^2 / (2 (1 + x))."""
    x = np.clip(2.0 * np.asarray(p) - 1.0, 0.0, 1.0)
    lam = (1.0 + np.sqrt(x)) ** 2 / (2.0 * (1.0 + x))
    return (1.0 - x) / 4.0 + (1.0 + x) / 4.0 * entanglement.entropy(lam)


def test_expectation_frontier_sweep():
    """<S> against pinned success probability: endpoints, monotone shape, the
    empirical 1-p band, and no winner above family A's <S>_A at its own
    p_total, nor far below it."""
    t0 = time.perf_counter()
    targets = [round(0.5 + 0.01 * k, 2) for k in range(51)]
    rows = opt.sweep("expectation", targets)
    elapsed = time.perf_counter() - t0
    values = {r["target"]: r["hard_value"] for r in rows}

    ok = values[0.5] >= 0.49 and values[1.0] <= 0.01
    steps = [values[targets[k + 1]] - values[targets[k]] for k in range(50)]
    ok &= max(steps) <= 0.02
    band = {p: abs(values[p] - (1.0 - p)) for p in (0.6, 0.7, 0.8, 0.9)}
    ok &= max(band.values()) <= 0.08
    gaps = [r["hard_value"] - _family_a_entropy(r["p_total"]) for r in rows]
    ok &= -0.006 <= min(gaps) and max(gaps) <= 1e-6
    ok &= elapsed < 900.0
    assert _report(
        ok,
        "expectation sweep",
        f"S(0.5)={values[0.5]:.4f}, S(1.0)={values[1.0]:.4f}, "
        f"max step {max(steps):+.4f}, band offsets "
        + " ".join(f"{p}:{d:.3f}" for p, d in band.items())
        + f", worst gap to <S>_A {min(gaps):+.4f}, {elapsed:.0f}s",
    )


def test_threshold_frontier_sweep():
    """P(s) against the entropy target: certain at 0, half at 1, monotone,
    built from all six relevant outcomes in between, and above the 0.5226
    that a logistic-surrogate descent reached at s = 0.8."""
    t0 = time.perf_counter()
    targets = [round(0.04 * k, 2) for k in range(26)]
    rows = opt.sweep("threshold", targets)
    elapsed = time.perf_counter() - t0
    values = [r["hard_value"] for r in rows]

    ok = values[0] == 1.0
    ok &= 0.499 <= values[-1] <= 0.5 + 1e-9
    drops = [values[k + 1] - values[k] for k in range(25)]
    ok &= max(drops) <= 1e-3
    interior = [r for r in rows if 0.0 < r["target"] < 1.0]
    six = sum(1 for r in interior if r["states_used"] == 6)
    ok &= six >= 0.8 * len(interior)
    p08 = values[targets.index(0.8)]
    ok &= p08 >= 0.526
    assert _report(
        ok,
        "threshold sweep",
        f"P(0)={values[0]}, P(0.8)={p08:.5f}, P(1)={values[-1]:.6f}, max step {max(drops):+.2e}, "
        f"six-state points {six}/{len(interior)}, {elapsed:.0f}s",
    )


def test_bosonic_and_dense_oracles_agree():
    """The photon-algebra expansion and the dense state-vector route both
    reproduce the closed-form probabilities and entropies."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_p = worst_c = 0.0
    for u in matrices.haar_sample(rng, size=1000):
        analytic = fusion.outcome_table(u)
        bosonic = oracle.bosonic_outcome_table(u)
        for oa, ob in zip(analytic.outcomes, bosonic.outcomes):
            worst_p = max(worst_p, abs(oa.probability - ob.probability))
            if oa.zero_probability:
                continue
            ca = np.array([oa.a, oa.b, oa.c, oa.d])
            cb = np.array([ob.a, ob.b, ob.c, ob.d])
            phase = np.vdot(ca, cb)
            phase /= abs(phase)
            worst_c = max(worst_c, float(np.abs(cb - phase * ca).max()))
    ok = worst_p <= 1e-9 and worst_c <= 1e-9

    worst_w = worst_s = 0.0
    for _ in range(50):
        sc = oracle.random_scenario(
            rng, n_left=int(rng.integers(2, 5)), n_right=int(rng.integers(2, 5))
        )
        u = matrices.haar_sample(rng)
        for oc in fusion.outcome_table(u).relevant:
            if oc.probability <= 1e-9:
                continue
            run = oracle.fuse(sc, oc.raw)
            worst_w = max(worst_w, abs(run.weight - oc.probability))
            s_cut = oracle.bipartite_entropy(run.state, run.left_side)
            worst_s = max(worst_s, abs(s_cut - entanglement.outcome_entropy(oc)))
    elapsed = time.perf_counter() - t0
    ok &= worst_w <= 1e-9 and worst_s <= 1e-9 and elapsed < 300.0
    assert _report(
        ok,
        "oracle equivalence",
        f"prob dev {worst_p:.1e}, coeff dev {worst_c:.1e}, weight dev {worst_w:.1e}, "
        f"entropy dev {worst_s:.1e}, {elapsed:.0f}s",
    )


def test_weighted_graph_determinant_coherence():
    """On the weighted-graph family the determinant follows the edge weight,
    and maximal entanglement coincides exactly with the cluster form."""
    rng = np.random.default_rng(88)
    worst = 0.0
    disagreements = 0
    for _ in range(10_000):
        c = _wg_coeffs(*rng.uniform(-np.pi, np.pi, 4))
        det = float(abs(c[0] * c[3] - c[1] * c[2]) ** 2)
        wg = is_weighted_graph(c, tol=1e-8)
        worst = max(worst, abs(det - (1.0 - np.cos(wg.chi)) / 8.0))
        is_max = abs(det - 0.25) <= 1e-8
        if is_max != ("ClusterUpToRotation" in classify(c, tol=1e-8)):
            disagreements += 1
    # the equivalence must also hold on the measure-zero manifold itself
    for _ in range(100):
        t1, t2, f = rng.uniform(-np.pi, np.pi, 3)
        if "ClusterUpToRotation" not in classify(_wg_coeffs(t1, f, t2, f), tol=1e-8):
            disagreements += 1
    ok = worst <= 1e-9 and disagreements == 0
    assert _report(
        ok,
        "weighted-graph determinant coherence",
        f"max |det - (1-cos chi)/8| = {worst:.1e}, disagreements = {disagreements}",
    )


def test_carrier_stabilizer_oracle():
    """The carrier-qubit stabilizer holds exactly at the extracted phase for
    stabilizer-form outcomes, and at no phase otherwise."""
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(100):
        sc = oracle.random_scenario(rng, n_left=3, n_right=3)
        # equal-magnitude pair on one branch, random phases: the general
        # stabilizer form up to normalization
        ph = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
        if rng.random() < 0.5:
            c = np.array([ph[0], 0.0, 0.0, ph[1]]) / np.sqrt(2.0)
        else:
            c = np.array([0.0, ph[0], ph[1], 0.0]) / np.sqrt(2.0)
        phi = is_stabilizer(c)
        run = oracle.fuse(sc, c)
        ok &= phi is not None and oracle.check_Te_stabilizer(run.state, sc, phi)

    grid = 2.0 * np.pi * np.arange(360) / 360.0
    for _ in range(100):
        sc = oracle.random_scenario(rng, n_left=3, n_right=3)
        while True:
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            c /= np.linalg.norm(c)
            if np.min(np.abs(c)) > 0.2:  # far from both stabilizer branches
                break
        run = oracle.fuse(sc, c)
        ok &= not any(oracle.check_Te_stabilizer(run.state, sc, phi) for phi in grid)
    assert _report(
        ok,
        "carrier stabilizer oracle",
        "100 stabilizer-form scenarios pass at the extracted phase; "
        "100 generic ones fail on the full 360-point phase grid",
    )


def test_property_suites_pass(capsys):
    """The randomized invariant suites all pass at full trial count."""
    t0 = time.perf_counter()
    code = main(["verify", "--trials", "1000"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = code == 0 and out.strip().endswith("PASS") and elapsed < 120.0
    with capsys.disabled():
        assert _report(
            ok, "invariant suites", f"exit {code} at 1000 trials, {elapsed:.1f}s"
        )
