"""Randomized property suites: the package checking its own theorems.

Each suite draws fresh random matrices (or graphs, or coefficient quadruples)
and counts individual property checks as passed or failed.  `run_suites` is
what the command-line `verify` subcommand calls; a build is considered good
iff every suite reports zero failures.

The `inject_fault` hook deliberately corrupts one computation (a sign flip in
the channel-invariant suite) so the surrounding machinery can be shown to
catch a broken build; it exists for negative-control tests only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classify, entanglement, fusion, matrices, optimize, oracle

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites"]

_SUITES: list[tuple[str, object]] = []


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    failed: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _suite(name):
    def deco(fn):
        _SUITES.append((name, fn))
        return fn

    return deco


class _Counter:
    """Pass/fail bookkeeping; failures keep their first few labels."""

    def __init__(self):
        self.passed = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok, label: str):
        arr = np.asarray(ok, dtype=bool)
        good = int(arr.sum())
        bad = int(arr.size - good)
        self.passed += good
        self.failed += bad
        if bad and len(self.notes) < 4:
            self.notes.append(f"{label} ({bad} of {arr.size})")

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, self.passed, self.failed, "; ".join(self.notes))


# ---------------------------------------------------------------------------
# matrix-layer suites


@_suite("unitarity")
def _suite_unitarity(rng, trials, fault):
    c = _Counter()
    n = max(trials, 4)
    u = np.concatenate(
        [
            matrices.haar_sample(rng, size=n),
            matrices.from_params(rng.uniform(-np.pi, np.pi, (n, 16))),
        ]
    )
    eye = np.eye(4)
    defect = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye).max(axis=(-2, -1))
    c.check(defect <= 1e-9, "U'U = I within 1e-9")

    # determinism and seed separation of the Haar sampler
    seeds = range(min(trials, 200))
    first = [matrices.haar_sample(np.random.default_rng(s))[0, 0] for s in seeds]
    again = [matrices.haar_sample(np.random.default_rng(s))[0, 0] for s in seeds]
    c.check(np.array_equal(first, again), "haar_sample deterministic per seed")
    c.check(len(set(first)) == len(first), "distinct seeds give distinct samples")
    return c


@_suite("haar_moments")
def _suite_haar_moments(rng, trials, fault):
    # familywise 3-sigma across the 16 entries, i.e. ~4 sigma per entry
    c = _Counter()
    n = int(min(max(100 * trials, 2000), 100_000))
    u = matrices.haar_sample(rng, size=n)
    mag2 = np.abs(u) ** 2
    mean = mag2.mean(axis=0)
    sem = mag2.std(axis=0) / np.sqrt(n)
    c.check(np.abs(mean - 0.25) <= 4.0 * sem, "E|U_ij|^2 = 1/4")
    return c


@_suite("channel_invariants")
def _suite_channel_invariants(rng, trials, fault):
    c = _Counter()
    n = max(trials, 4)
    u = matrices.haar_sample(rng, size=n)
    m, nn, t, k = fusion.channel_invariants(u)
    if fault:
        nn = nn.copy()
        nn[..., 0] *= -1.0  # deliberate sign flip: the negative control
    c.check(np.abs(m.sum(-1) - 2.0) <= 1e-12, "sum m = 2")
    c.check(np.abs(nn.sum(-1)) <= 1e-12, "sum n = 0")
    c.check(np.abs(t.sum(-1)) <= 1e-12, "sum t = 0")
    c.check(np.abs(k.sum(-1)) <= 1e-12, "sum k = 0")
    c.check(
        np.abs(m**2 - (4.0 * np.abs(t) ** 2 + k**2)) <= 1e-12,
        "m^2 = 4|t|^2 + k^2",
    )
    return c


@_suite("probability_bounds")
def _suite_probability_bounds(rng, trials, fault):
    c = _Counter()
    n = max(trials, 4)
    u = matrices.haar_sample(rng, size=n)
    p_rel = fusion.relevant_probabilities(u)
    p_diag = fusion.diag_probabilities(u)
    p_tot = fusion.total_relevant_probability(u)
    nn = fusion.channel_invariants(u).n
    c.check(p_rel <= 0.25 + 1e-12, "p_ij <= 1/4")
    c.check(p_diag <= 0.125 + 1e-12, "p_ii <= 1/8")
    c.check(p_rel >= -1e-12, "p_ij >= 0")
    c.check(p_diag >= -1e-12, "p_ii >= 0")
    c.check(
        np.abs(p_rel.sum(-1) + p_diag.sum(-1) - 1.0) <= 1e-12,
        "all ten outcomes sum to 1",
    )
    c.check((p_tot >= 0.5 - 1e-12) & (p_tot <= 1.0 + 1e-12), "p_total in [1/2, 1]")
    c.check(
        np.abs(p_tot - 0.5 * (1.0 + np.sum(nn**2, -1))) <= 1e-12,
        "p_total = (1 + sum n^2)/2",
    )
    c.check(np.abs(p_rel.sum(-1) - p_tot) <= 1e-12, "sum p_ij = p_total")
    return c


@_suite("norm_identity")
def _suite_norm_identity(rng, trials, fault):
    c = _Counter()
    n = max(trials, 4)
    u = matrices.haar_sample(rng, size=n)
    diag, rel = fusion.raw_coefficient_blocks(u)
    p_rel = fusion.relevant_probabilities(u)
    p_diag = fusion.diag_probabilities(u)
    c.check(
        np.abs(np.sum(np.abs(rel) ** 2, -1) - 4.0 * p_rel) <= 1e-12,
        "relevant norm^2 = 4 p",
    )
    c.check(
        np.abs(np.sum(np.abs(diag) ** 2, -1) - 2.0 * p_diag) <= 1e-12,
        "diagonal norm^2 = 2 p",
    )
    return c


@_suite("phase_invariance")
def _suite_phase_invariance(rng, trials, fault):
    c = _Counter()
    n = min(max(trials, 4), 200)
    for _ in range(n):
        u = matrices.haar_sample(rng)
        v = matrices.phase_multiply(
            u, rng.uniform(-np.pi, np.pi, 4), rng.uniform(-np.pi, np.pi, 4)
        )
        c.check(
            np.abs(
                fusion.relevant_probabilities(u) - fusion.relevant_probabilities(v)
            ).max()
            <= 1e-12,
            "p_ij phase invariant",
        )
        c.check(
            np.abs(fusion.diag_probabilities(u) - fusion.diag_probabilities(v)).max()
            <= 1e-12,
            "p_ii phase invariant",
        )
        _, rel_u = fusion.raw_coefficient_blocks(u)
        _, rel_v = fusion.raw_coefficient_blocks(v)
        c.check(
            np.abs(np.abs(rel_u) - np.abs(rel_v)).max() <= 1e-12,
            "|A|,|B|,|C|,|D| phase invariant",
        )
        c.check(
            np.abs(
                entanglement.entropies_from_matrix(u)
                - entanglement.entropies_from_matrix(v)
            ).max()
            <= 1e-11,
            "entropies phase invariant",
        )
    return c


# ---------------------------------------------------------------------------
# entanglement-layer suites


@_suite("determinant_identities")
def _suite_determinant_identities(rng, trials, fault):
    c = _Counter()
    n = max(trials, 4)
    u = matrices.haar_sample(rng, size=n)
    det = entanglement.determinants_from_matrix(u)
    c.check((det >= -1e-12) & (det <= 0.25 + 1e-12), "0 <= det <= 1/4")

    # factored form against |AD - BC|^2 of the normalized coefficients
    _, rel = fusion.raw_coefficient_blocks(u)
    p_rel = fusion.relevant_probabilities(u)
    norm2 = np.sum(np.abs(rel) ** 2, -1)
    live = norm2 > 1e-12
    a, b, cc, d = (rel[..., k] for k in range(4))
    adbc = np.abs(a * d - b * cc) ** 2 / np.where(live, norm2, 1.0) ** 2
    c.check(np.abs(np.where(live, adbc, det) - det)[live] <= 1e-10, "det = |AD-BC|^2")

    # per-outcome object path: reduced density, Schmidt, entropy agreement
    for _ in range(min(max(trials // 5, 2), 100)):
        um = matrices.haar_sample(rng)
        table = fusion.outcome_table(um)
        for oc in table.relevant:
            if oc.probability <= 1e-9:
                continue
            dd = entanglement.determinant(oc)
            rho = entanglement.reduced_density(oc)
            c.check(abs(np.linalg.det(rho).real - dd) <= 1e-12, "det = det rho_A")
            alpha, beta = entanglement.schmidt(oc)
            c.check(abs(alpha**2 + beta**2 - 1.0) <= 1e-12, "Schmidt normalization")
            s_schmidt = entanglement.entropy(alpha**2)
            s_det = entanglement.entropy_from_det(dd)
            c.check(abs(s_schmidt - s_det) <= 1e-9, "Schmidt vs determinant entropy")

    # maximal-entanglement predicate against the determinant criterion
    pairs = fusion.RELEVANT_PAIRS
    for _ in range(min(max(trials, 100), 2000)):
        um = matrices.haar_sample(rng)
        dets = entanglement.determinants_from_matrix(um)
        p = fusion.relevant_probabilities(um)
        for idx, (i, j) in enumerate(pairs):
            if p[idx] <= 1e-6:
                continue
            by_cond = entanglement.is_maximally_entangled(um, i, j, tol=1e-4)
            by_det = abs(dets[idx] - 0.25) <= 1e-8
            c.check(by_cond == by_det, "Lemma conditions <=> det = 1/4")
    for name in ("pbs2", "theorem7"):
        um = matrices.builtin(name)
        p = fusion.relevant_probabilities(um)
        dets = entanglement.determinants_from_matrix(um)
        s = entanglement.entropies_from_matrix(um)
        for idx, (i, j) in enumerate(pairs):
            if p[idx] <= 1e-6:
                continue
            c.check(
                entanglement.is_maximally_entangled(um, i, j)
                and abs(dets[idx] - 0.25) <= 1e-12
                and s[idx] == 1.0,
                f"{name} outcomes maximally entangled",
            )
    return c


# ---------------------------------------------------------------------------
# classification suites


def _weighted_graph_coeffs(theta1, theta2, phi1, phi2) -> np.ndarray:
    """(A, B, C, D) of the weighted-graph form with these parameters."""
    inv = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            np.exp(1j * theta1) * np.cos(phi1) * inv,
            1j * np.exp(1j * theta1) * np.sin(phi1) * inv,
            1j * np.exp(1j * theta2) * np.sin(phi2) * inv,
            np.exp(1j * theta2) * np.cos(phi2) * inv,
        ]
    )


def _random_weighted_graph_coeffs(rng, cluster=False):
    t1, t2 = rng.uniform(-np.pi, np.pi, 2)
    f1 = rng.uniform(-np.pi, np.pi)
    f2 = f1 if cluster else rng.uniform(-np.pi, np.pi)
    return _weighted_graph_coeffs(t1, t2, f1, f2)


def _random_stabilizer_coeffs(rng):
    inv = 1.0 / np.sqrt(2.0)
    pb, pc = rng.uniform(-np.pi, np.pi, 2)
    if rng.random() < 0.5:
        return np.array([0.0, np.exp(1j * pb) * inv, np.exp(1j * pc) * inv, 0.0])
    return np.array([np.exp(1j * pb) * inv, 0.0, 0.0, np.exp(1j * pc) * inv])


@_suite("classification_coherence")
def _suite_classification(rng, trials, fault):
    c = _Counter()
    n = min(max(trials, 20), 2000)
    for _ in range(n):
        # stabilizer-form quadruples are maximally entangled
        sc = _random_stabilizer_coeffs(rng)
        res = classify.classify(sc)
        det = float(np.abs(sc[0] * sc[3] - sc[1] * sc[2]) ** 2)
        c.check("Stabilizer" in res, "stabilizer form recognized")
        c.check(abs(det - 0.25) <= 1e-9, "Stabilizer => det = 1/4")

        # weighted-graph form: determinant identity and parameter round-trip
        wc = _random_weighted_graph_coeffs(rng)
        wg = classify.is_weighted_graph(wc)
        c.check(wg is not None, "weighted-graph form recognized")
        if wg is not None:
            det = float(np.abs(wc[0] * wc[3] - wc[1] * wc[2]) ** 2)
            c.check(
                abs(det - (1.0 - np.cos(wg.chi)) / 8.0) <= 1e-9,
                "det = (1 - cos chi)/8",
            )
            rebuilt = _weighted_graph_coeffs(wg.theta1, wg.theta2, wg.phi1, wg.phi2)
            c.check(np.abs(rebuilt - wc).max() <= 1e-9, "weighted-graph round-trip")
            is_max = abs(det - 0.25) <= 1e-8
            is_cluster = classify.is_cluster_up_to_rotation(wc) is not None
            c.check(is_max == is_cluster, "weighted graph maxent <=> cluster")

        # cluster form: a weighted graph with equal mixing angles
        kc = _random_weighted_graph_coeffs(rng, cluster=True)
        cl = classify.is_cluster_up_to_rotation(kc)
        c.check(cl is not None, "cluster form recognized")
        c.check(classify.is_weighted_graph(kc) is not None, "cluster is weighted graph")
        if cl is not None:
            det = float(np.abs(kc[0] * kc[3] - kc[1] * kc[2]) ** 2)
            c.check(abs(det - 0.25) <= 1e-9, "Cluster => det = 1/4")
            rebuilt = classify._rebuild_cluster(cl.theta1, cl.theta2, cl.phi)
            c.check(np.abs(rebuilt - kc).max() <= 1e-9, "cluster round-trip")
    return c


# ---------------------------------------------------------------------------
# optimizer suites


@_suite("threshold_bounds")
def _suite_threshold_bounds(rng, trials, fault):
    c = _Counter()
    n = max(trials, 1000)
    u = matrices.haar_sample(rng, size=n)
    c.check(
        np.abs(optimize.threshold_probability(u, 0.0) - 1.0) <= 1e-12,
        "P(0) = 1",
    )
    c.check(
        optimize.threshold_probability(u, 1.0) <= 0.5 + 1e-9,
        "P(1) <= 1/2",
    )
    for name in ("pbs2", "theorem7"):
        c.check(
            optimize.threshold_probability(matrices.builtin(name), 1.0) == 0.5,
            f"P(1) = 1/2 exactly for {name}",
        )
    s_exp = optimize.expectation_entropy(u)
    p_tot = fusion.total_relevant_probability(u)
    c.check(s_exp <= p_tot + 1e-12, "<S> <= p_total")

    # the deterministic-success family: block structure, zero entropy
    base = matrices.builtin("blockpair")
    for _ in range(min(max(trials // 10, 5), 50)):
        # four Haar-random 2x2 unitaries, placed as two block-diagonal pairs
        re, im = rng.normal(size=(2, 4, 2, 2))
        blocks = matrices._gram_schmidt((re + 1j * im).transpose(1, 2, 0)).transpose(2, 0, 1)
        left, right = np.zeros((2, 4, 4), dtype=complex)
        left[:2, :2], left[2:, 2:], right[:2, :2], right[2:, 2:] = blocks
        um = left @ base @ right
        c.check(
            abs(fusion.total_relevant_probability(um) - 1.0) <= 1e-12,
            "block family has p_total = 1",
        )
        s = entanglement.entropies_from_matrix(um)
        p = fusion.relevant_probabilities(um)
        c.check(np.all(s[p > 1e-9] <= 1e-9), "p_total = 1 forces S = 0")
    return c


@_suite("optimizer_determinism")
def _suite_optimizer_determinism(rng, trials, fault):
    c = _Counter()
    cfg = optimize.OptimizerConfig(
        restarts=2, init_samples=8, iterations=12, master_seed=int(rng.integers(2**31))
    )
    for obj in (
        optimize.ExpectationEntropy(0.75),
        optimize.ThresholdProbability(0.5),
    ):
        r1 = optimize.optimize(obj, cfg)
        r2 = optimize.optimize(obj, cfg)
        c.check(np.array_equal(r1.best_matrix, r2.best_matrix), "same best matrix")
        c.check(r1.hard_value == r2.hard_value, "same hard value")
        c.check(r1.trace == r2.trace, "same trace")
    return c


# ---------------------------------------------------------------------------
# oracle suites


@_suite("bosonic_equivalence")
def _suite_bosonic_equivalence(rng, trials, fault):
    c = _Counter()
    for _ in range(min(max(trials, 20), 300)):
        u = matrices.haar_sample(rng)
        analytic = fusion.outcome_table(u)
        bosonic = oracle.bosonic_outcome_table(u)
        for oa, ob in zip(analytic.outcomes, bosonic.outcomes):
            c.check(
                abs(oa.probability - ob.probability) <= 1e-12,
                "bosonic probability matches",
            )
            if oa.probability > 1e-12:
                c.check(
                    np.abs(np.array(oa.raw) - np.array(ob.raw)).max() <= 1e-12,
                    "bosonic coefficients match",
                )
    return c


@_suite("graph_oracle")
def _suite_graph_oracle(rng, trials, fault):
    c = _Counter()
    for _ in range(min(max(trials, 10), 100)):
        g = oracle.random_graph_spec(rng, int(rng.integers(2, 9)))
        state = oracle.build_graph_state(g)
        c.check(oracle.check_stabilizers(state, g), "graph state eigen-equations")

    # each scenario draws from its own seeded generator
    for k in range(min(max(trials // 10, 5), 40)):
        size_l, size_r = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        seed = int(rng.integers(2**31))
        sub = np.random.default_rng(seed)
        sc = oracle.random_scenario(sub, n_left=size_l, n_right=size_r)
        if k % 3 == 0:
            u = matrices.builtin(("pbs2", "theorem7")[seed % 2])
        else:
            u = matrices.haar_sample(sub)
        rep = oracle.compare_scenario(sc, u)
        c.check(rep["pass"], "projector weight / entropy / classification")
    return c


SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_suites(
    trials: int = 1000,
    seed: int = 0,
    inject_fault: str | None = None,
    names=None,
) -> list[SuiteResult]:
    """Run the property suites and return one SuiteResult per suite.

    `trials` scales each suite's sample counts (heavier suites cap their own
    effort).  Deterministic per (trials, seed).  `names` restricts the run to
    a subset; `inject_fault` corrupts the channel-invariant computation to
    prove failures are detected.
    """
    trials, seed = matrices._count(trials, "trials"), matrices._count(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wanted = set(SUITE_NAMES if names is None else names)
    unknown = wanted - set(SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown suite names: {sorted(unknown)}")
    results = []
    for idx, (name, fn) in enumerate(_SUITES):
        if name not in wanted:
            continue
        rng = np.random.default_rng([seed, idx])
        fault = inject_fault is not None and name == "channel_invariants"
        counter = fn(rng, trials, fault)
        results.append(counter.result(name))
    return results
