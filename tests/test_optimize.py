import numpy as np
import pytest

from fusionlab import entanglement, fusion, matrices, optimize as opt
from fusionlab.optimize import (
    BASELINE,
    ExpectationEntropy,
    OptimizerConfig,
    ThresholdProbability,
    cost_expectation,
    cost_threshold,
    expectation_entropy,
    random_scatter,
    sweep,
    threshold_probability,
)


TINY = OptimizerConfig(restarts=2, init_samples=4, iterations=30, master_seed=7)
SMALL = OptimizerConfig(restarts=3, init_samples=16, iterations=60, master_seed=1)


# ---------------------------------------------------------------------------
# objective functions


def test_expectation_entropy_landmarks():
    assert expectation_entropy(matrices.builtin("pbs2")) == pytest.approx(0.5, abs=1e-12)
    assert expectation_entropy(matrices.builtin("theorem7")) == pytest.approx(0.5, abs=1e-12)
    assert expectation_entropy(matrices.builtin("identity")) == pytest.approx(0.0, abs=1e-12)
    assert expectation_entropy(matrices.builtin("blockpair")) == pytest.approx(0.0, abs=1e-9)


def test_threshold_probability_landmarks():
    pbs2 = matrices.builtin("pbs2")
    # four maximally entangled outcomes at 1/8 each
    assert threshold_probability(pbs2, 1.0) == 0.5
    assert threshold_probability(pbs2, 0.3) == 0.5
    # at s = 0 every outcome counts, including the same-channel ones
    assert threshold_probability(pbs2, 0.0) == 1.0
    ident = matrices.builtin("identity")
    assert threshold_probability(ident, 0.5) == 0.0
    assert threshold_probability(ident, 0.0) == 1.0
    assert threshold_probability(matrices.builtin("blockpair"), 1e-6) == pytest.approx(
        0.0, abs=1e-12
    )


def test_threshold_probability_batch():
    mats = np.stack([matrices.builtin("pbs2"), matrices.builtin("identity")])
    out = threshold_probability(mats, 0.9)
    assert out.shape == (2,)
    assert out == pytest.approx([0.5, 0.0], abs=1e-12)


def test_cost_expectation_value():
    pbs2 = matrices.builtin("pbs2")
    # on-target: cost = baseline - <S>
    assert cost_expectation(pbs2, 0.5) == pytest.approx(BASELINE - 0.5, abs=1e-12)
    # off-target: quadratic penalty alpha (p - p_target)^2
    assert cost_expectation(pbs2, 0.6, alpha=3.0) == pytest.approx(
        3.0 * 0.01 + BASELINE - 0.5, abs=1e-12
    )


def test_cost_threshold_value():
    # at tau -> 0 the logistic sits at 1/2 exactly on the knife edge
    assert cost_threshold(matrices.builtin("pbs2"), 1.0, 1e-6) == pytest.approx(
        -0.25, abs=1e-15
    )
    with pytest.raises(ValueError):
        cost_threshold(matrices.builtin("pbs2"), 1.0, 0.0)


def test_objective_validation():
    with pytest.raises(ValueError):
        ExpectationEntropy(p_target=0.4)
    with pytest.raises(ValueError):
        ExpectationEntropy(p_target=1.2)
    with pytest.raises(ValueError):
        ThresholdProbability(s_target_bits=-0.1)
    with pytest.raises(ValueError):
        ThresholdProbability(s_target_bits=1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(step=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(anneal_schedule=())


def test_optimize_rejects_unknown_objective():
    with pytest.raises(TypeError):
        opt.optimize(object(), TINY)


# ---------------------------------------------------------------------------
# descent runs (tiny configurations keep these fast)


def test_determinism():
    obj = ThresholdProbability(s_target_bits=0.7)
    a = opt.optimize(obj, TINY)
    b = opt.optimize(obj, TINY)
    assert np.array_equal(a.best_matrix, b.best_matrix)
    assert a.trace == b.trace
    assert a.restart_values == b.restart_values
    assert a.hard_value == b.hard_value


def test_result_bookkeeping():
    res = opt.optimize(ThresholdProbability(s_target_bits=0.4), TINY)
    assert res.kind == "threshold"
    assert res.target == 0.4
    assert res.seed == TINY.master_seed
    assert len(res.trace) == TINY.iterations
    assert len(res.restart_values) == TINY.restarts
    assert res.hard_value == pytest.approx(
        threshold_probability(res.best_matrix, 0.4), abs=1e-12
    )
    # the merged builtin pool bounds the result from below
    assert res.hard_value >= 0.5 - 1e-12


def test_threshold_knife_edge_prefers_exact_builtin():
    """At s = 1 descent lands epsilon below the dyadic edge; the exact
    builtin must win the final ranking."""
    res = opt.optimize(ThresholdProbability(s_target_bits=1.0), SMALL)
    assert res.from_builtin in ("pbs2", "theorem7")
    assert res.hard_value == 0.5
    assert res.states_used == 4
    assert res.p_total == pytest.approx(0.5, abs=1e-12)


def test_threshold_at_zero_is_certain():
    res = opt.optimize(ThresholdProbability(s_target_bits=0.0), TINY)
    assert res.hard_value == 1.0


def test_expectation_knife_edge_prefers_exact_builtin():
    res = opt.optimize(ExpectationEntropy(p_target=0.5), SMALL)
    assert res.from_builtin in ("pbs2", "theorem7")
    assert res.hard_value == pytest.approx(0.5, abs=1e-12)
    assert res.feasible
    assert res.p_total == pytest.approx(0.5, abs=1e-12)


def test_expectation_feasibility_band():
    res = opt.optimize(ExpectationEntropy(p_target=0.75), SMALL)
    assert res.kind == "expectation"
    if res.feasible:
        assert abs(res.p_total - 0.75) <= opt.FEASIBLE_BAND + 1e-12
    assert res.hard_value == pytest.approx(
        expectation_entropy(res.best_matrix), abs=1e-12
    )


def test_warm_start_accepted_and_deterministic():
    warm = np.stack([matrices.params_from_matrix(matrices.builtin("pbs2"))])
    obj = ThresholdProbability(s_target_bits=0.9)
    a = opt.optimize(obj, TINY, warm_start=warm)
    b = opt.optimize(obj, TINY, warm_start=warm)
    assert np.array_equal(a.best_matrix, b.best_matrix)
    assert a.hard_value >= 0.5 - 1e-12


# ---------------------------------------------------------------------------
# sweeps and the random landscape


def test_sweep_validates_kind():
    with pytest.raises(ValueError):
        sweep("entropy", [0.5], TINY)


def test_threshold_sweep_monotone_and_ordered():
    targets = [0.5, 1.0, 0.0]  # deliberately unsorted
    rows = sweep("threshold", targets, TINY)
    assert [r["target"] for r in rows] == targets
    by_target = {r["target"]: r for r in rows}
    assert by_target[0.0]["hard_value"] == 1.0
    assert (
        by_target[0.0]["hard_value"]
        >= by_target[0.5]["hard_value"]
        >= by_target[1.0]["hard_value"]
    )
    # targets are processed strictest first; seeds step with processing order
    assert by_target[1.0]["seed"] == TINY.master_seed
    assert by_target[0.5]["seed"] == TINY.master_seed + 7919
    assert by_target[0.0]["seed"] == TINY.master_seed + 2 * 7919


def test_sweep_row_schema():
    rows = sweep("expectation", [0.5], TINY)
    row = rows[0]
    assert set(row) == {
        "target",
        "hard_value",
        "mean_value",
        "states_used",
        "seed",
        "iterations",
        "p_total",
        "feasible",
        "result",
    }
    assert row["iterations"] == TINY.iterations
    assert row["mean_value"] == pytest.approx(
        np.mean(row["result"].restart_values), abs=1e-12
    )


def test_random_scatter_expectation():
    rows, summary = random_scatter(64, seed=3)
    assert len(rows) == 64
    p = np.array([r[0] for r in rows])
    s = np.array([r[1] for r in rows])
    assert np.all(p >= 0.5 - 1e-12) and np.all(p <= 1.0 + 1e-12)
    assert np.all(s >= -1e-12) and np.all(s <= 1.0 + 1e-12)
    assert summary["n"] == 64
    assert summary["S_exp_mean"] == pytest.approx(np.mean(s), abs=1e-12)
    assert summary["p_total_std"] == pytest.approx(np.std(p), abs=1e-12)


def test_random_scatter_threshold():
    rows, summary = random_scatter(16, seed=5, mode="threshold", s_targets=[0.2, 0.8])
    assert len(rows) == 32
    stats = summary["targets"]
    assert set(stats) == {0.2, 0.8}
    p02 = [v for (s, v) in rows if s == 0.2]
    assert stats[0.2]["P_max"] == pytest.approx(max(p02), abs=1e-12)
    # tighter thresholds admit at most the looser ones' probability
    assert stats[0.8]["P_mean"] <= stats[0.2]["P_mean"] + 1e-12


def test_random_scatter_validation():
    with pytest.raises(ValueError):
        random_scatter(0, seed=1)
    with pytest.raises(ValueError):
        random_scatter(4, seed=1, mode="scan")


def test_random_scatter_matches_direct_evaluation():
    rows, _ = random_scatter(8, seed=11)
    u = matrices.haar_sample(np.random.default_rng(11), size=8)
    assert rows[0][1] == pytest.approx(expectation_entropy(u[0]), abs=1e-12)
    assert rows[0][0] == pytest.approx(fusion.total_relevant_probability(u[0]), abs=1e-12)


# ---------------------------------------------------------------------------
# exact gradients against finite differences (the reference lives here only)

FD_FLOOR = 1e-9  # gradient size below which differences resolve only rounding noise
FD_STEPS = 10.0 ** -np.arange(2.0, 8.0)
NEAR_BUILTIN = {"pbs2": 1e-2, "blockpair": 1e-1}  # offsets with a usable FD reference


def _fd_grad(f, theta, h):
    """Fourth-order central differences of f along each of the 16 parameters."""
    g = np.empty(theta.shape)
    for k in range(16):
        e = np.zeros(16)
        e[k] = h
        near = f(theta + e) - f(theta - e)
        far = f(theta + 2 * e) - f(theta - 2 * e)
        g[..., k] = (8.0 * near - far) / (12.0 * h)
    return g


def _assert_matches_fd(grad, f, theta):
    """Compare with finite differences wherever they are well conditioned.

    Differences are taken on a ladder of steps; at each point the two
    neighbouring steps that agree best give the reference, which counts as
    well conditioned when they agree to 1e-8 of the gradient's size.  There
    the gradient must agree to 1e-6.  Returns the mask of conditioned points.
    """
    fds = np.stack([_fd_grad(f, theta, h) for h in FD_STEPS])
    gaps = np.abs(fds[1:] - fds[:-1]).max(axis=-1)
    best = np.argmin(gaps, axis=0)
    pts = np.arange(len(theta))
    ref = fds[best + 1, pts]
    scale = np.maximum(np.abs(ref).max(axis=-1), FD_FLOOR)
    conditioned = gaps[best, pts] <= 1e-8 * scale
    err = np.abs(grad - ref).max(axis=-1) / scale
    assert np.all(err[conditioned] <= 1e-6), err[conditioned]
    return conditioned


def _gradient_points(group):
    rng = np.random.default_rng(2024)
    if group == "random":
        return matrices.random_params(rng, size=6)
    base = matrices.params_from_matrix(matrices.builtin(group))
    return base + NEAR_BUILTIN[group] * rng.normal(size=(4, 16))


def _smooth_threshold(theta, s_target, tau):
    u = matrices.from_params(theta)
    p, s = opt._p_and_s(u)
    out = np.sum(p * opt._logistic((s - s_target) / tau), axis=-1)
    if s_target <= 0.0:
        out = out + opt._logistic(-s_target / tau) * np.sum(fusion.diag_probabilities(u), axis=-1)
    return out


def _assert_covered(masks, group):
    """Random points must nearly all be conditioned; near a builtin some must."""
    share = np.mean(masks)
    assert share >= (0.9 if group == "random" else 0.25), share


@pytest.mark.parametrize("group", ["random", "pbs2", "blockpair"])
def test_expectation_gradient_matches_finite_differences(group):
    theta = _gradient_points(group)
    g_S, g_p = opt._expectation_grads(opt._tangents(theta))
    masks = [
        _assert_matches_fd(g_S, lambda x: opt._S_exp_p_total(matrices.from_params(x))[0], theta),
        _assert_matches_fd(g_p, lambda x: opt._S_exp_p_total(matrices.from_params(x))[1], theta),
    ]
    _assert_covered(masks, group)


@pytest.mark.parametrize("group", ["random", "pbs2", "blockpair"])
@pytest.mark.parametrize("s_target", [0.0, 0.5, 1.0])
def test_threshold_gradient_matches_finite_differences(group, s_target):
    theta = _gradient_points(group)
    t = opt._tangents(theta, diag=s_target <= 0.0)
    masks = [
        _assert_matches_fd(
            opt._threshold_grad(t, s_target, tau),
            lambda x: _smooth_threshold(x, s_target, tau),
            theta,
        )
        for tau in OptimizerConfig().anneal_schedule
    ]
    _assert_covered(masks, group)


@pytest.mark.parametrize("name", sorted(NEAR_BUILTIN))
def test_outcome_derivatives_near_builtins(name):
    """Per-outcome dp and dS next to pbs2 (det -> 1/4 on its four live
    outcomes) and blockpair (det -> 0 with p_total -> 1)."""
    theta = _gradient_points(name)
    t = opt._tangents(theta)
    live = t.p > 0.1  # the outcomes that fire at the builtin itself
    masks = []
    for j in range(6):
        def p_j(x):
            return opt._p_and_s(matrices.from_params(x))[0][..., j]

        def s_j(x):
            return opt._p_and_s(matrices.from_params(x))[1][..., j]

        ok_p = _assert_matches_fd(t.dp[..., j], p_j, theta)
        ok_s = _assert_matches_fd(t.pds[..., j] / t.p[:, None, j], s_j, theta)
        masks += [ok_p[live[:, j]], ok_s[live[:, j]]]
    assert np.mean(np.concatenate(masks)) >= 0.75


def test_gradients_finite_at_builtins():
    """Exact builtins sit on p = 0 outcomes, det in {0, 1/4} and repeated
    generator eigenvalues (identity: H = 0); every gradient stays finite."""
    theta = np.stack([matrices.params_from_matrix(matrices.builtin(nm)) for nm in matrices.BUILTIN_NAMES])
    t = opt._tangents(theta, diag=True)
    assert set(t.p[matrices.BUILTIN_NAMES.index("identity")]) == {0.0, 0.25}
    grads = list(opt._expectation_grads(t))
    for s_target in (0.0, 0.5, 1.0):
        grads += [opt._threshold_grad(t, s_target, tau) for tau in OptimizerConfig().anneal_schedule]
    for g in grads:
        assert g.shape == (len(theta), 16)
        assert np.all(np.isfinite(g))


def test_entropy_slope():
    """dS/ddet against the independent form 2 artanh(r) / (r ln 2),
    r = sqrt(1 - 4 det), on both sides of the series switch at r = 1e-4,
    with a finite value at det = 0 and the limit 2 / ln 2 at det = 1/4."""
    det = np.array([1e-6, 0.01, 0.1, 0.2, 0.249, 0.25 - 1e-6, 0.25 - 5e-9, 0.25 - 1e-9])
    r = np.sqrt(1.0 - 4.0 * det)
    assert r[-2] > 1e-4 > r[-1]
    expected = 2.0 * np.arctanh(r) / (r * np.log(2.0))
    assert entanglement._entropy_slope(det) == pytest.approx(expected, rel=1e-9)
    edges = entanglement._entropy_slope(np.array([0.0, 0.25]))
    assert np.all(np.isfinite(edges))
    assert edges[1] == 2.0 / np.log(2.0)
