import dataclasses
import warnings

import numpy as np
import pytest

from fusionlab import entanglement, fusion, matrices, optimize as opt
from fusionlab.optimize import (
    ExpectationEntropy,
    OptimizerConfig,
    ThresholdProbability,
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


def test_objective_validation():
    with pytest.raises(ValueError):
        ExpectationEntropy(p_target=0.4)
    with pytest.raises(ValueError):
        ExpectationEntropy(p_target=1.2)
    for p_target in ("x", None, 0.7j):
        with pytest.raises(matrices.MalformedInputError, match="p_target"):
            ExpectationEntropy(p_target)
    for s_target in ("x", None, 0.5j):
        with pytest.raises(matrices.MalformedInputError, match="s_target"):
            ThresholdProbability(s_target)
    for s_target in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            ThresholdProbability(s_target_bits=s_target)
    for s_target in (np.nan, 2.0, -1.0):
        with pytest.raises(ValueError):
            threshold_probability(matrices.builtin("pbs2"), s_target)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(iterations=0)
    for step in (0.0, np.nan, np.inf, "x", None):
        with pytest.raises(ValueError):
            OptimizerConfig(step=step)


@pytest.mark.parametrize("field", ["restarts", "init_samples", "iterations", "master_seed"])
@pytest.mark.parametrize("value", [2.5, "x", -1, True])
def test_config_integer_fields_are_checked(field, value):
    with pytest.raises(matrices.MalformedInputError, match=field):
        OptimizerConfig(**{field: value})


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
    # a huge step once crashed the descent, and later overflowed its velocity
    for step in (TINY.step, 1e308):
        cfg = dataclasses.replace(TINY, step=step)
        res = opt.optimize(ThresholdProbability(s_target_bits=0.4), cfg)
        assert res.kind == "threshold"
        assert res.target == 0.4
        assert res.seed == TINY.master_seed
        assert len(res.trace) == TINY.iterations
        assert len(res.restart_values) == TINY.restarts
        assert np.isfinite(res.hard_value) and res.feasible
        assert res.hard_value == pytest.approx(
            threshold_probability(res.best_matrix, 0.4), abs=1e-12
        )
        # the merged builtin pool bounds the result from below
        assert res.hard_value >= 0.5 - 1e-12


def test_descent_stays_on_orthonormal_rows(monkeypatch):
    """Every final point of both descent rounds has orthonormal rows, and
    every winner, completed to 4 x 4, is unitary; also after a step so
    large that Gram-Schmidt would lose the rows to rounding."""
    finals = []
    run = opt._run

    def spy(*args):
        points, trace = run(*args)
        finals.append(points)
        return points, trace

    monkeypatch.setattr(opt, "_run", spy)
    results = [
        opt.optimize(ExpectationEntropy(p_target=0.8)),
        opt.optimize(ThresholdProbability(s_target_bits=0.6)),
    ]
    results += [row["result"] for row in sweep("expectation", [0.6, 0.9], SMALL)]
    huge = dataclasses.replace(SMALL, step=1e154)
    results += [row["result"] for row in sweep("expectation", [0.5, 0.75], huge)]
    assert len(finals) == 6  # each sweep's round 1 and its hand-off round
    for r in finals:
        gram = np.einsum("ain,bin->nab", r, r.conj())
        assert np.abs(gram - np.eye(2)).max() <= 1e-14
    for res in results:
        u = matrices.validate_unitary(res.best_matrix)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("objective, target", [(ExpectationEntropy, 0.8), (ThresholdProbability, 0.6)])
def test_run_at_huge_step_keeps_rows_orthonormal(monkeypatch, objective, target):
    """The step cap bounds each entry of step * G by RETRACT_MAX, and
    momentum with a tangent projection, which never lengthens, keeps the
    velocity within a few tens of RETRACT_MAX.  So at step 1e308, for 250
    iterations, r + vel reaches beyond RETRACT_MAX, yet every retraction
    stays orthonormal to 1e-14, the trace stays finite, and numpy warns of
    nothing."""
    points, worst = [], []
    retract = matrices._gram_schmidt

    def spy(y, done=None):
        q = retract(y, done)
        points.append(np.abs(y).max())
        gram = np.einsum("ain,bin->nab", q, q.conj())
        worst.append(np.abs(gram - np.eye(2)).max())
        return q

    r = np.empty((2, 4, 8), dtype=complex)
    for block, q in matrices._haar_rows(np.random.default_rng(5), 8):
        r[..., block] = q
    monkeypatch.setattr(matrices, "_gram_schmidt", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        finals, trace = opt._run(objective, r, np.full(8, target), 250, 1e308)
    assert len(worst) == 250
    assert max(points) > opt.RETRACT_MAX
    assert max(worst) <= 1e-14
    assert trace.shape == (250, 8) and np.all(np.isfinite(trace))
    gram = np.einsum("ain,bin->nab", finals, finals.conj())
    assert np.abs(gram - np.eye(2)).max() <= 1e-14


def test_states_used_counts_the_winner():
    """states_used, counted from the final exchange, equals a direct count
    on best_matrix: outcomes with p > STATES_P_FLOOR and S at least the
    objective's floor, for a builtin winner and for descent winners."""
    results = [opt.optimize(ThresholdProbability(s_target_bits=1.0), SMALL)]
    results += [opt.optimize(ThresholdProbability(s_target_bits=0.6), SMALL)]
    results += [row["result"] for row in sweep("expectation", [0.7, 0.85], SMALL)]
    assert results[0].from_builtin is not None
    assert all(res.from_builtin is None for res in results[1:])
    for res in results:
        p = fusion.relevant_probabilities(res.best_matrix)
        s = entanglement.entropies_from_matrix(res.best_matrix)
        floor = res.target if res.kind == "threshold" else ExpectationEntropy._s_floor
        assert res.states_used == np.count_nonzero((p > opt.STATES_P_FLOOR) & (s >= floor - 1e-9))


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


def _pool_starts(cfg, p_target):
    """Each restart's start point: its best pool draw under the score
    <S> - L1_BETA |p_total - p_target|.  The pool is rows 1-2 of Haar
    matrices, the first stage of `haar_sample` at the master seed."""
    u = matrices.haar_sample(cfg.master_seed, size=cfg.restarts * cfg.init_samples)
    u = u.reshape(cfg.restarts, cfg.init_samples, 4, 4)
    s, p = expectation_entropy(u), fusion.total_relevant_probability(u)
    win = np.argmax(s - opt.L1_BETA * np.abs(p - p_target), axis=1)
    return u[np.arange(cfg.restarts), win]


@pytest.mark.parametrize("p_target", [0.75, 0.9])
def test_expectation_infeasible_fallback(p_target):
    """No candidate reaches the band: the one closest to the target wins (a
    descent point at 0.75, blockpair at 0.9), and the trace is that of the
    restart whose candidate lies closest.  With one iteration a restart's
    candidates are its start point and the endpoint of one exact-penalty
    step from it (the velocity starts at zero): the tangent part of minus
    the gradient, retracted onto orthonormal rows by Gram-Schmidt."""
    cfg = OptimizerConfig(restarts=3, init_samples=4, iterations=1, master_seed=3)
    res = opt.optimize(ExpectationEntropy(p_target=p_target), cfg)
    r = fusion._rows(_pool_starts(cfg, p_target))
    s_w, gap_w, out = opt._evaluate(ExpectationEntropy, r, p_target)
    grad = opt._pullback(r, out, *ExpectationEntropy._weights(out, gap_w, p_target))
    end = matrices._gram_schmidt(r + opt._tangent(r, -cfg.step * grad))
    gap_e = opt._evaluate(ExpectationEntropy, end, p_target)[1]
    p_b = fusion.total_relevant_probability(
        np.stack([matrices.builtin(nm) for nm in matrices.BUILTIN_NAMES])
    )
    p_all = np.concatenate([p_b, p_target + gap_w, p_target + gap_e])
    assert np.all(np.abs(p_all - p_target) > opt.FEASIBLE_BAND)
    assert not res.feasible
    assert res.p_total == pytest.approx(p_all[np.argmin(np.abs(p_all - p_target))], abs=1e-12)
    assert res.hard_value == pytest.approx(expectation_entropy(res.best_matrix), abs=1e-12)
    assert res.from_builtin == (None if p_target == 0.75 else "blockpair")
    closest = np.argmin(np.minimum(np.abs(gap_w), np.abs(gap_e)))
    assert res.trace[0] == pytest.approx(s_w[closest], abs=1e-12)


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


def _result_key(res):
    return (
        res.best_matrix.tobytes(),
        res.hard_value,
        res.restart_values,
        res.p_total,
        res.from_builtin,
    )


@pytest.mark.parametrize(
    "kind, objective",
    [("expectation", ExpectationEntropy(p_target=0.7)), ("threshold", ThresholdProbability(0.6))],
)
def test_one_target_sweep_is_optimize(kind, objective):
    (row,) = sweep(kind, [objective._target], SMALL)
    assert _result_key(row["result"]) == _result_key(opt.optimize(objective, SMALL))
    assert row["seed"] == SMALL.master_seed


@pytest.mark.parametrize(
    "kind, targets",
    [
        ("expectation", [0.55, 0.5, 0.553, 1.0, 0.547, 0.556]),  # 0.547-0.556 share winners
        ("threshold", [0.6, 0.0, 1.0, 0.3, 0.8, 0.45]),
    ],
)
def test_sweep_exchange_ranks_every_winner(kind, targets):
    """No row's winner is beaten at that row's target by another row's
    winner that is feasible there (an exact builtin may trail by 1e-9);
    every row carries the master seed and its own restarts' results."""
    rows = sweep(kind, targets, TINY)
    assert [r["target"] for r in rows] == targets
    score = {"expectation": ExpectationEntropy, "threshold": ThresholdProbability}[kind]._score
    mats = np.stack([r["result"].best_matrix for r in rows])
    out = fusion._outcomes(fusion._rows(mats))
    shared = 0
    for r in rows:
        value, gap = np.broadcast_arrays(*score(out, r["target"]))
        feasible = np.abs(gap) <= opt.FEASIBLE_BAND
        shared += np.sum(feasible) > 1
        if feasible.any():
            assert r["feasible"]
            assert r["hard_value"] >= np.max(value[feasible]) - 1e-9
        assert r["seed"] == TINY.master_seed
        assert len(r["result"].restart_values) == TINY.restarts
        assert len(r["result"].trace) == TINY.iterations
    assert shared >= 3  # the check compares across targets, not only a row with itself


@pytest.mark.parametrize("objective", [ExpectationEntropy, ThresholdProbability])
def test_mixed_target_scoring_matches_single_targets(objective):
    """Scoring one batch at per-row targets equals scoring each row alone."""
    rng = np.random.default_rng(5)
    u = np.concatenate(
        [matrices.haar_sample(rng, size=6), [matrices.builtin(nm) for nm in ("pbs2", "blockpair")]]
    )
    targets = np.array([0.5, 0.0, 1.0, 0.7, 0.55, 0.9, 0.0, 0.5])
    if objective is ExpectationEntropy:
        targets = 0.5 + targets / 2
    value, gap = objective._score(fusion._outcomes(fusion._rows(u)), targets)
    for k, t in enumerate(targets):
        v_k, g_k = objective._score(fusion._outcomes(fusion._rows(u[k : k + 1])), t)
        assert value[k] == v_k[0] and gap[k] == g_k[0]


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


def test_random_scatter_validation(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the arguments")

    # every argument is checked before any matrix is drawn
    monkeypatch.setattr(opt.matrices, "_haar_rows", no_sampling)
    for n in (0, -1, 2.5, True, "4"):
        with pytest.raises(ValueError):
            random_scatter(n, seed=1)
    for seed in (1.5, "x", -1, True):
        with pytest.raises(matrices.MalformedInputError, match="seed"):
            random_scatter(4, seed)
    with pytest.raises(ValueError):
        random_scatter(4, seed=1, mode="scan")
    for s_target in (np.nan, 2.0, -1.0):
        with pytest.raises(ValueError):
            random_scatter(4, seed=1, mode="threshold", s_targets=[0.5, s_target])
    with pytest.raises(ValueError, match="threshold-mode"):
        random_scatter(4, seed=1, mode="expectation", s_targets=[0.5])


@pytest.mark.parametrize("mode", ["expectation", "threshold"])
def test_random_scatter_blocks_match_whole_batch(mode):
    """Scoring block by block agrees with scoring the whole batch at once."""
    n, seed, targets = 2 * matrices._BLOCK + 452, 13, [0.0, 0.5, 1.0]
    assert n % matrices._BLOCK
    u = matrices.haar_sample(np.random.default_rng(seed), size=n)
    if mode == "expectation":
        rows, summary = random_scatter(n, seed)
        got = np.array(rows)
        # the scatter's p_total is the sum of p_ij, not the closed form (1 + sum n^2) / 2
        p_total = np.sum(fusion.relevant_probabilities(u), axis=-1)
        want = np.stack([p_total, expectation_entropy(u)], axis=-1)
        assert summary["n"] == n and summary["S_exp_mean"] == np.mean(want[:, 1])
    else:
        rows, summary = random_scatter(n, seed, mode="threshold", s_targets=targets)
        got = np.array(rows).reshape(len(targets), n, 2)
        want = np.stack(
            [np.stack([np.full(n, t), threshold_probability(u, t)], axis=-1) for t in targets]
        )
        assert list(summary["targets"]) == targets
    assert rows.dtype == np.float64 and rows.shape == (want.size // 2, 2)
    np.testing.assert_array_equal(got, want)


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


def _fd_grad(f, u, h):
    """Fourth-order central differences of f along the 16 curves
    U exp(i t E_k) = U @ from_params(t e_k) through each point U."""
    g = np.empty(u.shape[:-2] + (16,))
    for k in range(16):
        e = np.zeros(16)
        e[k] = h

        def at(t):
            return f(u @ matrices.from_params(t * e))

        g[..., k] = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
    return g


def _assert_matches_fd(grad, f, u):
    """Compare with finite differences wherever they are well conditioned.

    Differences are taken on a ladder of steps; at each point the two
    neighbouring steps that agree best give the reference, which counts as
    well conditioned when they agree to 1e-8 of the gradient's size.  There
    the gradient must agree to 1e-6.  Returns the mask of conditioned points.
    """
    fds = np.stack([_fd_grad(f, u, h) for h in FD_STEPS])
    gaps = np.abs(fds[1:] - fds[:-1]).max(axis=-1)
    best = np.argmin(gaps, axis=0)
    pts = np.arange(len(u))
    ref = fds[best + 1, pts]
    scale = np.maximum(np.abs(ref).max(axis=-1), FD_FLOOR)
    conditioned = gaps[best, pts] <= 1e-8 * scale
    err = np.abs(grad - ref).max(axis=-1) / scale
    assert np.all(err[conditioned] <= 1e-6), err[conditioned]
    return conditioned


def _gradient_points(group):
    rng = np.random.default_rng(2024)
    if group == "random":
        return matrices.from_params(rng.uniform(-np.pi, np.pi, (6, 16)))
    base = matrices.params_from_matrix(matrices.builtin(group))
    return matrices.from_params(base + NEAR_BUILTIN[group] * rng.normal(size=(4, 16)))


def _threshold_penalty(u, s_target, diag=True):
    """gamma (-p_total - [s <= 0] p_diag + sum_k max(0, s - S_k)), from the
    public per-matrix functions; without the p_diag term if not diag."""
    p = fusion.relevant_probabilities(u)
    s = entanglement.entropies_from_matrix(u)
    out = -np.sum(p, axis=-1) + np.sum(np.maximum(s_target - s, 0.0), axis=-1)
    if diag and s_target <= 0.0:
        out = out - np.sum(fusion.diag_probabilities(u), axis=-1)
    return opt.PENALTY_GAMMA * out


def _assert_covered(masks, group):
    """Random points must nearly all be conditioned; near a builtin some must."""
    share = np.mean(masks)
    assert share >= (0.9 if group == "random" else 0.25), share


def _generators():
    """The Hermitian E_k with from_params(t e_k) = exp(i t E_k): the
    diagonal, then the real and imaginary parts of the strict upper triangle."""
    e = np.zeros((16, 4, 4), dtype=complex)
    e[range(4), range(4), range(4)] = 1.0
    for k, (x, y) in enumerate(zip(*np.triu_indices(4, k=1))):
        e[4 + 2 * k, x, y] = e[4 + 2 * k, y, x] = 1.0
        e[5 + 2 * k, x, y], e[5 + 2 * k, y, x] = 1j, -1j
    return e


def _grad_at(u, weights):
    """The engine's gradient G with respect to rows 1-2, R, at the points u,
    with batch-last weights(out) -> (a, b[, c]) of the kernel output, along the 16 curves of
    `_fd_grad`: Re tr(G^H R i E_k), (points, 16)."""
    r = fusion._rows(u)
    out = fusion._outcomes(r)
    g = opt._pullback(r, out, *weights(out)).transpose(2, 0, 1)
    dr = 1j * u[:, None, :2, :] @ _generators()
    return np.sum(g[:, None].conj() * dr, axis=(-2, -1)).real


@pytest.mark.parametrize("group", ["random", "pbs2", "blockpair"])
def test_expectation_gradient_matches_finite_differences(group):
    u = _gradient_points(group)
    g_S = _grad_at(u, lambda out: (out.s, 1.0))
    g_p = _grad_at(u, lambda out: (np.ones_like(out.s), 0.0))

    def score(x):  # at target 0, the gap is p_total itself
        return opt._evaluate(ExpectationEntropy, fusion._rows(x), 0.0)

    masks = [
        _assert_matches_fd(g_S, lambda x: score(x)[0], u),
        _assert_matches_fd(g_p, lambda x: score(x)[1], u),
    ]
    _assert_covered(masks, group)


@pytest.mark.parametrize("group", ["random", "pbs2", "blockpair"])
@pytest.mark.parametrize("s_target", [0.0, 0.5, 1.0])
def test_threshold_gradient_matches_finite_differences(group, s_target):
    """The exact-penalty weights pull back to the penalty's gradient, away
    from its kinks at S_k = s.  At s = 0 all ten outcomes count, so the
    penalty is the constant -gamma: there its gradient must cancel, and the
    p_total part alone is checked against differences."""
    u = _gradient_points(group)
    grad = _grad_at(u, lambda out: ThresholdProbability._weights(out, None, s_target))
    diag = s_target > 0.0
    if not diag:
        assert np.abs(grad).max() <= 1e-12
        grad = _grad_at(u, lambda out: ThresholdProbability._weights(out, None, s_target)[:2])
    mask = _assert_matches_fd(grad, lambda x: _threshold_penalty(x, s_target, diag), u)
    _assert_covered([mask], group)


@pytest.mark.parametrize("name", sorted(NEAR_BUILTIN))
def test_outcome_derivatives_near_builtins(name):
    """Per-outcome dp and dS next to pbs2 (det -> 1/4 on its four live
    outcomes) and blockpair (det -> 0 with p_total -> 1), each from one-hot
    weights: a = e_j gives dp_j, b = e_j gives p_j dS_j."""
    u = _gradient_points(name)
    p = fusion.relevant_probabilities(u)
    live = p > 0.1  # the outcomes that fire at the builtin itself
    masks = []
    for j in range(6):
        e_j = np.eye(6)[:, j, None]  # batch last: one column per outcome

        def p_j(x):
            return fusion.relevant_probabilities(x)[..., j]

        def s_j(x):
            return entanglement.entropies_from_matrix(x)[..., j]

        ok_p = _assert_matches_fd(_grad_at(u, lambda out: (e_j, 0.0)), p_j, u)
        pds_j = _grad_at(u, lambda out: (0.0, e_j))
        ok_s = _assert_matches_fd(pds_j / p[:, None, j], s_j, u)
        masks += [ok_p[live[:, j]], ok_s[live[:, j]]]
    assert np.mean(np.concatenate(masks)) >= 0.75


def test_gradients_finite_at_builtins():
    """Exact builtins sit on p = 0 outcomes and det in {0, 1/4}; the
    gradient of both objectives stays finite, with no RuntimeWarning."""
    names = matrices.BUILTIN_NAMES
    r = fusion._rows(np.stack([matrices.builtin(nm) for nm in names]))
    objectives = [ExpectationEntropy(p_target=0.75)]
    objectives += [ThresholdProbability(s_target_bits=s) for s in (0.0, 0.5, 1.0)]
    for obj in objectives:
        target = np.full(len(names), obj._target)
        _, gap, out = opt._evaluate(obj, r, target)
        assert set(out.p[:, names.index("identity")]) == {0.0, 0.25}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = opt._pullback(r, out, *obj._weights(out, gap, target))
        assert g.shape == (2, 4, len(names))
        assert np.all(np.isfinite(g))


def test_pullback_batched_matches_single():
    """A 7-point gradient equals seven 1-point calls; the points include
    builtins with zero-probability outcomes."""
    rng = np.random.default_rng(11)
    builtins = [matrices.builtin(nm) for nm in ("identity", "pbs2")]
    r = fusion._rows(np.concatenate([matrices.haar_sample(rng, size=5), builtins]))
    a, b = rng.normal(size=(2, 6, 7))

    def grad(rows):
        out = fusion._outcomes(r[..., rows])
        return opt._pullback(r[..., rows], out, a[:, rows], b[:, rows], 0.3)

    batched = grad(slice(None))
    single = np.concatenate([grad(slice(k, k + 1)) for k in range(7)], axis=-1)
    assert np.max(np.abs(batched - single)) <= 1e-14 * np.max(np.abs(batched))


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
