"""Optimization of fusion matrices for the two entanglement objectives.

Expectation mode maximizes the probability-weighted entanglement entropy
<S> = sum p_ij S_ij at a pinned total success probability; threshold mode
maximizes P(s) = sum of probabilities of outcomes whose entropy reaches a
target s.  Both run momentum gradient descent in the 16-dimensional exp(iH)
parameterization, restarted from the best of a scored candidate pool; all
restarts advance together as one numpy batch.

Gradients are exact and forward-mode, one eigendecomposition of H per restart
and iteration: the 16 generator directions are pushed through exp(iH) with
the Daleckii-Krein divided-difference formula (Najfeld & Havel, Adv. Appl.
Math. 16, 1995), and the closed forms of p_ij, of the factored determinant
det_ij and of S(det) are differentiated along each direction (`_tangents`).

P(s) is a sum of indicator terms, so its descent runs on a logistic-smoothed
surrogate with the temperature annealed downward; reported values are always
the hard objective, recomputed from the winning matrix.  The probability
constraint in expectation mode starts as the quadratic penalty
alpha (p - p_target)^2 and, for the final two thirds of the iterations,
switches to an exact L1 penalty beta |p - p_target| with beta = 2: the
frontier's slope is about -1, so the quadratic equilibrium undershoots the
target by ~ alpha^-1 step sizes while the L1 penalty pins it.

Known exact optima (the builtin matrices) join the candidate pool of every
run.  They matter at the boundaries: descent approaches the s = 1 optimum
through matrices with determinant 1/4 - O(1e-10) whose entropy rounds below
1, while the builtins sit on the dyadic knife edge exactly.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import entanglement, fusion, matrices
from .fusion import _PI, _PJ

__all__ = [
    "BASELINE",
    "ExpectationEntropy",
    "ThresholdProbability",
    "OptimizerConfig",
    "OptResult",
    "expectation_entropy",
    "threshold_probability",
    "cost_expectation",
    "cost_threshold",
    "optimize",
    "sweep",
    "random_scatter",
]

BASELINE = 2.0          # additive constant keeping the expectation cost positive
FEASIBLE_BAND = 0.005   # |p_total - p_target| accepted as on-target
L1_BETA = 2.0           # exact-penalty weight, > the frontier slope
MOMENTUM = 0.9
STATES_P_FLOOR = 1e-6


@dataclass(frozen=True)
class ExpectationEntropy:
    """Maximize <S> subject to total relevant probability ~ p_target."""

    p_target: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.5 - 1e-12 <= self.p_target <= 1.0 + 1e-12:
            raise ValueError(f"p_target must lie in [0.5, 1], got {self.p_target}")


@dataclass(frozen=True)
class ThresholdProbability:
    """Maximize the total probability of outcomes with S >= s_target."""

    s_target_bits: float
    smoothing_tau: float | None = None  # None: use the config anneal schedule

    def __post_init__(self):
        if not 0.0 <= self.s_target_bits <= 1.0:
            raise ValueError(
                f"s_target must lie in [0, 1] bits, got {self.s_target_bits}"
            )


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    init_samples: int = 100
    iterations: int = 1000
    step: float = 1e-3
    master_seed: int = 0
    anneal_schedule: tuple[float, ...] = (0.1, 0.01, 0.001)

    def __post_init__(self):
        if min(self.restarts, self.init_samples, self.iterations) < 1:
            raise ValueError("restarts, init_samples and iterations must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not self.anneal_schedule:
            raise ValueError("anneal schedule must not be empty")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one optimization run.

    `hard_value` is the unsmoothed objective (<S> or P) recomputed from
    `best_matrix`; `objective_value` is the optimizer-internal cost at the same
    point.  `restart_values` holds each restart's final hard value (builtin
    candidates excluded), `trace` the per-iteration hard value of the winning
    restart.
    """

    best_matrix: np.ndarray
    objective_value: float
    hard_value: float
    trace: tuple[float, ...]
    states_used: int
    restart_values: tuple[float, ...]
    p_total: float
    feasible: bool
    target: float
    kind: str
    seed: int
    from_builtin: str | None = None


# ---------------------------------------------------------------------------
# objectives


def _p_and_s(u: np.ndarray):
    """Relevant probabilities and entropies of a matrix batch, p computed once."""
    p = fusion.relevant_probabilities(u)
    return p, entanglement.entropy_from_det(entanglement._determinants(u, p))


def _diag_total(u: np.ndarray) -> np.ndarray:
    return np.sum(fusion.diag_probabilities(u), axis=-1)


def _hard_threshold(p_rel, s, s_target: float, p_diag=None):
    """P(s) from the relevant outcomes' p and S; the same-channel total
    `p_diag` (S = 0) counts only at s_target <= 0, where it must be given."""
    total = np.sum(np.where(s >= s_target, p_rel, 0.0), axis=-1)
    if s_target <= 0.0:
        total = total + p_diag
    return np.clip(total, 0.0, 1.0)


def _S_exp_p_total(u: np.ndarray):
    """(<S>, p_total) of a matrix batch."""
    p, s = _p_and_s(u)
    return np.sum(p * s, axis=-1), np.sum(p, axis=-1)


def expectation_entropy(matrix):
    """<S> in bits: probability-weighted entropy over the six relevant outcomes."""
    u = np.asarray(matrix, dtype=complex)
    out, _ = _S_exp_p_total(u)
    return float(out) if u.ndim == 2 else out


def threshold_probability(matrix, s_target_bits: float):
    """Total probability of outcomes whose entropy reaches the target.

    All ten outcomes count; the four same-channel product outcomes carry
    S = 0 and therefore enter only at s_target <= 0 (where P = 1).
    """
    u = np.asarray(matrix, dtype=complex)
    p_rel, s = _p_and_s(u)
    p_diag = _diag_total(u) if s_target_bits <= 0.0 else None
    total = _hard_threshold(p_rel, s, s_target_bits, p_diag)
    return float(total) if u.ndim == 2 else total


def cost_expectation(matrix, p_target: float, alpha: float = 1.0):
    u = np.asarray(matrix, dtype=complex)
    gap = fusion.total_relevant_probability(u) - p_target
    out = alpha * gap**2 - expectation_entropy(u) + BASELINE
    return float(out) if u.ndim == 2 else out


def cost_threshold(matrix, s_target_bits: float, tau: float):
    """Logistic-smoothed negative of threshold_probability."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = np.asarray(matrix, dtype=complex)
    p_rel, s = _p_and_s(u)
    p_diag = fusion.diag_probabilities(u)
    sig_rel = _logistic((s - s_target_bits) / tau)
    sig_diag = _logistic((0.0 - s_target_bits) / tau)
    out = -(np.sum(p_rel * sig_rel, axis=-1) + sig_diag * np.sum(p_diag, axis=-1))
    return float(out) if u.ndim == 2 else out


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _states_used(matrix, s_ref: float) -> int:
    p, s = _p_and_s(matrix)
    return int(np.sum((p > STATES_P_FLOOR) & (s >= s_ref - 1e-9)))


# ---------------------------------------------------------------------------
# exact gradients


class _Tangents(NamedTuple):
    """Objective pieces of a restart batch and their 16 partial derivatives.

    p, s: (R, 6) relevant probabilities and entropies, computed exactly as
    the hard objectives compute them; dp: (R, 16, 6) partials of p; pds:
    (R, 16, 6) p times the partials of S, which stays finite as p -> 0;
    p_diag, dp_diag: (R,) same-channel total and (R, 16) its partials, or
    None when not requested.
    """

    p: np.ndarray
    s: np.ndarray
    dp: np.ndarray
    pds: np.ndarray
    p_diag: np.ndarray | None
    dp_diag: np.ndarray | None


def _tangents(theta: np.ndarray, diag: bool = False) -> _Tangents:
    """Forward-mode derivatives of p, S (and the same-channel total) at theta.

    One eigh per restart: `matrices._exp_jvp` gives U and dU_k, and the
    closed forms are differentiated along each dU_k:

      p_ij = 1/8 - n_i n_j / 2 - |o_ij|^2 / 2,  n_i = 1/2 - |U_1i|^2 - |U_2i|^2,
          o_ij = U_1i conj(U_1j) + U_2i conj(U_2j);
      det_ij = |top_ij bot_ij|^2 / (4 p_ij)^2 with top, bot the minors of
          rows (1, 2) and (3, 4), so p d(det) = d|top bot|^2 / (16 p)
          - 2 det dp, zero where p = 0;
      dS = S'(det) d(det) with S' = `entanglement._entropy_slope`;
      sum_i p_ii = 1/2 - sum_i n_i^2 / 2, so its partial is -sum_i n_i dn_i.
    """
    u, du = matrices._exp_jvp(theta)
    p = fusion.relevant_probabilities(u)
    det = entanglement._determinants(u, p)
    s = entanglement.entropy_from_det(det)
    x = u[:, None]  # broadcasts against the direction axis of du
    r12, dr12 = x[..., :2, :], du[..., :2, :]
    n = 0.5 - np.sum(np.abs(r12) ** 2, axis=-2)
    dn = -2.0 * np.sum((r12.conj() * dr12).real, axis=-2)
    o = np.sum(r12[..., _PI] * r12[..., _PJ].conj(), axis=-2)
    do = np.sum(
        dr12[..., _PI] * r12[..., _PJ].conj() + r12[..., _PI] * dr12[..., _PJ].conj(), axis=-2
    )
    dp = -0.5 * (dn[..., _PI] * n[..., _PJ] + n[..., _PI] * dn[..., _PJ]) - (o.conj() * do).real

    minors = entanglement._minors
    rows, drows = [x[..., r, :] for r in range(4)], [du[..., r, :] for r in range(4)]
    top = minors(rows[0], rows[1])
    bot = minors(rows[2], rows[3])
    dtop = minors(drows[0], rows[1]) + minors(rows[0], drows[1])
    dbot = minors(drows[2], rows[3]) + minors(rows[2], drows[3])
    dnum = 2.0 * (
        (top.conj() * dtop).real * np.abs(bot) ** 2
        + np.abs(top) ** 2 * (bot.conj() * dbot).real
    )
    live = (p > 0.0)[:, None]
    det = det[:, None]
    p_ddet = np.where(live, dnum / (16.0 * np.where(live, p[:, None], 1.0)) - 2.0 * det * dp, 0.0)
    pds = entanglement._entropy_slope(det) * p_ddet

    p_diag = dp_diag = None
    if diag:
        p_diag = _diag_total(u)
        dp_diag = -np.sum(n * dn, axis=-1)
    return _Tangents(p, s, dp, pds, p_diag, dp_diag)


def _expectation_grads(t: _Tangents):
    """(d<S>, dp_total), each (R, 16)."""
    return np.sum(t.dp * t.s[:, None] + t.pds, axis=-1), np.sum(t.dp, axis=-1)


def _threshold_grad(t: _Tangents, s_target: float, tau: float):
    """Partials (R, 16) of the surrogate sum p sigma((S - s) / tau), plus
    sigma(-s / tau) times the same-channel total at s <= 0."""
    sig = _logistic((t.s - s_target) / tau)[:, None]
    g = np.sum(t.dp * sig + t.pds * (sig * (1.0 - sig) / tau), axis=-1)
    if s_target <= 0.0:
        g = g + _logistic(-s_target / tau) * t.dp_diag
    return g


# ---------------------------------------------------------------------------
# descent engine


def _init_pool(rng, cfg: OptimizerConfig, warm_start) -> np.ndarray:
    """(R, n_candidates, 16) parameter draws, warm starts joined to every restart."""
    cand = matrices.random_params(rng, size=(cfg.restarts, cfg.init_samples))
    if warm_start is not None and len(warm_start):
        warm = np.broadcast_to(
            np.asarray(warm_start, dtype=float)[None, :, :],
            (cfg.restarts, len(warm_start), 16),
        )
        cand = np.concatenate([cand, warm], axis=1)
    return cand


def _builtin_candidates():
    names = list(matrices.BUILTIN_NAMES)
    return names, np.stack([matrices.builtin(nm) for nm in names])


def _optimize_expectation(
    obj: ExpectationEntropy, cfg: OptimizerConfig, warm_start=None
) -> OptResult:
    rng = np.random.default_rng(cfg.master_seed)
    R = cfg.restarts
    cand = _init_pool(rng, cfg, warm_start)
    S0, p0 = _S_exp_p_total(matrices.from_params(cand.reshape(-1, 16)))
    score0 = (S0 - L1_BETA * np.abs(p0 - obj.p_target)).reshape(R, -1)
    theta = cand[np.arange(R), np.argmax(score0, axis=1)]
    vel = np.zeros_like(theta)

    best_feas_S = np.full(R, -np.inf)
    best_feas_theta = theta.copy()
    best_gap = np.full(R, np.inf)
    best_gap_theta = theta.copy()
    trace = np.zeros((cfg.iterations, R))

    phase_a = cfg.iterations // 3
    for it in range(cfg.iterations):
        t = _tangents(theta)
        S_c = np.sum(t.p * t.s, axis=-1)
        p_c = np.sum(t.p, axis=-1)
        gS, gp = _expectation_grads(t)
        trace[it] = S_c

        feas = np.abs(p_c - obj.p_target) <= FEASIBLE_BAND
        upd = feas & (S_c > best_feas_S)
        best_feas_S = np.where(upd, S_c, best_feas_S)
        best_feas_theta[upd] = theta[upd]
        gap = np.abs(p_c - obj.p_target)
        updg = gap < best_gap
        best_gap = np.where(updg, gap, best_gap)
        best_gap_theta[updg] = theta[updg]

        if it == phase_a:
            vel[:] = 0.0  # fresh momentum for the exact-penalty phase
        if it < phase_a:
            grad = 2.0 * obj.alpha * (p_c - obj.p_target)[:, None] * gp - gS
        else:
            grad = L1_BETA * np.sign(p_c - obj.p_target)[:, None] * gp - gS
        vel = MOMENTUM * vel - cfg.step * grad
        theta = theta + vel

    have = best_feas_S > -np.inf
    finals = np.where(have[:, None], best_feas_theta, best_gap_theta)
    S_f, p_f = _S_exp_p_total(matrices.from_params(finals))
    restart_values = tuple(float(v) for v in S_f)

    # merge the exact builtin candidates
    names, mats = _builtin_candidates()
    S_b, p_b = _S_exp_p_total(mats)
    feas_b = np.abs(p_b - obj.p_target) <= FEASIBLE_BAND

    cand_S = np.concatenate([S_b, S_f])
    cand_p = np.concatenate([p_b, p_f])
    cand_feas = np.concatenate([feas_b, have])
    if cand_feas.any():
        masked = np.where(cand_feas, cand_S, -np.inf)
        pick = int(np.argmax(masked))
        # prefer an exact builtin over a descent point ahead by only float noise
        if pick >= len(names) and feas_b.any():
            best_b = int(np.argmax(np.where(feas_b, S_b, -np.inf)))
            if masked[pick] - S_b[best_b] <= 1e-9:
                pick = best_b
    else:
        pick = int(np.argmin(np.abs(cand_p - obj.p_target)))
    if pick < len(names):
        best_matrix = mats[pick]
        builtin_name = names[pick]
        winner_restart = int(np.argmax(np.where(have, S_f, -np.inf))) if have.any() else 0
    else:
        r = pick - len(names)
        best_matrix = matrices.from_params(finals[r])
        builtin_name = None
        winner_restart = r

    hard = float(cand_S[pick])
    return OptResult(
        best_matrix=best_matrix,
        objective_value=float(cost_expectation(best_matrix, obj.p_target, obj.alpha)),
        hard_value=hard,
        trace=tuple(float(v) for v in trace[:, winner_restart]),
        states_used=_states_used(best_matrix, 2e-9),
        restart_values=restart_values,
        p_total=float(cand_p[pick]),
        feasible=bool(cand_feas[pick]),
        target=obj.p_target,
        kind="expectation",
        seed=cfg.master_seed,
        from_builtin=builtin_name,
    )


def _optimize_threshold(
    obj: ThresholdProbability, cfg: OptimizerConfig, warm_start=None
) -> OptResult:
    rng = np.random.default_rng(cfg.master_seed)
    R = cfg.restarts
    s_target = obj.s_target_bits
    taus = (
        (obj.smoothing_tau,) if obj.smoothing_tau is not None else cfg.anneal_schedule
    )

    cand = _init_pool(rng, cfg, warm_start)
    P0 = threshold_probability(matrices.from_params(cand.reshape(-1, 16)), s_target)
    P0 = P0.reshape(R, -1)
    theta = cand[np.arange(R), np.argmax(P0, axis=1)]
    vel = np.zeros_like(theta)
    best_hard = P0.max(axis=1)
    best_theta = theta.copy()
    trace = np.zeros((cfg.iterations, R))

    seg = max(cfg.iterations // len(taus), 1)
    for it in range(cfg.iterations):
        tau = taus[min(it // seg, len(taus) - 1)]
        t = _tangents(theta, diag=s_target <= 0.0)
        grad = -_threshold_grad(t, s_target, tau)
        hard_c = _hard_threshold(t.p, t.s, s_target, t.p_diag)
        trace[it] = hard_c
        upd = hard_c > best_hard
        best_hard = np.where(upd, hard_c, best_hard)
        best_theta[upd] = theta[upd]
        vel = MOMENTUM * vel - cfg.step * grad
        theta = theta + vel
    # the post-step endpoints were never scored inside the loop
    hard_end = threshold_probability(matrices.from_params(theta), s_target)
    upd = hard_end > best_hard
    best_hard = np.where(upd, hard_end, best_hard)
    best_theta[upd] = theta[upd]

    restart_values = tuple(float(v) for v in best_hard)

    names, mats = _builtin_candidates()
    P_b = threshold_probability(mats, s_target)
    cand_P = np.concatenate([P_b, best_hard])
    pick = int(np.argmax(cand_P))
    # prefer an exact builtin over a descent point it beats only by float noise
    if pick >= len(names) and cand_P[pick] - P_b.max() <= 1e-9:
        pick = int(np.argmax(P_b))
    if pick < len(names):
        best_matrix = mats[pick]
        builtin_name = names[pick]
        winner_restart = int(np.argmax(best_hard))
    else:
        r = pick - len(names)
        best_matrix = matrices.from_params(best_theta[r])
        builtin_name = None
        winner_restart = r

    return OptResult(
        best_matrix=best_matrix,
        objective_value=float(cost_threshold(best_matrix, s_target, taus[-1])),
        hard_value=float(cand_P[pick]),
        trace=tuple(float(v) for v in trace[:, winner_restart]),
        states_used=_states_used(best_matrix, s_target),
        restart_values=restart_values,
        p_total=float(fusion.total_relevant_probability(best_matrix)),
        feasible=True,
        target=s_target,
        kind="threshold",
        seed=cfg.master_seed,
        from_builtin=builtin_name,
    )


def optimize(objective, config: OptimizerConfig | None = None, warm_start=None) -> OptResult:
    """Run the full restart descent for one objective.

    Each iteration takes the exact gradient of the objective (the smoothed
    surrogate in threshold mode) from one eigendecomposition of the
    generator per restart; see the module docstring.

    Deterministic for a given config: every random draw derives from
    `master_seed`, restarts advance in one batch, and ties in the final
    ranking resolve to the earliest candidate.  `warm_start` optionally adds
    parameter vectors (k, 16) to every restart's scored candidate pool.
    """
    cfg = config if config is not None else OptimizerConfig()
    warm = None if warm_start is None else np.asarray(warm_start, float)
    if isinstance(objective, ExpectationEntropy):
        return _optimize_expectation(objective, cfg, warm)
    if isinstance(objective, ThresholdProbability):
        return _optimize_threshold(objective, cfg, warm)
    raise TypeError(f"unknown objective {objective!r}")


def sweep(
    kind: str, targets, config: OptimizerConfig | None = None, alpha: float = 1.0
) -> list[dict]:
    """One optimization per target with warm starts chained between targets.

    Targets are processed strictest first (largest s or largest p): any matrix
    found at a stricter target stays in the candidate pool of the looser ones.
    For thresholds this makes the reported P(s) weakly decreasing by
    construction; for expectations the chain hands each run a frontier point
    just above its target, from which descent gains entropy while relaxing the
    probability, so the reported <S>(p) curve stays tight against the frontier
    instead of scattering into local optima.  Rows come back in the order the
    targets were given.
    """
    if kind not in ("expectation", "threshold"):
        raise ValueError(f"sweep kind must be expectation or threshold, got {kind!r}")
    cfg = config if config is not None else OptimizerConfig()
    targets = [float(t) for t in targets]
    order = sorted(range(len(targets)), key=lambda k: -targets[k])
    rows: list[dict | None] = [None] * len(targets)
    warm: list[np.ndarray] = []
    for step_idx, k in enumerate(order):
        tgt = targets[k]
        seed_k = cfg.master_seed + 7919 * step_idx
        cfg_k = dataclasses.replace(cfg, master_seed=seed_k)
        obj = (
            ExpectationEntropy(p_target=tgt, alpha=alpha)
            if kind == "expectation"
            else ThresholdProbability(s_target_bits=tgt)
        )
        res = optimize(obj, cfg_k, warm_start=np.stack(warm) if warm else None)
        warm.append(matrices.params_from_matrix(res.best_matrix))
        mean_val = float(np.mean(res.restart_values))
        rows[k] = {
            "target": tgt,
            "hard_value": res.hard_value,
            "mean_value": mean_val,
            "states_used": res.states_used,
            "seed": seed_k,
            "iterations": cfg.iterations,
            "p_total": res.p_total,
            "feasible": res.feasible,
            "result": res,
        }
    return [r for r in rows if r is not None]


def random_scatter(n: int, seed: int, mode: str = "expectation", s_targets=None):
    """Haar-sample n matrices and tabulate the objective landscape.

    Returns (rows, summary): expectation rows are (p_total, S_exp); threshold
    rows are (s_target, P) for every sample and target.  The summary carries
    means and standard deviations for plotting reference bands.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    u = matrices.haar_sample(rng, size=n)
    if mode == "expectation":
        s_exp, p_tot = _S_exp_p_total(u)
        rows = [(float(p), float(s)) for p, s in zip(p_tot, s_exp)]
        summary = {
            "n": n,
            "S_exp_mean": float(np.mean(s_exp)),
            "S_exp_std": float(np.std(s_exp)),
            "p_total_mean": float(np.mean(p_tot)),
            "p_total_std": float(np.std(p_tot)),
        }
        return rows, summary
    if mode == "threshold":
        if s_targets is None:
            s_targets = [k / 10 for k in range(11)]
        rows = []
        summary = {"n": n, "targets": {}}
        p_rel, s_rel = _p_and_s(u)
        p_diag = _diag_total(u) if any(float(s) <= 0.0 for s in s_targets) else None
        for s in s_targets:
            P = _hard_threshold(p_rel, s_rel, float(s), p_diag)
            rows.extend((float(s), float(v)) for v in P)
            summary["targets"][float(s)] = {
                "P_mean": float(np.mean(P)),
                "P_std": float(np.std(P)),
                "P_max": float(np.max(P)),
            }
        return rows, summary
    raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
