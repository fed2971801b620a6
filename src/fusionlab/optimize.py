"""Optimization of fusion matrices for the two entanglement objectives.

Expectation mode maximizes the probability-weighted entanglement entropy
<S> = sum p_ij S_ij at a pinned total success probability; threshold mode
maximizes P(s) = sum of probabilities of outcomes whose entropy reaches a
target s.  One engine (`_descend`) runs both: momentum gradient descent in
the 16-dimensional exp(iH) parameterization, restarted from the best of a
scored candidate pool, with all restarts advancing together as one numpy
batch.  An objective supplies only its hard value, its signed gap
p_total - p_target (0 in threshold mode) and its phase schedule of
per-outcome gradient weights; the engine owns the gradient, pool scoring,
best-point tracking and the final merge with the builtin matrices.

Gradients are exact and reverse-mode, one eigendecomposition of H per restart
and iteration.  Every descent direction is a weighted sum
sum_k a_k dp_k + b_k p_k dS_k (+ c dp_diag) over the six relevant outcomes,
so the engine builds its gradient with respect to U in closed form from the
forward pass and pulls it back once through exp(iH) with the Daleckii-Krein
divided-difference formula (`_pullback`; Najfeld & Havel, Adv. Appl. Math.
16, 1995; Giles, Oxford NA report 08/01, 2008).

P(s) is a sum of indicator terms, so its descent runs on a logistic-smoothed
surrogate with the temperature annealed through `ANNEAL_SCHEDULE`; reported
values are always the hard objective, recomputed from the winning matrix.
The probability constraint in expectation mode starts as the quadratic
penalty alpha (p - p_target)^2 and, for the final two thirds of the
iterations, switches to an exact L1 penalty beta |p - p_target| with
beta = 2: the frontier's slope is about -1, so the quadratic equilibrium
undershoots the target by ~ alpha^-1 step sizes while the L1 penalty pins it.

Known exact optima (the builtin matrices) join the candidate pool of every
run.  They matter at the boundaries: descent approaches the s = 1 optimum
through matrices with determinant 1/4 - O(1e-10) whose entropy rounds below
1, while the builtins sit on the dyadic knife edge exactly.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import entanglement, fusion, matrices
from .fusion import _PI, _PJ

__all__ = [
    "ExpectationEntropy",
    "ThresholdProbability",
    "OptimizerConfig",
    "OptResult",
    "expectation_entropy",
    "threshold_probability",
    "optimize",
    "sweep",
    "random_scatter",
]

ANNEAL_SCHEDULE = (0.1, 0.01, 0.001)  # threshold surrogate temperatures, in turn
FEASIBLE_BAND = 0.005   # |p_total - p_target| accepted as on-target
L1_BETA = 2.0           # exact-penalty weight, > the frontier slope
MOMENTUM = 0.9
STATES_P_FLOOR = 1e-6


class _Phase(NamedTuple):
    """From iteration `start` on, descend along
    sum_k a_k dp_k + b_k p_k dS_k + c dp_diag (see `_pullback`) with the
    per-outcome weights (a, b, c) = `weights(s, gap)` of the current point;
    `reset` starts the phase with zero velocity."""

    start: int
    weights: Callable
    reset: bool


@dataclass(frozen=True)
class ExpectationEntropy:
    """Maximize <S> subject to total relevant probability ~ p_target."""

    p_target: float
    alpha: float = 1.0

    _kind = "expectation"
    _diag = False    # the same-channel outcomes carry S = 0
    _s_floor = 2e-9  # states_used counts the entangled outcomes

    def __post_init__(self):
        if not 0.5 - 1e-12 <= self.p_target <= 1.0 + 1e-12:
            raise ValueError(f"p_target must lie in [0.5, 1], got {self.p_target}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def _target(self) -> float:
        return self.p_target

    def _score(self, p, s, p_diag):
        """Hard <S> and the signed gap p_total - p_target."""
        return np.sum(p * s, axis=-1), np.sum(p, axis=-1) - self.p_target

    def _phases(self, iterations: int):
        """Quadratic penalty, then the exact L1 penalty with fresh momentum."""

        def quadratic(s, gap):
            return 2.0 * self.alpha * gap[:, None] - s, -1.0, 0.0

        def exact(s, gap):
            return L1_BETA * np.sign(gap)[:, None] - s, -1.0, 0.0

        return [_Phase(0, quadratic, False), _Phase(iterations // 3, exact, True)]


@dataclass(frozen=True)
class ThresholdProbability:
    """Maximize the total probability of outcomes with S >= s_target."""

    s_target_bits: float

    _kind = "threshold"

    def __post_init__(self):
        if not 0.0 <= self.s_target_bits <= 1.0:
            raise ValueError(
                f"s_target must lie in [0, 1] bits, got {self.s_target_bits}"
            )

    @property
    def _target(self) -> float:
        return self.s_target_bits

    @property
    def _s_floor(self) -> float:
        return self.s_target_bits

    @property
    def _diag(self) -> bool:
        return self.s_target_bits <= 0.0

    def _score(self, p, s, p_diag):
        """Hard P(s); every point is on target, so the gap is 0."""
        value = _hard_threshold(p, s, self.s_target_bits, p_diag)
        return value, np.zeros_like(value)

    def _phases(self, iterations: int):
        """One equal segment of the logistic surrogate per temperature."""
        seg = max(iterations // len(ANNEAL_SCHEDULE), 1)
        return [
            _Phase(k * seg, functools.partial(self._surrogate, tau), False)
            for k, tau in enumerate(ANNEAL_SCHEDULE)
        ]

    def _surrogate(self, tau, s, gap):
        """Weights that descend on -(sum p sigma((S - s) / tau) + sigma(-s / tau) p_diag)."""
        sig = _logistic((s - self.s_target_bits) / tau)
        c = -_logistic(-self.s_target_bits / tau) if self._diag else 0.0
        return -sig, -sig * (1.0 - sig) / tau, c


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    init_samples: int = 100
    iterations: int = 1000
    step: float = 1e-3
    master_seed: int = 0

    def __post_init__(self):
        if min(self.restarts, self.init_samples, self.iterations) < 1:
            raise ValueError("restarts, init_samples and iterations must be >= 1")
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one optimization run.

    `hard_value` is the unsmoothed objective (<S> or P) of `best_matrix`, the
    best of the restarts' final points and the builtin matrices: feasible
    candidates rank by value, and when none is feasible the one closest to
    the target wins.  `restart_values` holds each restart's final hard value
    (builtin candidates excluded), `trace` the per-iteration hard value of
    the winning restart, or of the restart ranked best the same way when a
    builtin wins.
    """

    best_matrix: np.ndarray
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


def _outcomes(u: np.ndarray):
    """(p, det, S) of the six relevant outcomes of a matrix batch, p computed once."""
    p = fusion.relevant_probabilities(u)
    det = entanglement._determinants(u, p)
    return p, det, entanglement.entropy_from_det(det)


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
    p, _, s = _outcomes(u)
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
    p_rel, _, s = _outcomes(u)
    p_diag = _diag_total(u) if s_target_bits <= 0.0 else None
    total = _hard_threshold(p_rel, s, s_target_bits, p_diag)
    return float(total) if u.ndim == 2 else total


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _states_used(matrix, s_ref: float) -> int:
    p, _, s = _outcomes(matrix)
    return int(np.sum((p > STATES_P_FLOOR) & (s >= s_ref - 1e-9)))


# ---------------------------------------------------------------------------
# exact gradients


def _pairs(upper, lower=None) -> np.ndarray:
    """(..., 4, 4) matrix holding `upper` at the six pairs (i, j), i < j,
    `lower` (default `upper`) at (j, i) and zeros on the diagonal."""
    m = np.zeros(np.shape(upper)[:-1] + (4, 4), dtype=complex)
    m[..., _PI, _PJ] = upper
    m[..., _PJ, _PI] = upper if lower is None else lower
    return m


def _pullback(w, v, u, p, det, a, b, c=0.0) -> np.ndarray:
    """sum_k a_k dp_k + b_k p_k dS_k + c dp_diag along the 16 parameters, (R, 16),
    over the six relevant outcomes and the same-channel total p_diag.

    w, v, u come from `matrices._exp_eigh` of the restarts' parameters, p and
    det are their relevant probabilities and determinants; a and b are (R, 6)
    or scalars, c a scalar.  One vector-Jacobian product: with df that sum,
    G = df/dRe(U) + i df/dIm(U) is built in closed form,

      p_ij = 1/8 - n_i n_j / 2 - |o_ij|^2 / 2,  n_i = 1/2 - |U_1i|^2 - |U_2i|^2,
          o_ij = U_1i conj(U_1j) + U_2i conj(U_2j), so rows 1, 2 of G are
          U K with K_ii = sum_j a_ij n_j and K_ij = -a_ij conj(o_ij);
      sum_i p_ii = 1/2 - sum_i n_i^2 / 2 adds 2 c n_i to K_ii;
      det_ij = |top_ij bot_ij|^2 / (4 p_ij)^2 with top, bot the minors of
          rows (1, 2) and (3, 4), so p dS = S'(det) (d|top bot|^2 / (16 p)
          - 2 det dp), zero where p = 0, with S' = `entanglement._entropy_slope`;

    and pulled back through U = exp(i H), H = V diag(w) V^H, once.  By
    Daleckii-Krein, dU = V (Phi o V^H E V) V^H along a Hermitian direction E,
    with Phi_ab = (e^{i w_a} - e^{i w_b}) / (w_a - w_b) evaluated as
    i e^{i (w_a + w_b) / 2} sinc((w_a - w_b) / 2), which needs no special
    case for (near-)equal eigenvalues (Najfeld & Havel 1995).  So
    df = Re tr(G^H dU) = Re tr(Z^H E) with Z = V (conj(Phi) o V^H G V) V^H,
    and the partials are read off Z (Giles 2008): Re Z_kk for the diagonal
    parameters, Re(Z_xy + Z_yx) and Im Z_xy - Im Z_yx for the pair (x, y),
    that is the parameters of Z plus the conjugate transpose of its strict
    lower triangle.
    """
    slope = b * entanglement._entropy_slope(det)
    a = _pairs(a - 2.0 * slope * det)
    e = np.where(p > 0.0, slope / (8.0 * np.where(p > 0.0, p, 1.0)), 0.0)  # 2 x weight of |top bot|^2
    r12 = u[..., :2, :]
    gram = r12.swapaxes(-1, -2) @ r12.conj()  # o_ij off the diagonal, 1/2 - n_i on it
    n = 0.5 - np.diagonal(gram, axis1=-2, axis2=-1).real
    g = np.zeros_like(u)
    g[..., :2, :] = r12 @ (np.eye(4) * ((a + 2.0 * c * np.eye(4)) @ n[..., None]) - a * gram.conj())
    rows = [u[..., r, :] for r in range(4)]
    top = entanglement._minors(rows[0], rows[1])
    bot = entanglement._minors(rows[2], rows[3])
    for lo, hi, m in ((0, 1, e * np.abs(bot) ** 2 * top), (2, 3, e * np.abs(top) ** 2 * bot)):
        # d|m_ij|^2 for the minor m_ij = U_li U_hj - U_lj U_hi of rows (lo, hi)
        g[..., lo : hi + 1, :] += np.stack([-rows[hi].conj(), rows[lo].conj()], axis=-2) @ _pairs(m, -m)

    half = 0.5 * (w[..., :, None] - w[..., None, :])
    phi = 1j * np.exp(0.5j * (w[..., :, None] + w[..., None, :])) * np.sinc(half / np.pi)
    vh = v.conj().swapaxes(-1, -2)
    z = v @ (phi.conj() * (vh @ g @ v)) @ vh
    return matrices._params_from_hermitian(z + np.tril(z, -1).conj().swapaxes(-1, -2))


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


def _evaluate(objective, u: np.ndarray):
    """(value, gap, p, det, s) of a matrix batch under `objective`."""
    p, det, s = _outcomes(u)
    value, gap = objective._score(p, s, _diag_total(u) if objective._diag else None)
    return value, gap, p, det, s


def _rank(value, gap, feasible) -> int:
    """Best candidate: the highest value if any is feasible, else the smallest gap."""
    if feasible.any():
        return int(np.argmax(np.where(feasible, value, -np.inf)))
    return int(np.argmin(np.abs(gap)))


def _descend(objective, cfg: OptimizerConfig, warm_start=None) -> OptResult:
    """The restart descent for either objective; see the module docstring."""
    rng = np.random.default_rng(cfg.master_seed)
    R = cfg.restarts
    cand = _init_pool(rng, cfg, warm_start)
    value0, gap0, *_ = _evaluate(objective, matrices.from_params(cand.reshape(-1, 16)))
    score0 = (value0 - L1_BETA * np.abs(gap0)).reshape(R, -1)
    theta = cand[np.arange(R), np.argmax(score0, axis=1)]
    vel = np.zeros_like(theta)

    # per restart: the best feasible point, and the point closest to the target
    best_value = np.full(R, -np.inf)
    best_theta = theta.copy()
    best_gap = np.full(R, np.inf)
    best_gap_theta = theta.copy()

    def track(points, value, gap):
        upd = (np.abs(gap) <= FEASIBLE_BAND) & (value > best_value)
        best_value[upd] = value[upd]
        best_theta[upd] = points[upd]
        upd = np.abs(gap) < best_gap
        best_gap[upd] = np.abs(gap[upd])
        best_gap_theta[upd] = points[upd]

    phases = objective._phases(cfg.iterations)
    k = 0
    trace = np.zeros((cfg.iterations, R))
    for it in range(cfg.iterations):
        while k + 1 < len(phases) and phases[k + 1].start <= it:
            k += 1
            if phases[k].reset:
                vel[:] = 0.0
        w, v, u = matrices._exp_eigh(theta)
        value, gap, p, det, s = _evaluate(objective, u)
        trace[it] = value
        track(theta, value, gap)
        grad = _pullback(w, v, u, p, det, *phases[k].weights(s, gap))
        vel = MOMENTUM * vel - cfg.step * grad
        theta = theta + vel
    if isinstance(objective, ThresholdProbability):
        # threshold descent also scores the post-step endpoints
        track(theta, *_evaluate(objective, matrices.from_params(theta))[:2])

    have = best_value > -np.inf
    finals = np.where(have[:, None], best_theta, best_gap_theta)
    value_f, gap_f, p_f, *_ = _evaluate(objective, matrices.from_params(finals))
    names = matrices.BUILTIN_NAMES
    mats = np.stack([matrices.builtin(nm) for nm in names])
    value_b, gap_b, p_b, *_ = _evaluate(objective, mats)
    feas_b = np.abs(gap_b) <= FEASIBLE_BAND

    values = np.concatenate([value_b, value_f])
    feasible = np.concatenate([feas_b, have])
    p_all = np.sum(np.concatenate([p_b, p_f]), axis=-1)
    pick = _rank(values, np.concatenate([gap_b, gap_f]), feasible)
    # prefer an exact builtin over a descent point ahead by only float noise
    if pick >= len(names) and feas_b.any():
        best_b = _rank(value_b, gap_b, feas_b)
        if values[pick] - value_b[best_b] <= 1e-9:
            pick = best_b
    if pick < len(names):
        best_matrix = mats[pick]
        builtin_name = names[pick]
        winner_restart = _rank(value_f, gap_f, have)
    else:
        winner_restart = pick - len(names)
        best_matrix = matrices.from_params(finals[winner_restart])
        builtin_name = None

    return OptResult(
        best_matrix=best_matrix,
        hard_value=float(values[pick]),
        trace=tuple(float(v) for v in trace[:, winner_restart]),
        states_used=_states_used(best_matrix, objective._s_floor),
        restart_values=tuple(float(v) for v in value_f),
        p_total=float(p_all[pick]),
        feasible=bool(feasible[pick]),
        target=objective._target,
        kind=objective._kind,
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
    if not isinstance(objective, (ExpectationEntropy, ThresholdProbability)):
        raise TypeError(f"unknown objective {objective!r}")
    return _descend(objective, cfg, warm_start)


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
        # the objective's own check rejects NaN and targets outside [0, 1]
        s_targets = [ThresholdProbability(float(s)).s_target_bits for s in s_targets]
        rows = []
        summary = {"n": n, "targets": {}}
        p_rel, _, s_rel = _outcomes(u)
        p_diag = _diag_total(u) if any(s <= 0.0 for s in s_targets) else None
        for s in s_targets:
            P = _hard_threshold(p_rel, s_rel, s, p_diag)
            rows.extend((s, float(v)) for v in P)
            summary["targets"][s] = {
                "P_mean": float(np.mean(P)),
                "P_std": float(np.std(P)),
                "P_max": float(np.max(P)),
            }
        return rows, summary
    raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
