"""Optimization of fusion matrices for the two entanglement objectives.

Expectation mode maximizes the probability-weighted entanglement entropy
<S> = sum p_ij S_ij at a pinned total success probability; threshold mode
maximizes P(s) = sum of probabilities of outcomes whose entropy reaches a
target s.  One engine (`_descend`) runs both: momentum gradient descent in
the 16-dimensional exp(iH) parameterization, restarted from the best of a
scored candidate pool.  A sweep over T targets is one run of it: the T x R
restarts advance together as one numpy batch, each row at its own target,
and a final exchange ranks every target's points at every target (see
`sweep`); `optimize` is the case T = 1.  An objective supplies only its
hard value, its signed gap p_total - p_target (0 in threshold mode) and its
phase schedule of per-outcome gradient weights, all at per-row targets; the
engine owns the gradient, pool scoring, best-point tracking and the final
merge with the builtin matrices.

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

import functools
import itertools
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
    per-outcome weights (a, b, c) = `weights(s, gap, target)` of the current
    points at their per-row targets; `reset` starts the phase with zero
    velocity."""

    start: int
    weights: Callable
    reset: bool


@dataclass(frozen=True)
class ExpectationEntropy:
    """Maximize <S> subject to total relevant probability ~ p_target."""

    p_target: float
    alpha: float = 1.0

    _kind = "expectation"
    _s_floor = 2e-9  # states_used counts the entangled outcomes

    def __post_init__(self):
        if not 0.5 - 1e-12 <= self.p_target <= 1.0 + 1e-12:
            raise ValueError(f"p_target must lie in [0.5, 1], got {self.p_target}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    @property
    def _target(self) -> float:
        return self.p_target

    @staticmethod
    def _score(u, p, s, target):
        """Hard <S> and the signed gap p_total - target, per row; the
        same-channel outcomes carry S = 0."""
        return np.sum(p * s, axis=-1), np.sum(p, axis=-1) - target

    def _phases(self, iterations: int):
        """Quadratic penalty, then the exact L1 penalty with fresh momentum."""

        def quadratic(s, gap, target):
            return 2.0 * self.alpha * gap[:, None] - s, -1.0, 0.0

        def exact(s, gap, target):
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

    @staticmethod
    def _score(u, p, s, target):
        """Hard P(s) per row at a target or per-row target array; the
        same-channel total (S = 0) counts only where target <= 0.  Every
        point is on target, so the gap is 0."""
        target = np.asarray(target)
        value = np.sum(np.where(s >= target[..., None], p, 0.0), axis=-1)
        if np.any(target <= 0.0):
            p_diag = np.sum(fusion.diag_probabilities(u), axis=-1)
            value = value + np.where(target <= 0.0, p_diag, 0.0)
        value = np.clip(value, 0.0, 1.0)
        return value, np.zeros_like(value)

    def _phases(self, iterations: int):
        """One equal segment of the logistic surrogate per temperature."""
        seg = max(iterations // len(ANNEAL_SCHEDULE), 1)
        return [
            _Phase(k * seg, functools.partial(self._surrogate, tau), False)
            for k, tau in enumerate(ANNEAL_SCHEDULE)
        ]

    @staticmethod
    def _surrogate(tau, s, gap, target):
        """Weights that descend on -(sum p sigma((S - s) / tau) + sigma(-s / tau) p_diag),
        the same-channel term only in rows with target s <= 0."""
        target = np.asarray(target)
        sig = _logistic((s - target[..., None]) / tau)
        c = np.where(target <= 0.0, -_logistic(-target / tau), 0.0)
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
    best of the restarts' final points and the builtin matrices (in a sweep,
    those of every target): feasible candidates rank by value, and when none
    is feasible the one closest to the target wins.  `restart_values` holds
    the final hard value of each of this target's own restarts, `trace` the
    per-iteration hard value of the winning restart, or of the own restart
    ranked best the same way when the winner comes from elsewhere.
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


def expectation_entropy(matrix):
    """<S> in bits: probability-weighted entropy over the six relevant outcomes."""
    u = np.asarray(matrix, dtype=complex)
    out = _evaluate(ExpectationEntropy, u, 0.0)[0]
    return float(out) if u.ndim == 2 else out


def threshold_probability(matrix, s_target_bits: float):
    """Total probability of outcomes whose entropy reaches the target.

    All ten outcomes count; the four same-channel product outcomes carry
    S = 0 and therefore enter only at s_target <= 0 (where P = 1).
    """
    # the objective's own check rejects NaN and targets outside [0, 1]
    s_target = ThresholdProbability(float(s_target_bits)).s_target_bits
    u = np.asarray(matrix, dtype=complex)
    total = _evaluate(ThresholdProbability, u, s_target)[0]
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
    or scalars, c (R,) or a scalar.  One vector-Jacobian product: with df
    that sum, G = df/dRe(U) + i df/dIm(U) is built in closed form,

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
    c = np.asarray(c)[..., None, None]
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


def _evaluate(objective, u: np.ndarray, target):
    """(value, gap, p, det, s) of a matrix batch under `objective` at per-row `target`."""
    p, det, s = _outcomes(u)
    value, gap = objective._score(u, p, s, target)
    return value, gap, p, det, s


def _rank(value, gap, feasible) -> int:
    """Best candidate: the highest value if any is feasible, else the smallest gap."""
    if feasible.any():
        return int(np.argmax(np.where(feasible, value, -np.inf)))
    return int(np.argmin(np.abs(gap)))


def _run(objective, theta, target, phases, iterations: int, step: float):
    """Momentum descent of every row of `theta` at its own target.

    Returns (finals, trace): per row the best feasible point visited, or else
    the point closest to its target, and the (iterations, rows) hard values.
    """
    vel = np.zeros_like(theta)
    best_value = np.full(len(theta), -np.inf)
    best_theta = theta.copy()
    best_gap = np.full(len(theta), np.inf)
    best_gap_theta = theta.copy()

    def track(points, value, gap):
        upd = (np.abs(gap) <= FEASIBLE_BAND) & (value > best_value)
        best_value[upd] = value[upd]
        best_theta[upd] = points[upd]
        upd = np.abs(gap) < best_gap
        best_gap[upd] = np.abs(gap[upd])
        best_gap_theta[upd] = points[upd]

    k = 0
    trace = np.zeros((iterations, len(theta)))
    for it in range(iterations):
        while k + 1 < len(phases) and phases[k + 1].start <= it:
            k += 1
            if phases[k].reset:
                vel[:] = 0.0
        w, v, u = matrices._exp_eigh(theta)
        value, gap, p, det, s = _evaluate(objective, u, target)
        trace[it] = value
        track(theta, value, gap)
        grad = _pullback(w, v, u, p, det, *phases[k].weights(s, gap, target))
        vel = MOMENTUM * vel - step * grad
        theta = theta + vel
    if isinstance(objective, ThresholdProbability):
        # threshold descent also scores the post-step endpoints
        track(theta, *_evaluate(objective, matrices.from_params(theta), target)[:2])
    return np.where((best_value > -np.inf)[:, None], best_theta, best_gap_theta), trace


def _descend(objectives, cfg: OptimizerConfig) -> list[OptResult]:
    """One batched restart descent for T objectives of one kind (and one
    alpha), R = `cfg.restarts` rows each; see `sweep` and the module docstring."""
    obj = objectives[0]
    T, R = len(objectives), cfg.restarts
    targets = np.array([o._target for o in objectives])

    # one candidate pool, scored at every target
    rng = np.random.default_rng(cfg.master_seed)
    cand = matrices.random_params(rng, size=(R, cfg.init_samples))
    value0, gap0, *_ = _evaluate(obj, matrices.from_params(cand.reshape(-1, 16)), targets[:, None])
    score0 = (value0 - L1_BETA * np.abs(gap0)).reshape(T, R, -1)
    theta = cand[np.arange(R), np.argmax(score0, axis=-1)].reshape(T * R, 16)

    phases = obj._phases(cfg.iterations)
    target = np.repeat(targets, R)
    finals, trace = _run(obj, theta, target, phases, cfg.iterations, cfg.step)

    handed = np.empty((0, 16))
    if T > 1:
        # hand-off round: every target descends again from the round-1
        # winners of its two sorted neighbours, in the last phase
        value1, gap1, *_ = _evaluate(obj, matrices.from_params(finals), target)
        value1, gap1 = value1.reshape(T, R), gap1.reshape(T, R)
        best = [_rank(value1[t], gap1[t], np.abs(gap1[t]) <= FEASIBLE_BAND) for t in range(T)]
        winners = finals.reshape(T, R, 16)[np.arange(T), best]
        order = np.argsort(targets, kind="stable")
        src = np.concatenate([order[:-1], order[1:]])
        dst = np.concatenate([order[1:], order[:-1]])
        handed, _ = _run(
            obj, winners[src], targets[dst], phases[-1:], cfg.iterations // 3, cfg.step
        )

    # final exchange: the builtins and every final point, ranked at every target
    names = matrices.BUILTIN_NAMES
    B = len(names)
    mats = np.stack([matrices.builtin(nm) for nm in names])
    points = np.concatenate([finals, handed])
    u = np.concatenate([mats, matrices.from_params(points)])
    value, gap, p, *_ = _evaluate(obj, u, targets[:, None])
    value, gap = np.broadcast_arrays(value, gap)
    feasible = np.abs(gap) <= FEASIBLE_BAND
    p_total = np.sum(p, axis=-1)

    results = []
    for t, objective in enumerate(objectives):
        v, g, f = value[t], gap[t], feasible[t]
        own = slice(B + t * R, B + (t + 1) * R)
        pick = _rank(v, g, f)
        # prefer an exact builtin over a descent point ahead by only float noise
        if pick >= B and f[:B].any():
            best_b = _rank(v[:B], g[:B], f[:B])
            if v[pick] - v[best_b] <= 1e-9:
                pick = best_b
        if own.start <= pick < own.stop:
            winner_restart = pick - own.start
        else:
            winner_restart = _rank(v[own], g[own], f[own])
        best_matrix = mats[pick] if pick < B else matrices.from_params(points[pick - B])
        results.append(
            OptResult(
                best_matrix=best_matrix,
                hard_value=float(v[pick]),
                trace=tuple(float(x) for x in trace[:, t * R + winner_restart]),
                states_used=_states_used(best_matrix, objective._s_floor),
                restart_values=tuple(float(x) for x in v[own]),
                p_total=float(p_total[pick]),
                feasible=bool(f[pick]),
                target=objective._target,
                kind=objective._kind,
                seed=cfg.master_seed,
                from_builtin=names[pick] if pick < B else None,
            )
        )
    return results


def optimize(objective, config: OptimizerConfig | None = None) -> OptResult:
    """Run the full restart descent for one objective.

    Each iteration takes the exact gradient of the objective (the smoothed
    surrogate in threshold mode) from one eigendecomposition of the
    generator per restart; see the module docstring.

    Deterministic for a given config: every random draw derives from
    `master_seed`, restarts advance in one batch, and ties in the final
    ranking resolve to the earliest candidate.  The same as a one-target
    `sweep`.
    """
    cfg = config if config is not None else OptimizerConfig()
    if not isinstance(objective, (ExpectationEntropy, ThresholdProbability)):
        raise TypeError(f"unknown objective {objective!r}")
    return _descend([objective], cfg)[0]


def sweep(
    kind: str, targets, config: OptimizerConfig | None = None, alpha: float = 1.0
) -> list[dict]:
    """Optimize every target in one batched descent, with a cross-target exchange.

    All targets share one candidate pool, drawn from `master_seed` as in
    `optimize`, and their restarts descend together as one batch.  With two
    or more targets a hand-off round follows: each target descends for a
    third of the iterations, in the objective's last phase with fresh
    momentum, from the round-1 winners of its neighbours in sorted target
    order.  Finally the builtins and every final point of both rounds are
    scored at every target, and each target ranks all of them.  So a matrix
    found for one target counts for every other: P(s) is weakly decreasing
    by construction.  The hand-off is there for <S>(p): at the default
    config over p = 0.50, 0.51, ..., 1.00, the curve rises by up to 0.0046
    between neighbouring targets without it, and nowhere with it.
    `mean_value` covers the target's own restarts.  A one-target sweep is
    exactly `optimize`.  Rows come back in the order the targets were
    given, every one with `seed` = `master_seed`.
    """
    if kind not in ("expectation", "threshold"):
        raise ValueError(f"sweep kind must be expectation or threshold, got {kind!r}")
    cfg = config if config is not None else OptimizerConfig()
    objectives = [
        ExpectationEntropy(p_target=float(t), alpha=alpha)
        if kind == "expectation"
        else ThresholdProbability(s_target_bits=float(t))
        for t in targets
    ]
    return [
        {
            "target": res.target,
            "hard_value": res.hard_value,
            "mean_value": float(np.mean(res.restart_values)),
            "states_used": res.states_used,
            "seed": res.seed,
            "iterations": cfg.iterations,
            "p_total": res.p_total,
            "feasible": res.feasible,
            "result": res,
        }
        for res in (_descend(objectives, cfg) if objectives else [])
    ]


def random_scatter(n: int, seed: int, mode: str = "expectation", s_targets=None):
    """Haar-sample n matrices and tabulate the objective landscape.

    Returns (rows, summary): expectation rows are (p_total, S_exp); threshold
    rows are (s_target, P) for every sample and target.  The summary carries
    means and standard deviations for plotting reference bands.  `s_targets`
    (default 0, 0.1, ..., 1) is for threshold mode only.  The samples are
    scored in blocks of `matrices._BLOCK`, so the kernels' temporaries stay
    in cache.
    """
    n = matrices._count(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "expectation":
        if s_targets is not None:
            raise ValueError("s_targets is a threshold-mode argument")
    elif mode == "threshold":
        if s_targets is None:
            s_targets = [k / 10 for k in range(11)]
        # the objective's own check rejects NaN and targets outside [0, 1]
        s_targets = [ThresholdProbability(float(s)).s_target_bits for s in s_targets]
    else:
        raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
    u = matrices.haar_sample(np.random.default_rng(seed), size=n)
    blocks = [u[k : k + matrices._BLOCK] for k in range(0, n, matrices._BLOCK)]
    if mode == "expectation":
        # scored at target 0, the gap is p_total itself
        s_exp, p_tot = np.concatenate(
            [_evaluate(ExpectationEntropy, ub, 0.0)[:2] for ub in blocks], axis=-1
        )
        rows = list(zip(p_tot.tolist(), s_exp.tolist()))
        summary = {
            "n": n,
            "S_exp_mean": float(np.mean(s_exp)),
            "S_exp_std": float(np.std(s_exp)),
            "p_total_mean": float(np.mean(p_tot)),
            "p_total_std": float(np.std(p_tot)),
        }
        return rows, summary
    targets = np.array(s_targets)[:, None]
    P = np.concatenate(
        [_evaluate(ThresholdProbability, ub, targets)[0] for ub in blocks], axis=-1
    )
    rows = []
    summary = {"n": n, "targets": {}}
    for s, P_s in zip(s_targets, P):
        rows.extend(zip(itertools.repeat(s), P_s.tolist()))
        summary["targets"][s] = {
            "P_mean": float(np.mean(P_s)),
            "P_std": float(np.std(P_s)),
            "P_max": float(np.max(P_s)),
        }
    return rows, summary
