"""Optimization of fusion matrices for the two entanglement objectives.

Expectation mode maximizes the probability-weighted entanglement entropy
<S> = sum p_ij S_ij at a pinned total success probability; threshold mode
maximizes P(s) = sum of probabilities of outcomes whose entropy reaches a
target s.  Every outcome depends on rows 1-2 of U alone, so one engine
(`_descend`) runs both on those two orthonormal rows, restarted from the
best of a scored pool of Haar rows; only a winner is completed to a 4x4
unitary.  A sweep over T targets is one run of it: the T x R restarts
advance together as one numpy batch, each at its own target, and a final
exchange ranks every target's points at every target (see `sweep`);
`optimize` is the case T = 1.  An objective supplies only its hard value,
its signed gap p_total - p_target (0 in threshold mode) and its per-outcome
gradient weights, all at per-row targets; the engine owns the gradient,
pool scoring, best-point tracking and the final merge with the builtin
matrices.  Rows, gradients and per-outcome arrays are batch last, as
`fusion._outcomes` takes them.

Gradients are exact and reverse-mode.  Every descent direction is a
weighted sum sum_k a_k dp_k + b_k p_k dS_k (+ c dp_diag) over the six
relevant outcomes, so the engine builds its gradient with respect to rows
1-2 in closed form from the forward pass, as those rows times a Hermitian
4x4 matrix per restart (`_pullback`).  The descent is momentum descent on
the complex Stiefel manifold (Edelman, Arias & Smith, SIAM J. Matrix Anal.
Appl. 20, 303, 1998): the velocity is projected onto the tangent space at
the rows, and the step retracted by Gram-Schmidt.

Both modes descend on an exact L1 penalty (Nocedal & Wright, Numerical
Optimization, 2nd ed., 17.2), "hard value minus penalty", from the first
iteration.  Expectation mode minimizes -<S> + beta |p - p_target|, beta =
2: the frontier's slope is about -1, so any beta above 1 pins the descent
to the target.  P(s) is a sum of indicator terms, so threshold mode
minimizes gamma (-p_total - [s <= 0] p_diag + sum_k max(0, s - S_k)),
which rewards probability until an outcome's entropy falls below s; every
interior winner uses all six relevant outcomes, so no outcome needs to be
given up.  Reported values are always the hard objective, recomputed from
the winning matrix, and both modes score the post-step endpoints of every
restart, so the engine never asks which objective it runs.

Known exact optima (the builtin matrices) join the candidate pool of every
run.  They matter at the boundaries: descent approaches the s = 1 optimum
through matrices with determinant 1/4 - O(1e-10) whose entropy rounds below
1, while the builtins sit on the dyadic knife edge exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

FEASIBLE_BAND = 0.005   # |p_total - p_target| accepted as on-target
L1_BETA = 2.0           # exact-penalty weight, > the frontier slope
MOMENTUM = 0.9
# threshold-penalty weight.  Threshold mode wants a step of 3e-4, but `step`
# is shared with expectation mode, which loses 32-37 of its 51 acceptance
# targets there; below the step cap the step scales the gradient linearly,
# so gamma = 0.3 at the default step takes the same steps
PENALTY_GAMMA = 0.3
RETRACT_MAX = 1e6       # largest step entry the descent takes, see `_run`
STATES_P_FLOOR = 1e-6


@dataclass(frozen=True)
class ExpectationEntropy:
    """Maximize <S> subject to total relevant probability ~ p_target."""

    p_target: float

    _kind = "expectation"
    _s_floor = 2e-9  # states_used counts the entangled outcomes

    def __post_init__(self):
        object.__setattr__(self, "p_target", matrices._real(self.p_target, "p_target"))
        if not 0.5 - 1e-12 <= self.p_target <= 1.0 + 1e-12:
            raise ValueError(f"p_target must lie in [0.5, 1], got {self.p_target}")

    @property
    def _target(self) -> float:
        return self.p_target

    @staticmethod
    def _score(out, target):
        """Hard <S> and the signed gap p_total - target, per row of the
        kernel output `out`; the same-channel outcomes carry S = 0."""
        return np.add.reduce(out.p * out.s, 0), np.add.reduce(out.p, 0) - target

    @staticmethod
    def _weights(out, gap, target):
        """Weights (a, b, c) (see `_pullback`) of -<S> + L1_BETA |gap|."""
        return L1_BETA * np.sign(gap) - out.s, -1.0, 0.0


@dataclass(frozen=True)
class ThresholdProbability:
    """Maximize the total probability of outcomes with S >= s_target."""

    s_target_bits: float

    _kind = "threshold"

    def __post_init__(self):
        object.__setattr__(self, "s_target_bits", matrices._real(self.s_target_bits, "s_target"))
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
    def _score(out, target):
        """Hard P(s) per row of the kernel output `out` at a target or an
        array of targets that broadcasts against the rows (the outcome axis
        goes before them); the same-channel total (S = 0) counts only where
        target <= 0.  Every point is on target, so the gap is 0."""
        target = np.asarray(target)
        hit = out.s >= (target[..., None, :] if target.ndim else target)
        value = np.add.reduce(np.where(hit, out.p, 0.0), -out.s.ndim)
        if (target <= 0.0).any():
            p_diag = np.add.reduce(fusion._diag(out.m), 0)
            value = value + np.where(target <= 0.0, p_diag, 0.0)
        value = np.minimum(np.maximum(value, 0.0), 1.0)
        return value, np.zeros_like(value)

    @staticmethod
    def _weights(out, gap, target):
        """Weights (a, b, c) (see `_pullback`) of the exact penalty
        gamma (-p_total - [s <= 0] p_diag + sum_k max(0, s - S_k)) at the
        per-row target s; b p dS = -gamma dS on the violated outcomes, with
        p floored at `STATES_P_FLOOR`."""
        b = np.where(out.s < target, -PENALTY_GAMMA / np.maximum(out.p, STATES_P_FLOOR), 0.0)
        return -PENALTY_GAMMA, b, np.where(np.asarray(target) <= 0.0, -PENALTY_GAMMA, 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    init_samples: int = 100
    iterations: int = 1000
    step: float = 1e-3
    master_seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "init_samples", "iterations", "master_seed"):
            matrices._count(getattr(self, name), name)
        if min(self.restarts, self.init_samples, self.iterations) < 1:
            raise ValueError("restarts, init_samples and iterations must be >= 1")
        if not 0.0 < matrices._real(self.step, "step") < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one optimization run.

    `hard_value` is the hard objective (<S> or P, not the penalty the
    descent minimizes) of `best_matrix`, the best of the restarts' final
    points and the builtin matrices (in a sweep, those of every target):
    feasible candidates rank by value, and when none is feasible the one
    closest to the target wins.  `restart_values` holds the final hard value
    of each of this target's own restarts, `trace` the per-iteration hard
    value of the winning restart, or of the own restart ranked best the same
    way when the winner comes from elsewhere.
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


def expectation_entropy(matrix):
    """<S> in bits: probability-weighted entropy over the six relevant outcomes."""
    u = np.asarray(matrix, dtype=complex)
    out = _evaluate(ExpectationEntropy, fusion._rows(u), 0.0)[0]
    return float(out) if u.ndim == 2 else out


def threshold_probability(matrix, s_target_bits: float):
    """Total probability of outcomes whose entropy reaches the target.

    All ten outcomes count; the four same-channel product outcomes carry
    S = 0 and therefore enter only at s_target <= 0 (where P = 1).
    """
    # the objective's own check rejects non-real values, NaN and targets outside [0, 1]
    s_target = ThresholdProbability(s_target_bits).s_target_bits
    u = np.asarray(matrix, dtype=complex)
    total = _evaluate(ThresholdProbability, fusion._rows(u), s_target)[0]
    return float(total) if u.ndim == 2 else total


# ---------------------------------------------------------------------------
# exact gradients


# (4, 6) incidences: column k = (i, j) of _INC_I is channel i's unit vector, of _INC_J j's
_INC_I, _INC_J = (np.eye(4)[:, p].copy() for p in (_PI, _PJ))


def _pullback(r, out, a, b, c=0.0) -> np.ndarray:
    """sum_k a_k dp_k + b_k p_k dS_k + c dp_diag with respect to the rows
    1-2 r, (2, 4, R), over the six relevant outcomes and the same-channel
    total p_diag; out = `fusion._outcomes(r)`, a and b are (6, R) or
    scalars, c (R,) or a scalar.  One vector-Jacobian product: G =
    df/dRe(r) + i df/dIm(r), (2, 4, R), with df = Re tr(G^H dr) that sum.
    Each term is a function of the Gram matrix of the columns r_i = r[:, i]:
    p_ij = 1/8 - n_i n_j / 2 - |o_ij|^2 / 2 with n_i = 1/2 - m_i, m_i =
    |r_i|^2, sum_i p_ii = 1/2 - sum_i n_i^2 / 2, and det_ij = t_ij t_kl /
    (4 p_ij)^2 (kl the complement of ij) with t_ij = |top_ij|^2 = m_i m_j -
    |o_ij|^2 by the Cauchy-Binet formula (Horn & Johnson, Matrix Analysis,
    0.8.7).  So p dS = S' (d(t_ij t_kl) / (16 p) - 2 det dp), zero where
    p = 0, with S' = `entanglement._entropy_slope` of det; with a' = a -
    2 b S' det, e = b S' / (8 p) and T_k = t_{5-k} (e_k + e_{5-k}), 2 df =
    sum_i W_ii dm_i - sum_{i<j} (a'_ij + T_ij) d|o_ij|^2, W_ii = sum_{j != i}
    (a'_ij n_j + T_ij m_j) + 2 c n_i.  dm_i pulls back to 2 r_i at column i,
    d|o_ij|^2 to 2 o_ij r_j at i and 2 conj(o_ij) r_i at j: G = r W, G_si =
    sum_j r_sj W_ji, with the Hermitian (4, 4, R) W_ij = -(a'_ij + T_ij) conj(o_ij)."""
    slope = b * entanglement._entropy_slope(out.det)
    a = a - 2.0 * slope * out.det
    live = out.p > 0.0
    e = np.where(live, slope / (8.0 * np.where(live, out.p, 1.0)), 0.0)
    t = out.top2[::-1] * (e + e[::-1])
    w = np.empty((4, 4) + out.m.shape[1:], dtype=complex)
    w_ii = _INC_I @ (a * out.n[_PJ] + t * out.m[_PJ]) + _INC_J @ (a * out.n[_PI] + t * out.m[_PI])
    w.reshape((16,) + out.m.shape[1:])[::5] = w_ii + 2.0 * c * out.n  # the diagonal
    off = (-a - t) * out.overlap
    w[_PI, _PJ] = off.conj()
    w[_PJ, _PI] = off
    return np.add.reduce(r[:, :, None] * w, 1)


# ---------------------------------------------------------------------------
# descent engine


def _evaluate(objective, r: np.ndarray, target):
    """(value, gap, out) of the rows 1-2 r, (2, 4, ...) batch last, under
    `objective` at per-row `target`, with out the kernel output of r."""
    out = fusion._outcomes(r)
    value, gap = objective._score(out, target)
    return value, gap, out


def _rank(value, gap, feasible) -> int:
    """Best candidate: the highest value if any is feasible, else the smallest gap."""
    if feasible.any():
        return int(np.argmax(np.where(feasible, value, -np.inf)))
    return int(np.argmin(np.abs(gap)))


def _tangent(r, x):
    """x projected onto the tangent space at the orthonormal rows r, both
    (2, 4, R): x - sym(x r^H) r, sym(y) = (y + y^H) / 2."""
    xr = np.add.reduce(x[:, None] * r.conj(), 2)
    sym = 0.5 * (xr + xr.conj().transpose(1, 0, 2))
    return x - np.add.reduce(sym[..., None, :] * r[None], 1)


def _run(objective, r, target, iterations: int, step: float):
    """Momentum descent of the orthonormal rows r, (2, 4, R), each restart
    at its own target (see the module docstring).  Returns (finals, trace):
    per restart the best feasible point visited, or else the point closest
    to its target, and the (iterations, R) hard values."""
    vel = np.zeros_like(r)
    best_value = np.full(r.shape[-1], -np.inf)
    best_r = r.copy()
    best_gap = np.full(r.shape[-1], np.inf)
    best_gap_r = r.copy()

    def track(points, value, gap):
        gap = np.abs(gap)
        upd = (gap <= FEASIBLE_BAND) & (value > best_value)
        np.copyto(best_value, value, where=upd)
        np.copyto(best_r, points, where=upd)
        upd = gap < best_gap
        np.copyto(best_gap, gap, where=upd)
        np.copyto(best_gap_r, points, where=upd)

    trace = np.zeros((iterations, r.shape[-1]))
    for it in range(iterations):
        value, gap, out = _evaluate(objective, r, target)
        trace[it] = value
        track(r, value, gap)
        grad = _pullback(r, out, *objective._weights(out, gap, target))
        # no entry of h * grad exceeds RETRACT_MAX, and the projection never
        # lengthens vel, so it stays within a few tens of RETRACT_MAX
        with np.errstate(divide="ignore"):
            h = np.minimum(step, RETRACT_MAX / np.abs(grad).max(axis=(0, 1)))
        vel = _tangent(r, MOMENTUM * vel - h * grad)
        r = matrices._gram_schmidt(r + vel)
    track(r, *_evaluate(objective, r, target)[:2])
    return np.where(best_value > -np.inf, best_r, best_gap_r), trace


def _complete(rows, seed: int) -> np.ndarray:
    """The unitary with the orthonormal rows 1-2 `rows`, (2, 4), and rows
    3-4 from `matrices.haar_sample`'s second stage at `seed`."""
    _, q = next(matrices._haar_rows(np.random.default_rng(seed), 1, rows[..., None]))
    return q[..., 0]  # one block, yielded once it is drawn without degeneracy


def _descend(objectives, cfg: OptimizerConfig) -> list[OptResult]:
    """One batched restart descent for T objectives of one kind, R =
    `cfg.restarts` rows each; see `sweep` and the module docstring."""
    obj = objectives[0]
    T, R = len(objectives), cfg.restarts
    targets = np.array([o._target for o in objectives])

    # one Haar candidate pool, scored at every target
    pool = np.empty((2, 4, R * cfg.init_samples), dtype=complex)
    for block, q in matrices._haar_rows(np.random.default_rng(cfg.master_seed), pool.shape[-1]):
        pool[..., block] = q
    value0, gap0, _ = _evaluate(obj, pool, targets[:, None])
    score0 = (value0 - L1_BETA * np.abs(gap0)).reshape(T, R, -1)
    starts = pool.reshape(2, 4, R, -1)[:, :, np.arange(R), np.argmax(score0, axis=-1)]

    target = np.repeat(targets, R)
    finals, trace = _run(obj, starts.reshape(2, 4, T * R), target, cfg.iterations, cfg.step)

    handed = np.empty((2, 4, 0), dtype=complex)
    if T > 1:
        # hand-off round: every target descends again, for a third of the
        # iterations, from the round-1 winners of its two sorted neighbours
        value1, gap1, _ = _evaluate(obj, finals, target)
        value1, gap1 = value1.reshape(T, R), gap1.reshape(T, R)
        best = [_rank(value1[t], gap1[t], np.abs(gap1[t]) <= FEASIBLE_BAND) for t in range(T)]
        winners = finals.reshape(2, 4, T, R)[:, :, np.arange(T), best]
        order = np.argsort(targets, kind="stable")
        src = np.concatenate([order[:-1], order[1:]])
        dst = np.concatenate([order[1:], order[:-1]])
        handed, _ = _run(obj, winners[..., src], targets[dst], cfg.iterations // 3, cfg.step)

    # final exchange: the builtins and every final point, ranked at every target
    names = matrices.BUILTIN_NAMES
    B = len(names)
    mats = np.stack([matrices.builtin(nm) for nm in names])
    points = np.concatenate([fusion._rows(mats), finals, handed], axis=-1)
    value, gap, out = _evaluate(obj, points, targets[:, None])
    value, gap = np.broadcast_arrays(value, gap)
    feasible = np.abs(gap) <= FEASIBLE_BAND
    p_total = np.sum(out.p, axis=0)

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
        best_matrix = mats[pick] if pick < B else _complete(points[..., pick], cfg.master_seed)
        # the outcomes of best_matrix: its rows 1-2 are points[..., pick]
        used = (out.p[:, pick] > STATES_P_FLOOR) & (out.s[:, pick] >= objective._s_floor - 1e-9)
        results.append(
            OptResult(
                best_matrix=best_matrix,
                hard_value=float(v[pick]),
                trace=tuple(float(x) for x in trace[:, t * R + winner_restart]),
                states_used=int(np.count_nonzero(used)),
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

    Each iteration takes the exact gradient of the objective's exact
    penalty with respect to rows 1-2 of U; see the module docstring.

    Deterministic for a given config: every random draw derives from
    `master_seed`, restarts advance in one batch, and ties in the final
    ranking resolve to the earliest candidate.  The same as a one-target
    `sweep`.
    """
    cfg = config if config is not None else OptimizerConfig()
    if not isinstance(objective, (ExpectationEntropy, ThresholdProbability)):
        raise TypeError(f"unknown objective {objective!r}")
    return _descend([objective], cfg)[0]


def sweep(kind: str, targets, config: OptimizerConfig | None = None) -> list[dict]:
    """Optimize every target in one batched descent, with a cross-target exchange.

    All targets share one candidate pool, drawn from `master_seed` as in
    `optimize`, and their restarts descend together as one batch.  With two
    or more targets a hand-off round follows: each target descends for a
    third of the iterations, with fresh momentum, from the round-1 winners
    of its neighbours in sorted target order.  Finally the builtins and every
    final point of both rounds are scored at every target, and each target
    ranks all of them.  So a matrix found for one target counts for every
    other: P(s) is weakly decreasing by construction.  At the default
    config and master seeds 0 to 3 the hand-off raises 10 to 15 of the 51
    targets p = 0.50, 0.51, ..., 1.00 by more than 1e-4 (by up to 0.0046),
    and 0 to 4 of the 26 targets s = 0, 0.04, ..., 1 (by up to 0.0029).
    `mean_value` covers the target's own restarts.  A one-target sweep is
    exactly `optimize`.  Rows come back in the order the targets were
    given, every one with `seed` = `master_seed`."""
    if kind not in ("expectation", "threshold"):
        raise ValueError(f"sweep kind must be expectation or threshold, got {kind!r}")
    cfg = config if config is not None else OptimizerConfig()
    objectives = [
        ExpectationEntropy(p_target=t) if kind == "expectation" else ThresholdProbability(t)
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

    Returns (rows, summary), rows one float64 array: (n, 2) of (p_total,
    S_exp), or in threshold mode (T n, 2) of (s_target, P), target by
    target.  The summary carries means and standard deviations for plotting
    reference bands.  `s_targets` (default 0, 0.1, ..., 1) is for threshold
    mode only.  Only rows 1-2 of each matrix, which fix every outcome, are
    drawn (`matrices.haar_sample`'s first stage at the same seed), and
    scored in blocks of `matrices._BLOCK`, which keeps temporaries in cache.
    """
    n = matrices._count(n, "n")
    seed = matrices._count(seed, "seed")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "expectation":
        if s_targets is not None:
            raise ValueError("s_targets is a threshold-mode argument")
        objective, target, rows = ExpectationEntropy, 0.0, np.empty((n, 2))
    elif mode == "threshold":
        if s_targets is None:
            s_targets = [k / 10 for k in range(11)]
        # the objective's own check rejects non-real values, NaN and targets outside [0, 1]
        s_targets = [ThresholdProbability(s).s_target_bits for s in s_targets]
        objective, target = ThresholdProbability, np.array(s_targets)[:, None]
        rows = np.empty((len(s_targets), n, 2))
    else:
        raise ValueError(f"mode must be expectation or threshold, got {mode!r}")
    for block, q in matrices._haar_rows(np.random.default_rng(seed), n):
        value, gap = objective._score(fusion._outcomes(q), target)
        # the gap is p_total - 0 in expectation mode and 0 in threshold
        # mode, so target + gap is the first column: p_total, or s
        rows[..., block, :] = np.stack([target + gap, value], axis=-1)
    if mode == "expectation":
        summary = {"n": n}
        for name, x in (("S_exp", rows[:, 1]), ("p_total", rows[:, 0])):
            summary[f"{name}_mean"], summary[f"{name}_std"] = float(np.mean(x)), float(np.std(x))
        return rows, summary
    summary = {"n": n, "targets": {}}
    for s, P_s in zip(s_targets, rows[..., 1]):
        summary["targets"][s] = {
            "P_mean": float(np.mean(P_s)),
            "P_std": float(np.std(P_s)),
            "P_max": float(np.max(P_s)),
        }
    return rows.reshape(-1, 2), summary
