"""Entanglement measures of the conditional two-cluster state.

Conditioned on a relevant outcome with normalized coefficients (A, B, C, D),
tracing out one side leaves the 2x2 density matrix

    rho = [[|A|^2 + |B|^2,  conj(A) C + conj(B) D],
           [A conj(C) + B conj(D),  |C|^2 + |D|^2]]

whose determinant equals |A D - B C|^2.  Everything here flows from that
single number: the eigenvalue pair (1 +- sqrt(1 - 4 det)) / 2, the
entanglement entropy, and the Schmidt coefficients.  det = 1/4 characterizes
maximal entanglement; det = 0 a product state.
The batched functions wrap the batch-last kernel `fusion._outcomes`, which
clips its (6, ...) determinants itself and skips `entropy_from_det`'s check.
"""
from __future__ import annotations

import numpy as np

from .classify import _check_tol
from .fusion import RELEVANT_PAIRS, Outcome, relevant_probabilities, channel_invariants, _PI, _PJ
from .fusion import _batch_first, _outcomes, _rows
from .matrices import FusionlabError, validate_unitary

__all__ = [
    "ZeroProbabilityOutcomeError",
    "OutOfRangeError",
    "DET_MAX",
    "reduced_density",
    "determinant",
    "determinants_from_matrix",
    "eigenvalues_from_det",
    "entropy",
    "entropy_from_det",
    "entropies_from_matrix",
    "outcome_entropy",
    "schmidt",
    "is_maximally_entangled",
    "maxent_conditions",
]

DET_MAX = 0.25

# determinants within RANGE_TOL above DET_MAX (or below 0) are clamped, per
# the general rounding policy; anything further out raises OutOfRangeError
RANGE_TOL = 1e-12

# determinants this close below DET_MAX are snapped onto it, so that matrices
# which saturate the entanglement bound exactly (up to floating-point
# rounding, e.g. the builtin beam-splitter arrangements) evaluate to an
# entropy of exactly 1 bit.  Without the snap the knife-edge comparison
# S >= 1 would depend on the rounding direction of the last ulp.
BOUNDARY_SNAP = 1e-13

_LN2 = float(np.log(2.0))


class ZeroProbabilityOutcomeError(FusionlabError, ValueError):
    """The requested quantity is undefined for a zero-probability outcome."""


class OutOfRangeError(FusionlabError, ValueError):
    """A determinant landed outside [0, 1/4] beyond rounding tolerance."""


def _require_nonzero(outcome: Outcome) -> None:
    if outcome.zero_probability:
        raise ZeroProbabilityOutcomeError(
            f"outcome ({outcome.i}, {outcome.j}) has zero probability"
        )


def reduced_density(outcome: Outcome) -> np.ndarray:
    """2x2 reduced density matrix of the conditional state (first cluster traced in)."""
    _require_nonzero(outcome)
    a, b, c, d = outcome.a, outcome.b, outcome.c, outcome.d
    off = np.conj(a) * c + np.conj(b) * d
    return np.array(
        [
            [abs(a) ** 2 + abs(b) ** 2, off],
            [np.conj(off), abs(c) ** 2 + abs(d) ** 2],
        ]
    )


def determinant(outcome: Outcome) -> float:
    """det(rho) = |A D - B C|^2 of the normalized coefficients."""
    _require_nonzero(outcome)
    return float(abs(outcome.a * outcome.d - outcome.b * outcome.c) ** 2)


def determinants_from_matrix(matrix) -> np.ndarray:
    """All six relevant-outcome determinants via the factored identity

        |A D - B C| = |U_1i U_2j - U_1j U_2i| |U_1k U_2l - U_1l U_2k| / (4 p_ij)

    with {k, l} the complement of {i, j}: for a unitary U the minor of rows
    (3, 4) on (i, j) has the modulus of that of rows (1, 2) on (k, l), by
    Jacobi's complementary-minor identity (Horn & Johnson, Matrix Analysis,
    0.8.4).  Shape (..., 6) in RELEVANT_PAIRS order; zero-probability
    outcomes give 0.  This is an algebraically independent route from the
    coefficient-based `determinant` and serves as a cross-check of both.
    """
    return _batch_first(_outcomes(_rows(matrix)).det)


def _snapped_root(d: np.ndarray) -> np.ndarray:
    """sqrt(1 - 4 det) of determinants already in [0, DET_MAX], snapped per
    BOUNDARY_SNAP: 0 where DET_MAX - det <= BOUNDARY_SNAP.  Within 1/8 of
    DET_MAX, 1 - 4 det is exactly 4 (DET_MAX - det) (Sterbenz's lemma), so
    the test reads 1 - 4 det <= 4 BOUNDARY_SNAP."""
    x = np.asarray(1.0 - 4.0 * d)
    x[x <= 4.0 * BOUNDARY_SNAP] = 0.0
    return np.sqrt(x)


def eigenvalues_from_det(det):
    """Eigenvalue pair (lam+, lam-) of a 2x2 density matrix from its determinant.

    Scalar or array input.  Values in [-RANGE_TOL, 0) clamp to 0 and values
    in (1/4, 1/4 + RANGE_TOL] clamp to 1/4; anything further out raises
    OutOfRangeError.  Determinants within BOUNDARY_SNAP below 1/4 are snapped
    to exactly 1/4 (see the constant's comment).
    """
    d = np.asarray(det, dtype=float)
    if np.any(d < -RANGE_TOL) or np.any(d > DET_MAX + RANGE_TOL):
        bad = float(d.min()) if np.any(d < -RANGE_TOL) else float(d.max())
        raise OutOfRangeError(f"determinant {bad!r} outside [0, 1/4]")
    root = _snapped_root(np.clip(d, 0.0, DET_MAX))
    lam_hi = 0.5 * (1.0 + root)
    lam_lo = 0.5 * (1.0 - root)
    if np.ndim(det) == 0:
        return float(lam_hi), float(lam_lo)
    return lam_hi, lam_lo


def entropy(lam):
    """Binary entropy -lam log2 lam - (1-lam) log2(1-lam) with 0 log 0 := 0.

    `lam` is the larger eigenvalue (in [1/2, 1]); scalar or array.  The result
    is in bits; reports convert to nats with `reports.entropy_scale`.
    """
    lam = np.asarray(lam, dtype=float)
    lo = 1.0 - lam
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -(lam * np.log2(np.where(lam > 0, lam, 1.0))
              + lo * np.log2(np.where(lo > 0, lo, 1.0)))
    # exact endpoints: lam in {0, 1} -> 0 (the 0 log 0 convention)
    s = np.where((lam <= 0.0) | (lo <= 0.0), 0.0, s)
    return float(s) if s.ndim == 0 else s


def entropy_from_det(det):
    """Entanglement entropy in bits straight from the determinant (scalar or array)."""
    lam_hi, _ = eigenvalues_from_det(det)
    return entropy(lam_hi)


def _entropy_slope(d: np.ndarray) -> np.ndarray:
    """dS/ddet in bits: log2(lam+ / lam-) / sqrt(1 - 4 det) of d in [0, DET_MAX].

    lam+ / lam- is taken as lam+^2 / det, det floored at the smallest normal
    float so that product states keep a finite slope.  Near det = 1/4 the
    series 2 (1 + r^2 / 3) / ln 2 in r^2 = x = 1 - 4 det replaces the 0/0
    quotient; its truncation error at the switch r = 1e-4 is below 1e-16.
    """
    x = 1.0 - 4.0 * d
    root = np.sqrt(x)
    near = root < 1e-4
    lam_hi2 = (0.5 * (1.0 + root)) ** 2
    slope = np.log2(lam_hi2 / np.maximum(d, np.finfo(float).tiny)) / np.where(near, 1.0, root)
    return np.where(near, 2.0 / _LN2 + x * (2.0 / (3.0 * _LN2)), slope)


def entropies_from_matrix(matrix) -> np.ndarray:
    """Entropies in bits of all six relevant outcomes, shape (..., 6)."""
    return _batch_first(_outcomes(_rows(matrix)).s)


def outcome_entropy(outcome: Outcome) -> float:
    """Entanglement entropy in bits of one relevant outcome (0 for product states)."""
    return float(entropy_from_det(determinant(outcome)))


def schmidt(outcome: Outcome) -> tuple[float, float]:
    """Schmidt coefficients (alpha, beta) of the conditional state.

    Closed form through the determinant: alpha^2 and beta^2 are the
    eigenvalues of M M^H for M = [[A, B], [C, D]], i.e. (1 +- sqrt(1 -
    4 det)) / 2.  alpha >= beta >= 0 and alpha^2 + beta^2 = 1.
    """
    lam_hi, lam_lo = eigenvalues_from_det(determinant(outcome))
    return float(np.sqrt(lam_hi)), float(np.sqrt(lam_lo))


def maxent_conditions(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The two maximal-entanglement condition magnitudes for all six pairs.

    Returns (|n_i t_j + n_j t_i|, |n_i k_j + n_j k_i|), each shape (..., 6).
    Both vanish exactly when the conditional state is maximally entangled.
    """
    inv = channel_invariants(matrix)
    c1 = np.abs(inv.n[..., _PI] * inv.t[..., _PJ] + inv.n[..., _PJ] * inv.t[..., _PI])
    c2 = np.abs(inv.n[..., _PI] * inv.k[..., _PJ] + inv.n[..., _PJ] * inv.k[..., _PI])
    return c1, c2


def is_maximally_entangled(matrix, i: int, j: int, tol: float = 1e-8) -> bool:
    """Whether relevant outcome (i, j) is maximally entangled (det = 1/4).

    Decided through the channel-invariant conditions n_i t_j + n_j t_i = 0
    and n_i k_j + n_j k_i = 0 (both within `tol`), which avoids the
    amplification of dividing by small probabilities.  The outcome must have
    probability > tol, and `tol` must be finite and >= 0.
    """
    _check_tol(tol)
    if (i, j) not in RELEVANT_PAIRS:
        raise ValueError(f"({i}, {j}) is not a relevant channel pair")
    u = validate_unitary(matrix)
    pos = RELEVANT_PAIRS.index((i, j))
    if float(relevant_probabilities(u)[pos]) <= tol:
        raise ZeroProbabilityOutcomeError(
            f"outcome ({i}, {j}) has probability <= {tol}"
        )
    c1, c2 = maxent_conditions(u)
    return bool(c1[pos] <= tol and c2[pos] <= tol)
