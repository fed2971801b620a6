"""Fusion outcome decomposition for a 4x4 channel unitary.

Two photons entering the fusion apparatus are detected in one of 10
unordered channel-pair outcomes: four "same-channel" outcomes (i, i) where
both photons land in channel i, and six cross-channel outcomes (i, j) with
i < j.  Only the cross-channel ("relevant") outcomes can leave the remaining
cluster qubits entangled.

Conditioned on outcome (i, j), the unmeasured state is

    A f1 f3 + B f1 f4 + C f2 f3 + D f2 f4

in the orthonormal branch basis (f1, f2 | f3, f4) of the two clusters, with

    i < j:  A = U_1i U_3j + U_1j U_3i        i = j:  A = U_1i U_3i
            B = U_1i U_4j + U_1j U_4i                B = U_1i U_4i
            C = U_2i U_3j + U_2j U_3i                C = U_2i U_3i
            D = U_2i U_4j + U_2j U_4i                D = U_2i U_4i

(1-based row/channel indices).  Closed forms for the probabilities follow
from the per-channel invariants

    m_i = |U_1i|^2 + |U_2i|^2      n_i = 1/2 - m_i
    t_i = U_1i conj(U_2i)          k_i = |U_1i|^2 - |U_2i|^2

as  p_ij = 1/8 - n_i n_j / 2 - |U_1i conj(U_1j) + U_2i conj(U_2j)|^2 / 2
and p_ii = m_i (1 - m_i) / 2.  Channel indices in the public API are 1-based.

Every relevant outcome depends on rows 1-2 of U alone: rows 3-4 enter p_ij
not at all, and det_ij only through a minor equal to one of rows 1-2
(`entanglement.determinants_from_matrix`).  In fact they depend only on the
plane those rows span.  With t_ij = |U_1i U_2j - U_1j U_2i|^2 the squared
minors of rows 1-2, which sum to 1, the Cauchy-Binet formula (Horn &
Johnson, Matrix Analysis, 0.8.7) gives t_ij = m_i m_j - |o_ij|^2 for the
overlaps o_ij = U_1i conj(U_1j) + U_2i conj(U_2j), and row i of the
projector onto the plane gives m_i = sum_{j != i} t_ij.  Any other basis z
of the plane, z = A (rows 1-2) with A invertible, scales every minor by
det A, so t_ij = |minor_ij(z)|^2 / sum |minor(z)|^2 fixes m, |o|^2, p, det
and S without orthonormalizing z (`_plane_outcomes`).

The public kernels take stacked matrices of shape (..., 4, 4) and return
batched arrays.  They wrap one private kernel, `_outcomes`, which works
batch last: it reads rows 1-2 of U from a (2, 4, ...) array (`_rows`) and
returns (4, ...) or (6, ...) arrays, one row per channel or pair;
`_plane_outcomes` returns the same from any basis of the row plane.  One
matrix's outcomes, with their normalized coefficients, come from
`outcome_table`; `OutcomeTable.get(i, j)` picks one.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .matrices import UNITARY_TOL, DegenerateSampleError, FusionlabError, validate_unitary

__all__ = [
    "CHANNELS",
    "OUTCOME_ORDER",
    "RELEVANT_PAIRS",
    "ChannelInvariants",
    "InconsistentProbabilityError",
    "Outcome",
    "OutcomeTable",
    "channel_invariants",
    "outcome_table",
    "diag_probabilities",
    "relevant_probabilities",
    "total_relevant_probability",
    "raw_coefficient_blocks",
]

CHANNELS = (1, 2, 3, 4)

# fixed presentation order: the four same-channel outcomes, then the six
# cross-channel pairs in lexicographic order
OUTCOME_ORDER = (
    (1, 1), (2, 2), (3, 3), (4, 4),
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
)
RELEVANT_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# 0-based index arrays for the six pairs, used by the vectorized kernels
_PI = np.array([0, 0, 0, 1, 1, 2])
_PJ = np.array([1, 2, 3, 2, 3, 3])

# probabilities outside their bounds by at most this much are treated as
# rounding noise and clamped; anything worse indicates a genuine bug.  The
# closed forms assume exact unitarity, and validate_unitary accepts matrices
# up to UNITARY_TOL away from it: such a defect moves a closed-form
# probability by up to about half of it (measured on perturbed builtins and
# Haar matrices), so the clamp allows four times the accepted defect.
PROB_CLAMP = 4.0 * UNITARY_TOL


class InconsistentProbabilityError(FusionlabError, RuntimeError):
    """A computed probability violated its analytic bounds beyond rounding noise."""


class ChannelInvariants(NamedTuple):
    """Per-channel invariants of the top 2x4 block of the unitary.

    m: channel weights |U_1i|^2 + |U_2i|^2 (sum to 2)
    n: balance deviations 1/2 - m_i (sum to 0)
    t: top-row cross terms U_1i conj(U_2i) (sum to 0)
    k: row imbalances |U_1i|^2 - |U_2i|^2 (sum to 0)

    Each entry satisfies m_i^2 = 4 |t_i|^2 + k_i^2.  For batched input the
    fields have shape (..., 4).
    """

    m: np.ndarray
    n: np.ndarray
    t: np.ndarray
    k: np.ndarray


def channel_invariants(matrix) -> ChannelInvariants:
    u = np.asarray(matrix, dtype=complex)
    a2 = np.abs(u[..., 0, :]) ** 2
    b2 = np.abs(u[..., 1, :]) ** 2
    m = a2 + b2
    return ChannelInvariants(
        m=m,
        n=0.5 - m,
        t=u[..., 0, :] * u[..., 1, :].conj(),
        k=a2 - b2,
    )


# --------------------------------------------------------------------------- #
# vectorized probability / coefficient kernels
# --------------------------------------------------------------------------- #

def _check_and_clamp(p: np.ndarray, upper: float) -> np.ndarray:
    lo, hi = np.fmin.reduce(p, None, initial=np.inf), np.fmax.reduce(p, None, initial=-np.inf)
    if lo < -PROB_CLAMP or hi > upper + PROB_CLAMP:
        bad = float(lo if lo < -PROB_CLAMP else hi)
        raise InconsistentProbabilityError(
            f"probability {bad!r} outside [0, {upper}] beyond rounding tolerance"
        )
    return np.minimum(np.maximum(p, 0.0), upper)


# the kernel's output, batch last: m and n (4, ...); the overlaps o_ij =
# U_1i conj(U_1j) + U_2i conj(U_2j), p, |top|^2 of the minors of rows
# (1, 2), det and S in bits (6, ...); the last three None if it stops after
# p, the overlaps None from `_plane_outcomes`
_Outcomes = namedtuple("_Outcomes", "m n overlap p top2 det s")

_TINY = np.finfo(float).tiny

# the three pairs (RELEVANT_PAIRS positions) that contain each channel
_PAIRS_OF = np.array([[0, 0, 1, 2], [1, 3, 3, 4], [2, 4, 5, 5]])


def _rows(matrix) -> np.ndarray:
    """Rows 1-2 of a (..., 4, 4) matrix batch, batch last: contiguous
    (2, 4, ...) with [r, i] the batch of U_ri.  They fix every outcome."""
    u = np.asarray(matrix, dtype=complex)[..., :2, :]
    return np.ascontiguousarray(u.transpose(u.ndim - 2, u.ndim - 1, *range(u.ndim - 2)))


def _batch_first(x: np.ndarray) -> np.ndarray:
    """A batch-last kernel output (k, ...) as (..., k)."""
    return x.transpose(*range(1, x.ndim), 0)


def _top2(r: np.ndarray) -> np.ndarray:
    """|r_0i r_1j - r_0j r_1i|^2, the squared minors of the rows r, (2, 4,
    ...), on the six pairs, (6, ...)."""
    r0, r1 = r
    top = r0[_PI] * r1[_PJ] - r0[_PJ] * r1[_PI]
    return top.real**2 + top.imag**2


def _det_entropy(p: np.ndarray, top2: np.ndarray):
    """(det, S in bits), (6, ...) each, from p and top2: det = top2_ij
    top2_kl / (4 p_ij)^2 by `entanglement.determinants_from_matrix`'s
    identity, 0 where p = 0 and clipped to DET_MAX; S is
    `entanglement.entropy` of the larger eigenvalue, bit for bit and +0.0
    at det = 0, without its guards for eigenvalues outside [1/2, 1]."""
    from . import entanglement  # which builds on this module
    with np.errstate(divide="ignore", invalid="ignore"):
        det = top2 * top2[::-1] / np.maximum(4.0 * p, 1e-300) ** 2
    det[~(p > 0.0)] = 0.0
    np.minimum(det, entanglement.DET_MAX, out=det)  # det >= 0: top2 >= 0, p > 0
    lam = 0.5 * (1.0 + entanglement._snapped_root(det))
    lo = 1.0 - lam  # >= 0, and >= 2^-53 unless 0, where lo log2(tiny) = +0.0
    # at lo = 0 both terms are +0.0, and 0.0 - (+0.0) is +0.0 where -(+0.0) is not
    return det, 0.0 - (lam * np.log2(lam) + lo * np.log2(np.maximum(lo, _TINY)))


def _outcomes(r: np.ndarray, entropies: bool = True) -> _Outcomes:
    """Every relevant-outcome quantity (`_Outcomes`) of the matrices with
    rows 1-2 r[0], r[1], r of shape (2, 4, ...) from `_rows`.  det comes
    from `entanglement.determinants_from_matrix`'s identity; in
    RELEVANT_PAIRS order pair 5 - k is the complement of pair k."""
    r0, r1 = r
    m = np.abs(r0) ** 2 + np.abs(r1) ** 2
    n = 0.5 - m
    overlap = r0[_PI] * r0[_PJ].conj() + r1[_PI] * r1[_PJ].conj()
    p = _check_and_clamp(0.125 - 0.5 * n[_PI] * n[_PJ] - 0.5 * np.abs(overlap) ** 2, 0.25)
    if not entropies:
        return _Outcomes(m, n, overlap, p, None, None, None)
    top2 = _top2(r)
    return _Outcomes(m, n, overlap, p, top2, *_det_entropy(p, top2))


def _plane_outcomes(z: np.ndarray) -> _Outcomes:
    """`_outcomes` of the orthonormal rows that span the same plane as the
    rows z, (2, 4, ...), read from z's six minors (see the module
    docstring) with no orthonormalization and no overlaps (None); top2 is
    t, the normalized squared minors.  Raises DegenerateSampleError where
    `matrices._gram_schmidt` would: where |z_0| < 1e-12 or sum |minor|^2 /
    |z_0|^2, the squared norm of z_1 projected off z_0, is below 1e-24.
    Agrees with `_outcomes` of those rows up to rounding, not bit for bit."""
    top2 = _top2(z)
    plane = np.add.reduce(top2, 0)
    row0 = np.add.reduce(z[0].real ** 2 + z[0].imag ** 2, 0)
    if (row0 < 1e-24).any() or (plane < 1e-24 * row0).any():
        raise DegenerateSampleError("rows numerically linearly dependent")
    t = top2 / plane
    m = np.add.reduce(t[_PAIRS_OF], 0)
    m_i, m_j = m[_PI], m[_PJ]
    # 1/8 - n_i n_j / 2 - |o_ij|^2 / 2 with |o_ij|^2 = m_i m_j - t_ij
    p = _check_and_clamp(0.25 * (m_i + m_j) - m_i * m_j + 0.5 * t, 0.25)
    return _Outcomes(m, 0.5 - m, None, p, t, *_det_entropy(p, t))


def _diag(m: np.ndarray) -> np.ndarray:
    """Same-channel probabilities m_i (1 - m_i) / 2 from the channel weights."""
    return _check_and_clamp(0.5 * m * (1.0 - m), 0.125)


def diag_probabilities(matrix) -> np.ndarray:
    """Probabilities of the four same-channel outcomes, shape (..., 4)."""
    return _batch_first(_diag(_outcomes(_rows(matrix), entropies=False).m))


def relevant_probabilities(matrix) -> np.ndarray:
    """Probabilities of the six cross-channel outcomes, shape (..., 6).

    Order follows RELEVANT_PAIRS.  Each value is bounded by 1/4.
    """
    return _batch_first(_outcomes(_rows(matrix), entropies=False).p)


def total_relevant_probability(matrix) -> np.ndarray | float:
    """Total success probability (1 + sum n_i^2) / 2; lies in [1/2, 1]."""
    n = channel_invariants(matrix).n
    p = 0.5 * (1.0 + np.sum(n**2, axis=-1))
    return float(p) if p.ndim == 0 else p


def raw_coefficient_blocks(matrix):
    """Unnormalized (A, B, C, D) for all outcomes, vectorized.

    Returns (diag, rel) with shapes (..., 4, 4) and (..., 6, 4): the last
    axis runs over (A, B, C, D), the second-to-last over the outcome.
    """
    u = np.asarray(matrix, dtype=complex)
    r1, r2, r3, r4 = (u[..., r, :] for r in range(4))
    diag = np.stack(
        [r1 * r3, r1 * r4, r2 * r3, r2 * r4],
        axis=-1,
    )
    def sym(x, y):
        return x[..., _PI] * y[..., _PJ] + x[..., _PJ] * y[..., _PI]
    rel = np.stack(
        [sym(r1, r3), sym(r1, r4), sym(r2, r3), sym(r2, r4)],
        axis=-1,
    )
    return diag, rel


# --------------------------------------------------------------------------- #
# outcomes and the assembled table
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Outcome:
    """One detection outcome (i, j) with its conditional-state data.

    `a`..`d` are the normalized conditional-state coefficients (all zero when
    the outcome has zero probability), `raw` the unnormalized ones, `norm`
    the Euclidean norm of `raw`.  For relevant outcomes norm^2 = 4 p.
    """

    i: int
    j: int
    a: complex
    b: complex
    c: complex
    d: complex
    raw: tuple[complex, complex, complex, complex]
    norm: float
    probability: float
    relevant: bool
    zero_probability: bool

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    def to_json(self) -> dict:
        enc = lambda z: [float(z.real), float(z.imag)]
        return {
            "i": self.i,
            "j": self.j,
            "A": enc(self.a),
            "B": enc(self.b),
            "C": enc(self.c),
            "D": enc(self.d),
            "probability": float(self.probability),
            "relevant": self.relevant,
        }


def _build_outcome(i, j, raw, probability) -> Outcome:
    raw = np.asarray(raw, dtype=complex)
    norm = float(np.linalg.norm(raw))
    zero = probability <= 0.0 or norm <= 1e-15
    if zero:
        coeff = np.zeros(4, dtype=complex)
        probability = max(probability, 0.0)
    else:
        coeff = raw / norm
    return Outcome(
        i=i,
        j=j,
        a=complex(coeff[0]),
        b=complex(coeff[1]),
        c=complex(coeff[2]),
        d=complex(coeff[3]),
        raw=tuple(complex(z) for z in raw),
        norm=norm,
        probability=float(probability),
        relevant=i != j,
        zero_probability=bool(zero),
    )


@dataclass(frozen=True)
class OutcomeTable:
    """All 10 outcomes of a fusion matrix in the fixed OUTCOME_ORDER."""

    outcomes: tuple[Outcome, ...]

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def get(self, i: int, j: int) -> Outcome:
        """Outcome (i, j), 1-based channels, i <= j."""
        if (i, j) not in OUTCOME_ORDER:
            raise ValueError(f"need channel indices 1 <= i <= j <= 4, got ({i}, {j})")
        return self.outcomes[OUTCOME_ORDER.index((i, j))]

    @property
    def relevant(self) -> tuple[Outcome, ...]:
        return tuple(o for o in self.outcomes if o.relevant)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([o.probability for o in self.outcomes])

    def to_json(self) -> dict:
        return {"outcomes": [o.to_json() for o in self.outcomes]}


def outcome_table(matrix) -> OutcomeTable:
    """Assemble the full 10-outcome table; probabilities sum to 1."""
    u = validate_unitary(matrix)
    out = _outcomes(_rows(u), entropies=False)
    diag_p, rel_p = _diag(out.m), out.p
    diag_c, rel_c = raw_coefficient_blocks(u)
    rows = [
        _build_outcome(i, i, diag_c[i - 1], float(diag_p[i - 1]))
        for i in CHANNELS
    ]
    rows += [
        _build_outcome(i, j, rel_c[pos], float(rel_p[pos]))
        for pos, (i, j) in enumerate(RELEVANT_PAIRS)
    ]
    table = OutcomeTable(outcomes=tuple(rows))
    total = float(np.sum(table.probabilities))
    # each of the ten probabilities may carry up to PROB_CLAMP of error
    if abs(total - 1.0) > len(OUTCOME_ORDER) * PROB_CLAMP:
        raise InconsistentProbabilityError(
            f"outcome probabilities sum to {total!r}, expected 1"
        )
    return table
