"""4x4 unitary fusion matrices: validation, builtins, sampling, parameterization.

A fusion setup is described by a single 4x4 unitary U that expands the photon
creation operators of the two input qubits (a_H, a_V, b_H, b_V) in the four
measured output channels.  Every other module consumes these matrices.  This
module owns:

* validation (unitarity within tolerance, shape and finiteness checks),
* named builtin matrices resolvable by string,
* Haar-distributed random sampling (phase-fixed LQ by blocked Gram-Schmidt),
* a smooth, surjective 16-parameter map  params -> exp(i H)  with H Hermitian,
* diagonal phase dressing,
* JSON (de)serialization of matrices.

Matrices are plain complex numpy arrays of shape (4, 4); batched variants of
shape (..., 4, 4) are accepted wherever it is cheap to do so.
"""
from __future__ import annotations

import json
import numbers
import os

import numpy as np

from . import reports

__all__ = [
    "FusionlabError",
    "MalformedInputError",
    "NotUnitaryError",
    "DegenerateSampleError",
    "UNITARY_TOL",
    "BUILTIN_NAMES",
    "builtin",
    "validate_unitary",
    "haar_sample",
    "from_params",
    "params_from_matrix",
    "phase_multiply",
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
    "resolve_matrix",
]

UNITARY_TOL = 1e-9


class FusionlabError(Exception):
    """Base of every error the package raises on purpose."""


class MalformedInputError(FusionlabError, ValueError):
    """Input is not a well-formed 4x4 complex matrix (or matrix file), a
    sample count is not a non-negative integer, or a numeric setting is not
    a real number."""


class NotUnitaryError(FusionlabError, ValueError):
    """Matrix fails the unitarity check; carries the worst deviation."""

    def __init__(self, max_deviation: float):
        self.max_deviation = float(max_deviation)
        super().__init__(
            f"matrix is not unitary: max |U^H U - I| = {self.max_deviation:.3e}"
        )


class DegenerateSampleError(FusionlabError, RuntimeError):
    """QR factor had a (numerically) zero diagonal entry after repeated draws."""


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #

def validate_unitary(matrix) -> np.ndarray:
    """Check that `matrix` is a 4x4 unitary and return it as complex128.

    Raises MalformedInputError for anything that is not a finite 4x4 numeric
    array, and NotUnitaryError (carrying `max_deviation`) when
    max |U^H U - I| exceeds UNITARY_TOL.  The tolerance is fixed because the
    probability kernels downstream (`fusion.PROB_CLAMP`) are sized for it.
    """
    try:
        u = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"cannot interpret input as a matrix: {exc}") from exc
    if u.shape != (4, 4):
        raise MalformedInputError(f"expected shape (4, 4), got {u.shape}")
    if not np.all(np.isfinite(u.view(float))):
        raise MalformedInputError("matrix contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        max_dev = float(np.abs(u.conj().T @ u - np.eye(4)).max())
    if not max_dev <= UNITARY_TOL:  # a defect that overflows to NaN fails too
        raise NotUnitaryError(max_dev)
    return np.array(u, dtype=complex, order="C")


# --------------------------------------------------------------------------- #
# builtin matrices
# --------------------------------------------------------------------------- #

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_BUILTINS = {
    # trivial channel mapping; every outcome is a product state
    "identity": np.eye(4, dtype=complex),
    # polarizing beam splitter followed by 45-degree polarizers on both arms:
    # the standard type-II fusion arrangement
    "pbs2": 0.5 * np.array(
        [
            [1, 1, 1, -1],
            [1, 1, -1, 1],
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
        ],
        dtype=complex,
    ),
    # two local Hadamard-type rotations, one per input qubit; reaches the
    # 1/2 success bound with the minimal number of elementary gates
    "theorem7": _INV_SQRT2 * np.array(
        [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [-1, 0, 1, 0],
            [0, -1, 0, 1],
        ],
        dtype=complex,
    ),
    # block-diagonal pair of 2x2 Hadamards: succeeds with certainty but every
    # conditional state is a product state
    "blockpair": _INV_SQRT2 * np.array(
        [
            [1, 1, 0, 0],
            [1, -1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, -1],
        ],
        dtype=complex,
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> np.ndarray:
    """Return a copy of the named builtin matrix."""
    try:
        return _BUILTINS[name].copy()
    except KeyError:
        raise MalformedInputError(
            f"unknown builtin matrix {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None


# --------------------------------------------------------------------------- #
# Haar sampling
# --------------------------------------------------------------------------- #

_BLOCK = 1024  # matrices per vectorised block; a block's work arrays stay in L2


def _count(n, name: str = "size") -> int:
    """`n` as an int; MalformedInputError unless it is a non-negative integer."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0:
        return int(n)
    raise MalformedInputError(f"{name} must be a non-negative integer, got {n!r}")


def _real(x, name: str) -> float:
    """`x` as a float; MalformedInputError unless it is a real number (NaN
    and infinities pass, for the caller's range check)."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        return float(x)
    raise MalformedInputError(f"{name} must be a real number, got {x!r}")


def _gram_schmidt(z: np.ndarray, done: np.ndarray | None = None) -> np.ndarray:
    """q, (j + k, m, B) rows first and batch last: the orthonormal rows
    `done` (j, m, B), then the rows of the complex z (k, m, B) made
    orthonormal by classical Gram-Schmidt, applied twice per row, which
    keeps them so to machine precision (Giraud, Langou & Rozlozník, Comput.
    Math. Appl. 50, 1069, 2005).  For a square z this is z = L Q with
    diag(L) > 0, the row norms after the projections, so Q is the
    phase-fixed Q of Mezzadri (Notices AMS 54, 592, 2007), the transposed
    Householder Q of z^T up to rounding.  q is a fresh C-contiguous copy:
    on a strided view `np.add.reduce` would round differently."""
    q = np.array(z if done is None else np.concatenate([done, z]), dtype=complex, order="C")
    for j in range(len(q) - len(z), len(q)):
        v = q[j]
        if j:  # project out rows 0 .. j-1, twice; np.add.reduce beats .sum at batch 1
            q_done, q_conj = q[:j], q[:j].conj()
            for _ in range(2):
                v = v - np.add.reduce(q_done * np.add.reduce(q_conj * v, 1, keepdims=True))
        norm = np.sqrt(np.add.reduce((v * v.conj()).real))
        if norm.min() < 1e-12:
            raise DegenerateSampleError("Gram-Schmidt row norm numerically zero")
        np.multiply(v, 1.0 / norm, out=q[j])  # what numpy's complex division by a real computes
    return q


def _haar_rows(rng, n: int, done: np.ndarray | None = None, finish=None):
    """Yield (block, finish(z)), `_BLOCK` matrices at a time, z the complex
    (2, 4, b) Ginibre rows of n Haar unitaries, rows first and batch last;
    with rows `done` (j, 4, n) given, finish(z, done[..., block]).
    `finish` defaults to `_gram_schmidt`, which makes z orthonormal after
    `done`: so `haar_sample`, the optimizer's pool and its completion of a
    winner get their rows.  `optimize.random_scatter` passes
    `fusion._plane_outcomes`, which scores the plane of z's rows without
    orthonormalizing them; one generator gives it and `haar_sample` the
    same matrices at a seed, after a redraw too.  The stream holds all n
    real parts, shape (n, 2, 4), then the imaginary parts, drawn block by
    block.  A block that `finish` finds degenerate (DegenerateSampleError;
    both finishers apply Gram-Schmidt's criterion) redraws all n, five
    draws at most, and yields again from the first block: consumers write
    each result into its block's slice."""
    finish = _gram_schmidt if finish is None else finish
    for _ in range(5):
        re, drawn = rng.standard_normal((n, 2, 4)), 0
        try:
            for k in range(0, n, _BLOCK):
                block = slice(k, k + _BLOCK)
                im = rng.standard_normal(re[block].shape)
                drawn += len(im)
                z = np.empty(im.shape[1:] + im.shape[:1], dtype=complex)
                z.real, z.imag = re[block].transpose(1, 2, 0), im.transpose(1, 2, 0)
                yield block, finish(z) if done is None else finish(z, done[..., block])
            return
        except DegenerateSampleError:
            rng.standard_normal((n - drawn, 2, 4))  # the rest of this draw
    raise DegenerateSampleError("repeated degenerate Ginibre draws")


def haar_sample(rng, size: int | None = None) -> np.ndarray:
    """Draw Haar-distributed 4x4 unitaries.

    `rng` is a numpy Generator or a seed for one.  With `size=None` a single
    (4, 4) matrix is returned, otherwise an array of shape (size, 4, 4) for
    a non-negative integer `size`.  Each matrix is the phase-fixed Q of
    G = L Q for a complex Ginibre G, exactly Haar (`_gram_schmidt`), drawn
    in two stages (`_haar_rows`): rows 1-2 of every matrix, the rows
    `optimize.random_scatter` scores at the same seed, then rows 3-4.  The
    stream holds rows 1-2's real then imaginary parts, then rows 3-4's.
    Identical seeds give identical results.
    """
    n = 1 if size is None else _count(size)
    rng = np.random.default_rng(rng)
    out = np.empty((n, 4, 4), dtype=complex)
    for block, q in _haar_rows(rng, n):
        out[block, :2] = q.transpose(2, 0, 1)
    for block, q in _haar_rows(rng, n, out[:, :2].transpose(1, 2, 0)):
        out[block, 2:] = q[2:].transpose(2, 0, 1)
    return out[0] if size is None else out


# --------------------------------------------------------------------------- #
# 16-parameter exponential map
# --------------------------------------------------------------------------- #

# Hermitian generator layout: params[0:4] are the diagonal entries, the
# remaining 12 are (real, imag) pairs of the strict upper triangle in
# row-major order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4, k=1)


def from_params(params) -> np.ndarray:
    """Map 16 real parameters to exp(i H) with H the Hermitian generator.

    Supports batches: input shape (..., 16) gives output (..., 4, 4).  The
    map is smooth and onto the full unitary group (every unitary is exp(iH)
    for some Hermitian H).  Computed through the eigendecomposition of H, so
    the result is unitary to machine precision.
    """
    p = np.asarray(params, dtype=float)
    if p.shape[-1] != 16:
        raise MalformedInputError(f"expected 16 parameters, got {p.shape[-1]}")
    h = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
    h[..., range(4), range(4)] = p[..., :4]
    h[..., _TRIU_ROWS, _TRIU_COLS] = p[..., 4::2] + 1j * p[..., 5::2]
    h[..., _TRIU_COLS, _TRIU_ROWS] = p[..., 4::2] - 1j * p[..., 5::2]
    w, v = np.linalg.eigh(h)
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj())


def params_from_matrix(matrix) -> np.ndarray:
    """Inverse of `from_params` on the principal branch.

    Diagonalizes the unitary, takes eigenphases in (-pi, pi], rebuilds the
    Hermitian generator and reads off the 16 parameters.  Round-trips through
    `from_params` up to machine precision.
    """
    u = validate_unitary(matrix)
    w, v = np.linalg.eig(u)
    h = (v * np.angle(w)) @ np.linalg.inv(v)
    h = 0.5 * (h + h.conj().T)  # drop the anti-Hermitian residue
    off = h[_TRIU_ROWS, _TRIU_COLS]
    return np.concatenate([h.diagonal().real, np.stack([off.real, off.imag], axis=-1).ravel()])


# --------------------------------------------------------------------------- #
# phase dressing
# --------------------------------------------------------------------------- #

def phase_multiply(matrix, left, right) -> np.ndarray:
    """Return diag(e^{i left}) @ U @ diag(e^{i right}).

    `left` and `right` are length-4 real phase vectors.  All outcome
    probabilities and entropies downstream are invariant under this dressing.
    """
    u = np.asarray(matrix, dtype=complex)
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != (4,) or right.shape != (4,):
        raise MalformedInputError("phase vectors must have length 4")
    return np.exp(1j * left)[:, None] * u * np.exp(1j * right)[None, :]


# --------------------------------------------------------------------------- #
# JSON serialization
# --------------------------------------------------------------------------- #

def matrix_to_json(matrix) -> dict:
    """Encode as {"matrix": 4x4 nested lists of [re, im] pairs} (row-major)."""
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (4, 4):
        raise MalformedInputError(f"expected shape (4, 4), got {u.shape}")
    return {
        "matrix": [
            [[float(u[r, c].real), float(u[r, c].imag)] for c in range(4)]
            for r in range(4)
        ]
    }


def _cell(cell) -> complex:
    """One [re, im] entry of the JSON layout: two real, non-boolean numbers."""
    if isinstance(cell, (list, tuple)) and len(cell) == 2:
        return complex(*(_real(x, "each part of a matrix entry") for x in cell))
    raise MalformedInputError(f"matrix entries must be [re, im] pairs, got {cell!r}")


def matrix_from_json(obj) -> np.ndarray:
    """Decode the {"matrix": ...} layout and validate unitarity."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise MalformedInputError('expected an object with a "matrix" key')
    try:
        u = np.array([[_cell(cell) for cell in row] for row in obj["matrix"]], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"bad matrix entries: {exc}") from exc
    return validate_unitary(u)


def save_matrix(path, matrix) -> None:
    """Write the JSON encoding atomically (temp file + rename)."""
    reports.atomic_write_text(path, json.dumps(matrix_to_json(matrix), indent=2) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise MalformedInputError(f"{path}: JSON nested too deeply") from exc
    return matrix_from_json(obj)


def resolve_matrix(source: str) -> np.ndarray:
    """Resolve a builtin name or a JSON file path to a validated matrix."""
    if source in _BUILTINS:
        return builtin(source)
    if os.path.exists(source):
        return load_matrix(source)
    raise MalformedInputError(
        f"{source!r} is neither a builtin name ({', '.join(BUILTIN_NAMES)}) "
        "nor an existing file"
    )
