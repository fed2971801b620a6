"""4x4 unitary fusion matrices: validation, builtins, sampling, parameterization.

A fusion setup is described by a single 4x4 unitary U that expands the photon
creation operators of the two input qubits (a_H, a_V, b_H, b_V) in the four
measured output channels.  Every other module consumes these matrices.  This
module owns:

* validation (unitarity within tolerance, shape and finiteness checks),
* named builtin matrices resolvable by string,
* Haar-distributed random sampling (QR with phase correction),
* a smooth, surjective 16-parameter map  params -> exp(i H)  with H Hermitian,
* diagonal phase dressing,
* JSON (de)serialization of matrices.

Matrices are plain complex numpy arrays of shape (4, 4); batched variants of
shape (..., 4, 4) are accepted wherever it is cheap to do so.
"""
from __future__ import annotations

import json
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
    "random_params",
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
    """Input is not a well-formed 4x4 complex matrix (or matrix file)."""


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
    dev = np.abs(u.conj().T @ u - np.eye(4))
    max_dev = float(dev.max())
    if max_dev > UNITARY_TOL:
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

def _haar_qr(z: np.ndarray):
    """QR-decompose `z` and fix phases so R has a positive real diagonal.

    Returns the corrected (q, r) pair with q r = z, q unitary and
    diag(r) strictly positive.  For a real diagonal this reduces to the
    familiar sign fix E_ij = sign(R_ii) delta_ij.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    if np.any(absd < 1e-12):
        raise DegenerateSampleError("QR diagonal entry numerically zero")
    phase = d / absd
    q = q * phase[..., None, :]
    r = r * phase.conj()[..., :, None]
    return q, r


def haar_sample(rng, size: int | None = None) -> np.ndarray:
    """Draw Haar-distributed 4x4 unitaries.

    `rng` is a numpy Generator or a seed for one.  With `size=None` a single
    (4, 4) matrix is returned, otherwise an array of shape (size, 4, 4).
    Each matrix consumes 32 standard normals (a complex Ginibre matrix) which
    is QR-decomposed; the phase correction makes the distribution exactly
    Haar.  Identical seeds give identical results.
    """
    rng = np.random.default_rng(rng)
    shape = () if size is None else (int(size),)
    for _ in range(5):
        z = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
        try:
            q, _ = _haar_qr(z)
        except DegenerateSampleError:
            continue
        return q
    raise DegenerateSampleError("repeated degenerate Ginibre draws")


# --------------------------------------------------------------------------- #
# 16-parameter exponential map
# --------------------------------------------------------------------------- #

# Hermitian generator layout: params[0:4] are the diagonal entries, the
# remaining 12 are (real, imag) pairs of the strict upper triangle in
# row-major order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(4, k=1)


def _hermitian_from_params(params: np.ndarray) -> np.ndarray:
    p = np.asarray(params, dtype=float)
    if p.shape[-1] != 16:
        raise MalformedInputError(f"expected 16 parameters, got {p.shape[-1]}")
    h = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
    idx = np.arange(4)
    h[..., idx, idx] = p[..., :4]
    off = p[..., 4::2] + 1j * p[..., 5::2]
    h[..., _TRIU_ROWS, _TRIU_COLS] = off
    h[..., _TRIU_COLS, _TRIU_ROWS] = off.conj()
    return h


def _params_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Inverse of `_hermitian_from_params`: (..., 4, 4) -> (..., 16), reading
    the diagonal and the strict upper triangle."""
    out = np.empty(h.shape[:-2] + (16,))
    idx = np.arange(4)
    out[..., :4] = h[..., idx, idx].real
    off = h[..., _TRIU_ROWS, _TRIU_COLS]
    out[..., 4::2] = off.real
    out[..., 5::2] = off.imag
    return out


def _exp_eigh(params):
    """(w, v, exp(i H)) with H = v diag(w) v^H the generator of `params`."""
    w, v = np.linalg.eigh(_hermitian_from_params(params))
    u = np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj())
    return w, v, u


def from_params(params) -> np.ndarray:
    """Map 16 real parameters to exp(i H) with H the Hermitian generator.

    Supports batches: input shape (..., 16) gives output (..., 4, 4).  The
    map is smooth and onto the full unitary group (every unitary is exp(iH)
    for some Hermitian H).  Computed through the eigendecomposition of H, so
    the result is unitary to machine precision.
    """
    return _exp_eigh(params)[2]


def params_from_matrix(matrix) -> np.ndarray:
    """Inverse of `from_params` on the principal branch.

    Diagonalizes the unitary, takes eigenphases in (-pi, pi], rebuilds the
    Hermitian generator and reads off the 16 parameters.  Round-trips through
    `from_params` up to machine precision.
    """
    u = validate_unitary(matrix)
    w, v = np.linalg.eig(u)
    phases = np.angle(w)
    h = (v * phases) @ np.linalg.inv(v)
    return _params_from_hermitian(0.5 * (h + h.conj().T))  # drop the anti-Hermitian residue


def random_params(rng, size=None) -> np.ndarray:
    """Uniform parameter draws in [-pi, pi]^16 (optimizer initialization).

    `size` may be None (one vector), an int, or a shape tuple; the parameter
    axis of length 16 is always appended last.
    """
    rng = np.random.default_rng(rng)
    if size is None:
        shape = (16,)
    elif np.isscalar(size):
        shape = (int(size), 16)
    else:
        shape = tuple(int(s) for s in size) + (16,)
    return rng.uniform(-np.pi, np.pi, size=shape)


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


def matrix_from_json(obj) -> np.ndarray:
    """Decode the {"matrix": ...} layout and validate unitarity."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise MalformedInputError('expected an object with a "matrix" key')
    rows = obj["matrix"]
    try:
        u = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
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
