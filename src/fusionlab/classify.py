"""Classification of conditional fusion states into structural families.

A normalized coefficient quadruple (A, B, C, D) is tested against a nested
hierarchy of forms:

* Product:              A D - B C = 0 (the two clusters disentangle)
* Stabilizer:           A = D = 0, |B| = |C|   or   B = C = 0, |A| = |D|;
                        the surviving ratio defines a phase Phi
* WeightedGraph:        |A|^2+|B|^2 = |C|^2+|D|^2 = 1/2 and
                        Re(A conj B) = Re(C conj D) = 0; parameterized by
                        (A, B) = e^{i theta1}/sqrt2 (cos phi1, i sin phi1),
                        (C, D) = e^{i theta2}/sqrt2 (i sin phi2, cos phi2);
                        the fused edge carries weight chi = 2(phi1-phi2)+pi
* ClusterUpToRotation:  the weighted-graph form with a common angle phi;
                        equivalent to a plain cluster state after local
                        Z-rotations
* MaxEntangledGeneric:  det = |A D - B C|^2 = 1/4; parameterized as
                        A = e^{i theta_a} cos phi / sqrt2,
                        B = e^{i theta_b} sin phi / sqrt2,
                        C = e^{i(theta_a+theta_d-theta_b)} sin phi / sqrt2,
                        D = -e^{i theta_d} cos phi / sqrt2

Containments (Stabilizer inside ClusterUpToRotation inside MaxEntangledGeneric,
and, for a single-neighbor fusion partner, Stabilizer inside WeightedGraph)
are enforced by construction so that borderline rounding cannot produce a
paradoxical label set: once Stabilizer or maximal entanglement is decided,
`classify` takes the weighted-graph and maximally-entangled parameters from
the ungated fits instead of re-testing their forms.  A quadruple whose norm
is further than `matrices.UNITARY_TOL` from 1, such as the all-zero
coefficients of a zero-probability Outcome, is rejected with ValueError, as
is a `tol` that is NaN, infinite or negative; `classify` itself labels such
an Outcome Product with its `zero_probability` flag set.  `classify`
validates the quadruple once and then runs the predicates' unchecked forms.

The weighted-graph reading of a partner qubit with two neighbors is only
available in the stabilizer case, so with `arity=2` the WeightedGraph label
simply mirrors Stabilizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fusion import Outcome
from .matrices import UNITARY_TOL

__all__ = [
    "LABELS",
    "WeightedGraphParams",
    "ClusterParams",
    "MaxEntangledParams",
    "Classification",
    "is_product",
    "is_stabilizer",
    "is_weighted_graph",
    "is_cluster_up_to_rotation",
    "max_entangled_params",
    "classify",
]

LABELS = (
    "Product",
    "Stabilizer",
    "WeightedGraph",
    "ClusterUpToRotation",
    "MaxEntangledGeneric",
    "Generic",
)

DEFAULT_TOL = 1e-8
_SQRT2 = np.sqrt(2.0)
_TWO_PI = 2.0 * np.pi


class WeightedGraphParams(NamedTuple):
    theta1: float
    phi1: float
    theta2: float
    phi2: float
    chi: float


class ClusterParams(NamedTuple):
    theta1: float
    theta2: float
    phi: float


class MaxEntangledParams(NamedTuple):
    theta_a: float
    theta_b: float
    theta_d: float
    phi: float


def _check_tol(tol: float) -> None:
    """ValueError unless `tol` is a finite number >= 0 (NaN fails)."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _coeffs(state, tol: float) -> np.ndarray:
    """The validated quadruple of `state`; ValueError for a tolerance that is
    NaN, infinite or negative, or a quadruple whose norm is off 1."""
    _check_tol(tol)
    c = state.coefficients if isinstance(state, Outcome) else np.asarray(state, dtype=complex)
    if c.shape != (4,):
        raise ValueError(f"expected 4 coefficients, got shape {c.shape}")
    norm = math.sqrt(np.vdot(c, c).real)
    if not abs(norm - 1.0) <= UNITARY_TOL:
        raise ValueError(f"expected a normalized quadruple, got norm {norm!r}")
    return c


def _wrap(angle: float) -> float:
    """Wrap into [0, 2 pi)."""
    return float(np.mod(angle, _TWO_PI))


def is_product(state, tol: float = DEFAULT_TOL) -> bool:
    return _product(_coeffs(state, tol), tol)


def _product(coeff, tol: float) -> bool:
    a, b, c, d = coeff
    return bool(abs(a * d - b * c) <= tol)


def is_stabilizer(state, tol: float = DEFAULT_TOL):
    """Phase Phi of the stabilizer form, or None if the state is not of it.

    For B = C = 0 the phase satisfies D = e^{i Phi} A; for A = D = 0 it
    satisfies C = e^{i Phi} B.  Returned in [0, 2 pi).
    """
    return _stabilizer(_coeffs(state, tol), tol)


def _stabilizer(coeff, tol: float):
    a, b, c, d = coeff
    if abs(b) <= tol and abs(c) <= tol and abs(abs(a) - abs(d)) <= tol:
        return _wrap(np.angle(d) - np.angle(a))
    if abs(a) <= tol and abs(d) <= tol and abs(abs(b) - abs(c)) <= tol:
        return _wrap(np.angle(c) - np.angle(b))
    return None


def _polar_pair(main: complex, side: complex):
    """Fit (main, side) = e^{i theta} (cos phi, i sin phi), both scaled by sqrt2."""
    u = _SQRT2 * main
    v = _SQRT2 * side
    if abs(u) > 1e-6:
        theta = float(np.angle(u))
    else:
        theta = float(np.angle(v) - 0.5 * np.pi)
    rot = np.exp(-1j * theta)
    phi = float(np.arctan2((v * rot).imag, (u * rot).real))
    return theta, phi


def is_weighted_graph(state, tol: float = DEFAULT_TOL):
    """Parameters of the weighted-graph form, or None.

    The four defining conditions are checked first; they are exactly
    equivalent to the existence of the parameterization, so no separate
    residual gate is applied.
    """
    return _weighted_graph(_coeffs(state, tol), tol)


def _weighted_graph(coeff, tol: float):
    a, b, c, d = coeff
    if abs(abs(a) ** 2 + abs(b) ** 2 - 0.5) > tol:
        return None
    if abs(abs(c) ** 2 + abs(d) ** 2 - 0.5) > tol:
        return None
    if abs((a * np.conj(b)).real) > tol or abs((c * np.conj(d)).real) > tol:
        return None
    return _weighted_graph_fit(coeff)


def _weighted_graph_fit(coeff) -> WeightedGraphParams:
    """Weighted-graph parameters of `coeff`, without checking the form."""
    a, b, c, d = coeff
    theta1, phi1 = _polar_pair(a, b)
    theta2, phi2 = _polar_pair(d, c)
    chi = _wrap(2.0 * (phi1 - phi2) + np.pi)
    return WeightedGraphParams(theta1, phi1, theta2, phi2, chi)


def _rebuild_cluster(theta1: float, theta2: float, phi: float) -> np.ndarray:
    e1 = np.exp(1j * theta1) / _SQRT2
    e2 = np.exp(1j * theta2) / _SQRT2
    return np.array(
        [e1 * np.cos(phi), 1j * e1 * np.sin(phi), 1j * e2 * np.sin(phi), e2 * np.cos(phi)]
    )


def is_cluster_up_to_rotation(state, tol: float = DEFAULT_TOL):
    """Fit A = e^{i t1} cos(phi)/sqrt2, B = i e^{i t1} sin(phi)/sqrt2,
    C = i e^{i t2} sin(phi)/sqrt2, D = e^{i t2} cos(phi)/sqrt2, or None.

    The phases are recovered through half angles: u^2 + v^2 = e^{2 i theta}
    for (u, v) = (sqrt2 A, -i sqrt2 B), which is free of degenerate branches;
    the leftover pi ambiguities (two per side) are settled by the
    reconstruction residual.
    """
    return _cluster(_coeffs(state, tol), tol)


def _cluster(coeff, tol: float):
    a, b, c, d = coeff
    u1, v1 = _SQRT2 * a, -1j * _SQRT2 * b
    u2, v2 = _SQRT2 * d, -1j * _SQRT2 * c
    z1 = u1 * u1 + v1 * v1
    z2 = u2 * u2 + v2 * v2
    # in-form states have |z| = 1 on both sides
    if abs(abs(z1) - 1.0) > 0.5 or abs(abs(z2) - 1.0) > 0.5:
        return None
    t1_half = 0.5 * np.angle(z1)
    t2_half = 0.5 * np.angle(z2)
    best = None
    for s1 in (0.0, np.pi):
        theta1 = t1_half + s1
        rot1 = np.exp(-1j * theta1)
        phi = float(np.arctan2((v1 * rot1).real, (u1 * rot1).real))
        for s2 in (0.0, np.pi):
            theta2 = t2_half + s2
            residual = float(
                np.max(np.abs(_rebuild_cluster(theta1, theta2, phi) - coeff))
            )
            if best is None or residual < best[0]:
                best = (residual, theta1, theta2, phi)
    residual, theta1, theta2, phi = best
    if residual > tol:
        return None
    # canonical ranges: fold phi into [0, pi) using the joint invariance
    # (theta1+pi, theta2+pi, phi+pi) -> identical coefficients
    if phi < 0:
        theta1, theta2, phi = theta1 + np.pi, theta2 + np.pi, phi + np.pi
    return ClusterParams(
        float(np.mod(theta1 + np.pi, _TWO_PI) - np.pi),
        float(np.mod(theta2 + np.pi, _TWO_PI) - np.pi),
        float(phi),
    )


def max_entangled_params(state, tol: float = DEFAULT_TOL):
    """Parameters of the general maximally entangled form, or None.

    Applicability is decided by |det - 1/4| <= tol alone; the returned
    parameters are the closed-form fit (exact for states exactly on the
    manifold).
    """
    coeff = _coeffs(state, tol)
    a, b, c, d = coeff
    if abs(abs(a * d - b * c) ** 2 - 0.25) > tol:
        return None
    return _max_entangled_fit(coeff)


def _max_entangled_fit(coeff) -> MaxEntangledParams:
    """Closed-form maximally-entangled parameters of `coeff`, ungated."""
    a, b, c, d = coeff
    phi = float(np.arctan2(abs(b), abs(a)))
    small = 1e-6
    if abs(a) > small:
        theta_a = float(np.angle(a))
    else:
        theta_a = 0.0
    if abs(b) > small:
        theta_b = float(np.angle(b))
    else:
        theta_b = 0.0
    if abs(d) > small:
        theta_d = float(np.angle(-d))
    else:
        # D ~ 0 means cos(phi) ~ 0; pick theta_d so that the C phase matches
        theta_d = float(np.angle(c) - theta_a + theta_b) if abs(c) > small else 0.0
    return MaxEntangledParams(theta_a, theta_b, theta_d, phi)


@dataclass(frozen=True)
class Classification:
    """Resulting label set plus the fitted parameters of each matched form."""

    labels: tuple[str, ...]
    arity: int = 1
    phi: float | None = None
    weighted_graph: WeightedGraphParams | None = None
    cluster: ClusterParams | None = None
    max_entangled: MaxEntangledParams | None = None
    zero_probability: bool = False

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def to_json(self) -> dict:
        out: dict = {"labels": list(self.labels), "arity": self.arity}
        if self.phi is not None:
            out["stabilizer_phi"] = float(self.phi)
        if self.weighted_graph is not None:
            out["weighted_graph"] = dict(self.weighted_graph._asdict())
        if self.cluster is not None:
            out["cluster_up_to_rotation"] = dict(self.cluster._asdict())
        if self.max_entangled is not None:
            out["max_entangled_generic"] = dict(self.max_entangled._asdict())
        if self.zero_probability:
            out["zero_probability"] = True
        return out


def _cluster_from_weighted(wg: WeightedGraphParams) -> ClusterParams:
    """Collapse a weighted-graph fit with sin(phi1 - phi2) ~ 0 to a cluster fit."""
    theta2, phi2 = wg.theta2, wg.phi2
    delta = phi2 - wg.phi1
    # fold phi2 by pi (an invariance of the (C, D) pair) to bring it next to phi1
    if np.cos(delta) < 0.0:  # delta near pi rather than 0
        theta2, phi2 = theta2 + np.pi, phi2 - np.pi
    phi = 0.5 * (wg.phi1 + phi2)
    if phi < 0:
        return ClusterParams(wg.theta1 + np.pi, theta2 + np.pi, phi + np.pi)
    return ClusterParams(wg.theta1, float(theta2), float(phi))


def classify(state, arity: int = 1, tol: float = DEFAULT_TOL) -> Classification:
    """Full label set of a conditional state.

    `state` is an Outcome or a normalized coefficient quadruple; `arity` in
    {1, 2} is the neighbor count of the fusion partner qubit on the second
    cluster.  A zero-probability Outcome classifies as Product with the
    `zero_probability` flag set.
    """
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    _check_tol(tol)
    if isinstance(state, Outcome) and state.zero_probability:
        return Classification(labels=("Product",), arity=arity, zero_probability=True)
    coeff = _coeffs(state, tol)
    a, b, c, d = coeff
    det = abs(a * d - b * c) ** 2

    labels: list[str] = []
    if _product(coeff, tol):
        labels.append("Product")
    phi = _stabilizer(coeff, tol)
    stab = phi is not None
    if stab:
        labels.append("Stabilizer")

    # a stabilizer state is of weighted-graph form; fitting it directly keeps
    # the rounding of |A|, |D| from breaking that containment
    wg = _weighted_graph_fit(coeff) if stab else _weighted_graph(coeff, tol)
    if (arity == 1 and wg is not None) or (arity == 2 and stab):
        labels.append("WeightedGraph")

    maxent = abs(det - 0.25) <= tol or stab
    cl = _cluster(coeff, tol)
    if cl is None and wg is not None and maxent:
        # near the maximal-entanglement manifold the determinant criterion is
        # quadratically better conditioned than the direct form residual, so
        # it decides membership; recover the common angle from the fit
        cl = _cluster_from_weighted(wg)
    if cl is not None:
        labels.append("ClusterUpToRotation")
        maxent = True
    if maxent:
        labels.append("MaxEntangledGeneric")
    if not labels:
        labels.append("Generic")

    ordered = tuple(l for l in LABELS if l in labels)
    return Classification(
        labels=ordered,
        arity=arity,
        phi=phi,
        weighted_graph=wg if "WeightedGraph" in ordered else None,
        cluster=cl,
        max_entangled=_max_entangled_fit(coeff) if maxent else None,
    )
