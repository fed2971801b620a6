"""Brute-force verification backend.

Everything in here re-derives fusion physics from first principles on dense
state vectors (shape ``(2,)*n`` complex tensors, axis i = qubit i) or, for
`bosonic_outcome_table`, from an explicit two-photon Fock expansion.  None of
the closed-form probability/entropy formulas of the analytic modules are used,
which is the point: agreement between the two routes is the strongest
correctness evidence the package has.

Graph states are built the standard way: |+>^n, a CZ per edge, optionally one
"special" edge carrying diag(1,1,1,e^{i chi}) instead of CZ (chi = pi recovers
CZ), and a Z on every flagged vertex so that K_a = X_a prod_{b in n(a)} Z_b
has eigenvalue (-1)^{k_a}.

A fusion scenario joins two marked clusters.  The marked left qubit a may
carry a logical partner e (|0>_L = |00>_{ae}, |1>_L = |11>_{ae}), realized
here by duplicating the qubit's bit into a fresh axis; the fusion projector
A<00| + B<01| + C<10| + D<11| then consumes qubits (a, b) and leaves e behind
as the carrier of the fused link.  `_fused_graph` alone derives that register:
which axes survive, which side each is on, and the graph and flags the
verdicts expect on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fusion import OUTCOME_ORDER, Outcome, OutcomeTable
from .matrices import FusionlabError, MalformedInputError, validate_unitary

__all__ = [
    "MAX_QUBITS",
    "DEFAULT_TOL",
    "STATE_TOL",
    "TooManyQubits",
    "ZeroOverlap",
    "GraphSpec",
    "graph",
    "parse_graph_spec",
    "parse_scenario",
    "build_graph_state",
    "check_stabilizers",
    "apply_fusion_projector",
    "bipartite_entropy",
    "expand_logical",
    "FusionScenario",
    "FusionRun",
    "fuse",
    "check_Te_stabilizer",
    "check_weighted_graph_equivalence",
    "bosonic_outcome_table",
    "compare_scenario",
    "random_graph_spec",
    "random_scenario",
]

MAX_QUBITS = 14

# agreement demanded of `compare_scenario` between the projector and the
# closed forms (weight and cut entropy); outcomes at or below it in
# probability are skipped.  `fusionlab oracle --tol` defaults to it.
DEFAULT_TOL = 1e-9

# stabilizer eigen-equations and the weighted-graph overlap are met by a
# correct state vector to this accuracy
STATE_TOL = 1e-10

# a projection whose result has a smaller norm than this annihilated the state
_NORM_FLOOR = 1e-12

_SQRT2 = np.sqrt(2.0)


class TooManyQubits(FusionlabError):
    """Dense simulation refuses registers above MAX_QUBITS."""


class ZeroOverlap(FusionlabError):
    """A projection annihilated the state."""


# ---------------------------------------------------------------------------
# graphs


def _is_int(x) -> bool:
    """Python or numpy integer; bools are not vertex counts or labels."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class GraphSpec:
    """Undirected graph with per-vertex sign flags and at most one phase edge.

    `edges` are sorted unordered pairs of 0-based vertices; `k_flags` holds one
    bit per vertex (empty means all 0); `special_edge` is (u, v, chi) for the
    lone weighted edge, with chi finite.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    k_flags: tuple[int, ...] = ()
    special_edge: tuple[int, int, float] | None = None

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise MalformedInputError(f"graph needs an integer n >= 1, got {self.n!r}")
        flags = tuple(self.k_flags) or (0,) * self.n
        if len(flags) != self.n:
            raise MalformedInputError(f"expected {self.n} flag bits, got {len(flags)}")
        if any(k not in (0, 1) for k in flags):
            raise MalformedInputError("flag bits must be 0 or 1")
        object.__setattr__(self, "k_flags", tuple(int(k) for k in flags))
        vertex = lambda x: _is_int(x) and 0 <= x < self.n
        for (u, v) in self.edges:
            if not (vertex(u) and vertex(v)) or u == v:
                raise MalformedInputError(f"bad edge ({u}, {v}) for n={self.n}")
        if self.special_edge is not None:
            u, v, chi = self.special_edge
            if not (vertex(u) and vertex(v)) or u == v or not np.isfinite(chi):
                raise MalformedInputError(f"bad special edge {self.special_edge}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [w if u == v else u for (u, w) in self.edges if v in (u, w)]
        if self.special_edge is not None:
            u, w, _ = self.special_edge
            if v == u:
                out.append(w)
            elif v == w:
                out.append(u)
        return tuple(sorted(set(out)))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def graph(n, edges=(), k_flags=None, special=None) -> GraphSpec:
    """Normalizing constructor: sorts and deduplicates edges."""
    norm = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
    flags = tuple(k_flags) if k_flags is not None else ()
    sp = None
    if special is not None:
        u, v, chi = special
        sp = (min(u, v), max(u, v), float(chi))
    return GraphSpec(n=n, edges=tuple(norm), k_flags=flags, special_edge=sp)


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse the plain-text graph format.

    First data line: ``n`` optionally followed by n flag bits; then one
    ``u v`` line per edge; optionally one ``special u v chi`` line.  Blank
    lines and ``#`` comments are ignored.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MalformedInputError("empty graph description")
    head = lines[0].split()
    try:
        n = int(head[0])
        if n > MAX_QUBITS:  # before anything of size n is built
            raise TooManyQubits(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        flags = [int(tok) for tok in head[1:]]
    except ValueError as exc:
        raise MalformedInputError(f"bad header line {lines[0]!r}") from exc
    edges = []
    special = None
    for ln in lines[1:]:
        toks = ln.split()
        try:
            if toks[0] == "special":
                if special is not None:
                    raise MalformedInputError("more than one special edge")
                special = (int(toks[1]), int(toks[2]), float(toks[3]))
            elif len(toks) == 2:
                edges.append((int(toks[0]), int(toks[1])))
            else:
                raise MalformedInputError(f"bad line {ln!r}")
        except (ValueError, IndexError) as exc:
            raise MalformedInputError(f"bad line {ln!r}") from exc
    return graph(n, edges, flags, special)


def parse_scenario(text: str) -> "FusionScenario":
    """Parse a whole fusion scenario from one text file.

    Layout: a ``left`` keyword line followed by that cluster's graph block,
    a ``right`` keyword line and block, and one ``fuse a b`` line naming the
    marked qubits (0-based, a in the left graph, b in the right).  Appending
    ``nopartner`` to the fuse line drops the logical partner qubit.  Blank
    lines and ``#`` comments are ignored throughout.
    """
    blocks: dict[str, list[str]] = {"left": [], "right": []}
    fuse_tokens = None
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in blocks:
            current = low
            continue
        if low.split()[0] == "fuse":
            if fuse_tokens is not None:
                raise MalformedInputError("more than one fuse line")
            fuse_tokens = line.split()[1:]
            current = None
            continue
        if current is None:
            raise MalformedInputError(f"line {raw!r} outside left/right/fuse sections")
        blocks[current].append(line)
    if not blocks["left"] or not blocks["right"]:
        raise MalformedInputError("scenario needs both a left and a right graph block")
    if fuse_tokens is None:
        raise MalformedInputError("scenario needs a 'fuse a b' line")
    partner = True
    if fuse_tokens and fuse_tokens[-1].lower() == "nopartner":
        partner = False
        fuse_tokens = fuse_tokens[:-1]
    if len(fuse_tokens) != 2:
        raise MalformedInputError("fuse line must name exactly two qubits")
    try:
        a, b = int(fuse_tokens[0]), int(fuse_tokens[1])
    except ValueError as exc:
        raise MalformedInputError(f"bad fuse qubits {fuse_tokens!r}") from exc
    return FusionScenario(
        left=parse_graph_spec("\n".join(blocks["left"])),
        a=a,
        right=parse_graph_spec("\n".join(blocks["right"])),
        b=b,
        logical_partner=partner,
    )


# ---------------------------------------------------------------------------
# state construction and basic operators


def _at(ndim: int, bits: dict) -> tuple:
    """Index of a (2,)*ndim state that fixes each axis in `bits` to its bit."""
    idx = [slice(None)] * ndim
    for axis, bit in bits.items():
        idx[axis] = bit
    return tuple(idx)


def build_graph_state(g: GraphSpec) -> np.ndarray:
    if g.n > MAX_QUBITS:
        raise TooManyQubits(f"{g.n} qubits exceeds the dense cap of {MAX_QUBITS}")
    psi = np.full((2,) * g.n, 2.0 ** (-g.n / 2.0), dtype=complex)
    for (u, v) in g.edges:
        psi[_at(g.n, {u: 1, v: 1})] *= -1.0
    if g.special_edge is not None:
        u, v, chi = g.special_edge
        psi[_at(g.n, {u: 1, v: 1})] *= np.exp(1j * chi)
    for a, k in enumerate(g.k_flags):
        if k:
            psi[_at(g.n, {a: 1})] *= -1.0
    return psi


def _apply_k(state: np.ndarray, axis: int, neighbors) -> np.ndarray:
    """X on `axis`, Z on each neighbor axis."""
    out = state.copy()
    for b in neighbors:
        out[_at(out.ndim, {b: 1})] *= -1.0
    return np.flip(out, axis=axis)


def check_stabilizers(state: np.ndarray, g: GraphSpec) -> bool:
    """True iff K_a state = (-1)^{k_a} state for every vertex (plain edges only)."""
    if g.special_edge is not None:
        raise ValueError("stabilizer check is only defined for unweighted graphs")
    for a in range(g.n):
        expect = (-1.0) ** g.k_flags[a] * state
        if np.max(np.abs(_apply_k(state, a, g.neighbors(a)) - expect)) > STATE_TOL:
            return False
    return True


def expand_logical(state: np.ndarray, a: int) -> np.ndarray:
    """Append a logical partner axis that copies qubit a's bit.

    The new qubit occupies the last axis; amplitudes with unequal (a, partner)
    bits are zero, so the (a, partner) = (x, x) slices hold the whole state.
    """
    if state.ndim + 1 > MAX_QUBITS:
        raise TooManyQubits("logical expansion exceeds the dense cap")
    out = np.zeros(state.shape + (2,), dtype=complex)
    for x in (0, 1):
        idx = _at(state.ndim, {a: x})
        out[idx + (x,)] = state[idx]
    return out


def apply_fusion_projector(state: np.ndarray, a: int, b: int, coeffs):
    """Apply A<00| + B<01| + C<10| + D<11| on qubits (a, b) and drop them.

    Returns (renormalized state, weight) with weight the squared norm of the
    projected vector; with unnormalized outcome coefficients this equals the
    outcome probability.
    """
    if a == b:
        raise ValueError("need two distinct qubits")
    ca, cb, cc, cd = (complex(z) for z in coeffs)
    blocks = {}
    for x in (0, 1):
        for y in (0, 1):
            blocks[(x, y)] = state[_at(state.ndim, {a: x, b: y})]
    new = ca * blocks[0, 0] + cb * blocks[0, 1] + cc * blocks[1, 0] + cd * blocks[1, 1]
    weight = float(np.sum(np.abs(new) ** 2))
    if weight <= _NORM_FLOOR**2:
        raise ZeroOverlap("fusion projector annihilated the state")
    return new / np.sqrt(weight), weight


def bipartite_entropy(state: np.ndarray, left_set) -> float:
    """Von Neumann entropy (bits) across the cut left_set | rest."""
    left = sorted(set(int(v) for v in left_set))
    rest = [v for v in range(state.ndim) if v not in left]
    if not left or not rest:
        raise ValueError("bipartition must be non-trivial")
    m = np.transpose(state, left + rest).reshape(2 ** len(left), -1)
    sv = np.linalg.svd(m, compute_uv=False)
    p = sv**2
    p = p[p > 1e-15]
    p = p / p.sum()
    # 0.0 - x, not -x: a product cut sums to 0.0 and must read +0.0
    return float(0.0 - np.sum(p * np.log2(p)))


# ---------------------------------------------------------------------------
# fusion scenarios


@dataclass(frozen=True)
class FusionScenario:
    """Two marked clusters to be joined on qubits (a, b).

    With `logical_partner` the left cluster's marked qubit is duplicated into
    a partner e before fusion, so the post-fusion register keeps a carrier
    qubit for the new link.  b needs a neighbour, and so does a unless the
    partner carries its bit: the closed forms assume that each side's two
    branches (marked qubit 0 or 1) are orthogonal states of its survivors.
    """

    left: GraphSpec
    a: int
    right: GraphSpec
    b: int
    logical_partner: bool = True

    def __post_init__(self):
        if not 0 <= self.a < self.left.n:
            raise MalformedInputError(f"marked qubit a={self.a} not in left graph")
        if not 0 <= self.b < self.right.n:
            raise MalformedInputError(f"marked qubit b={self.b} not in right graph")
        if self.right.degree(self.b) == 0:
            raise MalformedInputError(f"marked qubit b={self.b} has no neighbour")
        if self.left.degree(self.a) == 0 and not self.logical_partner:
            raise MalformedInputError(
                f"marked qubit a={self.a} has no neighbour and no logical partner"
            )
        if self.n_joint > MAX_QUBITS:
            raise TooManyQubits(
                f"scenario needs {self.n_joint} qubits, dense cap is {MAX_QUBITS}"
            )

    @property
    def n_joint(self) -> int:
        return self.left.n + self.right.n + (1 if self.logical_partner else 0)

    @cached_property
    def arity(self) -> int:
        """Neighbor count of the fused qubit b."""
        return self.right.degree(self.b)

    @cached_property
    def _fused_graph(self):
        """The register the projector leaves behind and the graph it should carry.

        The projector keeps the joint order (left vertices, partner, right
        vertices) less a and b, so the left side, carrier included, is the
        first `cut` axes.  Returns (g, e, flip, cut): g the expected fused
        graph on the surviving axes (both clusters' edges away from a and b,
        the carrier e joined to n(a) U n(b), every survivor's flag, and
        k_a xor k_b on e); e the carrier's axis, None without a partner; flip
        the axes of b's neighbours, where one family of outcomes imprints Z
        corrections.  Computed once per scenario, which is frozen.
        """
        left, right, a, b = self.left, self.right, self.a, self.b
        cut = left.n - 1 + self.logical_partner
        lax = lambda v: v - (v > a)
        rax = lambda w: cut + w - (w > b)
        edges = [(lax(u), lax(v)) for (u, v) in left.edges if a not in (u, v)]
        edges += [(rax(u), rax(v)) for (u, v) in right.edges if b not in (u, v)]
        flags = [k for v, k in enumerate(left.k_flags) if v != a]
        flip = tuple(rax(c) for c in right.neighbors(b))
        e = None
        if self.logical_partner:
            e = cut - 1
            edges += [(e, lax(c)) for c in left.neighbors(a)] + [(e, d) for d in flip]
            flags.append(left.k_flags[a] ^ right.k_flags[b])
        flags += [k for w, k in enumerate(right.k_flags) if w != b]
        return graph(len(flags), edges, flags), e, flip, cut


@dataclass(frozen=True)
class FusionRun:
    """Post-fusion state; the left cluster's survivors, carrier e included,
    are its first `cut` axes and the right cluster's are the rest."""

    state: np.ndarray
    weight: float
    e_axis: int | None
    cut: int

    @property
    def left_side(self) -> tuple[int, ...]:
        return tuple(range(self.cut))

    @property
    def right_side(self) -> tuple[int, ...]:
        return tuple(range(self.cut, self.state.ndim))


def joint_state(scenario: FusionScenario) -> np.ndarray:
    """Pre-measurement product state of the two clusters (partner expanded)."""
    left = build_graph_state(scenario.left)
    if scenario.logical_partner:
        left = expand_logical(left, scenario.a)
    right = build_graph_state(scenario.right)
    return np.multiply.outer(left, right)


def fuse(scenario: FusionScenario, coeffs) -> FusionRun:
    """Build the joint state and apply the fusion projector on (a, b).

    b sits at joint axis cut + 1 + b, past the left vertices and the partner.
    """
    _, e, _, cut = scenario._fused_graph
    state, weight = apply_fusion_projector(
        joint_state(scenario), scenario.a, cut + 1 + scenario.b, coeffs
    )
    return FusionRun(state=state, weight=weight, e_axis=e, cut=cut)


# ---------------------------------------------------------------------------
# stabilizer / weighted-graph verdicts on post-fusion states


def check_Te_stabilizer(state: np.ndarray, scenario: FusionScenario, phi: float) -> bool:
    """Verify the stabilizer structure of a fused state with phase `phi`.

    The carrier qubit's generator is T_e prod_{c in n(a) U n(b)} Z_c with
    T_e = [[0, e^{-i phi}], [e^{i phi}, 0]], required at eigenvalue
    (-1)^{k_a + k_b}: a sign flag on either fused qubit carries over.  Every
    other vertex must satisfy its ordinary fused-graph stabilizer at
    (-1)^{k_v}; vertices adjacent to the measured qubit b may instead sit at
    the opposite sign, since one family of fusion outcomes imprints Z
    corrections exactly there.
    """
    g, e, flip, _ = scenario._fused_graph
    if e is None:
        raise ValueError("the stabilizer verdict needs the carrier qubit e")
    work = _apply_k(state, e, g.neighbors(e))
    work[_at(work.ndim, {e: 0})] *= np.exp(-1j * phi)
    work[_at(work.ndim, {e: 1})] *= np.exp(1j * phi)
    for v in range(g.n):
        sign = (-1.0) ** g.k_flags[v]
        kv = work if v == e else _apply_k(state, v, g.neighbors(v))
        if np.max(np.abs(kv - sign * state)) <= STATE_TOL:
            continue
        if v in flip and np.max(np.abs(kv + sign * state)) <= STATE_TOL:
            continue
        return False
    return True


def _best_phase_alignment(c00, c01, c10, c11) -> float:
    """max over (za, zb) on the unit circle of |c00 + zb c01 + za c10 + za zb c11|.

    For fixed zb the best za aligns c10 + zb c11 with c00 + zb c01, which
    leaves g(zb) = |c00 + zb c01| + |c10 + zb c11|: a 1-D maximization over
    the phase of zb.  A 257-point grid over the circle brackets the maximum,
    and three zooms onto the best point's neighbours (each grid holding the
    previous best at its centre) refine it to ~1e-8 in phase, so the value
    is off by O(1e-16).
    """
    phase, span = 0.0, np.pi
    for _ in range(4):
        phi = phase + np.linspace(-span, span, 257)
        zb = np.exp(1j * phi)
        g = np.abs(c00 + zb * c01) + np.abs(c10 + zb * c11)
        phase, span = phi[np.argmax(g)], span / 128
    return float(np.max(g))


def check_weighted_graph_equivalence(
    state: np.ndarray, scenario: FusionScenario, chi: float
) -> bool:
    """Is the fused state a weighted-graph state with edge weight chi?

    The reference is the fused graph with the (e, d) edge carrying
    diag(1,1,1,e^{i chi}) instead of CZ, where d is b's single neighbor.  The
    residual single-qubit freedoms are diagonal phase rotations on e and d
    plus a global phase; their optimum is found by exact phase alignment, and
    the state passes iff the maximized overlap reaches 1 - STATE_TOL.
    """
    if scenario.arity != 1:
        raise ValueError("the weighted-graph verdict applies to single-neighbor fusions")
    g, e, (d,), _ = scenario._fused_graph
    if e is None:
        raise ValueError("the weighted-graph verdict needs the carrier qubit e")
    # e's flag is a Z on e, which the phase alignment absorbs
    edges = [pair for pair in g.edges if pair != (e, d)]
    ref = build_graph_state(graph(g.n, edges, g.k_flags, special=(e, d, chi)))

    at = lambda x, y: _at(g.n, {e: x, d: y})
    overlaps = [complex(np.vdot(ref[at(x, y)], state[at(x, y)])) for x in (0, 1) for y in (0, 1)]
    return _best_phase_alignment(*overlaps) >= 1.0 - STATE_TOL


# ---------------------------------------------------------------------------
# two-photon Fock expansion


def bosonic_outcome_table(matrix) -> OutcomeTable:
    """Outcome table derived from the raw photon algebra.

    The pre-measurement wave function is ((f1 aH+ + f2 aV+)(f3 bH+ + f4 bV+)/2)
    acting on vacuum, with the four f-products tracking the joint qubit state
    of the clusters.  Substituting each input operator by its image under the
    fusion matrix and collecting two-photon Fock amplitudes (with the sqrt(2)
    on doubly occupied modes) yields, per detection pattern, an amplitude for
    each f-product; their squared sum over the four products, divided by 4, is
    the outcome probability, and the amplitudes themselves are the conditional
    state's coefficients.
    """
    u = validate_unitary(matrix)
    rows = ((0, 2), (0, 3), (1, 2), (1, 3))  # f-products (a_H b_H, a_H b_V, ...)
    outcomes = []
    for (i, j) in OUTCOME_ORDER:
        ii, jj = i - 1, j - 1
        if i == j:
            amps = np.array([_SQRT2 * u[r, ii] * u[s, ii] for (r, s) in rows])
            raw = amps / _SQRT2  # store the operator product, not the Fock amplitude
        else:
            amps = np.array(
                [u[r, ii] * u[s, jj] + u[r, jj] * u[s, ii] for (r, s) in rows]
            )
            raw = amps
        p = 0.25 * float(np.sum(np.abs(amps) ** 2))
        norm = float(np.linalg.norm(raw))
        zero = p <= 1e-30
        coeff = np.zeros(4, dtype=complex) if zero else raw / norm
        outcomes.append(
            Outcome(
                i=i,
                j=j,
                a=complex(coeff[0]),
                b=complex(coeff[1]),
                c=complex(coeff[2]),
                d=complex(coeff[3]),
                raw=tuple(complex(z) for z in raw),
                norm=norm,
                probability=p if not zero else 0.0,
                relevant=i != j,
                zero_probability=zero,
            )
        )
    return OutcomeTable(outcomes=tuple(outcomes))


# ---------------------------------------------------------------------------
# scenario-level comparison report


def compare_scenario(scenario: FusionScenario, matrix, tol: float = DEFAULT_TOL) -> dict:
    """Cross-check every relevant outcome of `matrix` on a concrete scenario.

    Compares projector weight against the closed-form probability and the
    cluster-cut entropy against the 2x2 formula, and, where the classification
    claims structure (stabilizer phase, weighted edge), verifies it on the
    actual state vector.  Returns a JSON-ready report with per-outcome and
    overall pass flags.
    """
    from . import entanglement
    from .classify import _check_tol, classify
    from .fusion import outcome_table

    _check_tol(tol)
    u = validate_unitary(matrix)
    table = outcome_table(u)
    rows = []
    for outcome in table.relevant:
        row: dict = {"channels": [outcome.i, outcome.j], "probability": outcome.probability}
        if outcome.probability <= DEFAULT_TOL:
            row["skipped"] = "zero probability"
            row["pass"] = True
            rows.append(row)
            continue
        run = fuse(scenario, outcome.raw)
        row["projector_weight"] = run.weight
        row["weight_error"] = abs(run.weight - outcome.probability)
        s_formula = entanglement.outcome_entropy(outcome)
        s_cut = bipartite_entropy(run.state, run.left_side)
        row["entropy_formula"] = s_formula
        row["entropy_cut"] = s_cut
        row["entropy_error"] = abs(s_cut - s_formula)
        ok = row["weight_error"] <= tol and row["entropy_error"] <= tol

        verdict = classify(outcome, arity=min(scenario.arity, 2))
        row["labels"] = list(verdict.labels)
        if scenario.logical_partner:
            if verdict.phi is not None:
                stab_ok = check_Te_stabilizer(run.state, scenario, verdict.phi)
                row["stabilizer_check"] = stab_ok
                ok = ok and stab_ok
            if (
                scenario.arity == 1
                and verdict.weighted_graph is not None
                and "Stabilizer" not in verdict.labels
            ):
                wg_ok = check_weighted_graph_equivalence(
                    run.state, scenario, verdict.weighted_graph.chi
                )
                row["weighted_graph_check"] = wg_ok
                ok = ok and wg_ok
        row["pass"] = bool(ok)
        rows.append(row)
    return {
        "left_qubits": scenario.left.n,
        "right_qubits": scenario.right.n,
        "arity": scenario.arity,
        "outcomes": rows,
        "pass": all(r["pass"] for r in rows),
    }


# ---------------------------------------------------------------------------
# random instances for property suites


def random_graph_spec(rng: np.random.Generator, n: int) -> GraphSpec:
    """Random connected graph: a random spanning tree plus extra edges (p = 0.3 each)."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return graph(n, edges)


def random_scenario(
    rng: np.random.Generator, n_left: int = 3, n_right: int = 3
) -> FusionScenario:
    """Random two-cluster scenario with random marked qubits and a logical partner."""
    left = random_graph_spec(rng, n_left)
    right = random_graph_spec(rng, n_right)
    a = int(rng.integers(0, n_left))
    b = int(rng.integers(0, n_right))
    return FusionScenario(left=left, a=a, right=right, b=b)
