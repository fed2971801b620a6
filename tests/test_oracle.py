import numpy as np
import pytest

from fusionlab import fusion, matrices, oracle
from fusionlab.matrices import MalformedInputError
from fusionlab.oracle import (
    FusionScenario,
    TooManyQubits,
    ZeroOverlap,
    apply_fusion_projector,
    bipartite_entropy,
    bosonic_outcome_table,
    build_graph_state,
    check_Te_stabilizer,
    check_stabilizers,
    check_weighted_graph_equivalence,
    compare_scenario,
    expand_logical,
    fuse,
    graph,
    parse_graph_spec,
    parse_scenario,
    random_graph_spec,
)


INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def _two_path_scenario(**kw):
    """Two 2-qubit chains fused end to end; the fused qubit has one neighbor."""
    return FusionScenario(left=_path(2), a=0, right=_path(2), b=0, **kw)


# ---------------------------------------------------------------------------
# graph text format


def test_graph_round_trip():
    """The text form of a graph with flags and a special edge parses back to it."""
    g = graph(4, [(0, 1), (1, 2), (0, 3)], k_flags=[1, 0, 0, 1], special=(2, 3, 0.7))
    assert parse_graph_spec("4 1 0 0 1\n1 0\n1 2\n3 0\nspecial 3 2 0.7\n") == g


def test_graph_parse_comments_and_blanks():
    g = parse_graph_spec("# a triangle\n\n3\n0 1\n1 2\n0 2  # closing edge\n")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.k_flags == (0, 0, 0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "zero\n",
        "3 0 1\n",  # flag count mismatch
        "2 0 2\n",  # flag not a bit
        "3\n0 1 2\n",  # three tokens, not an edge
        "3\n0 3\n",  # vertex out of range
        "3\nspecial 0 1 1.0\nspecial 1 2 1.0\n",
        "2\n0 0\n",  # self loop
    ],
)
def test_graph_parse_rejects(text):
    with pytest.raises(MalformedInputError):
        parse_graph_spec(text)


# malformed graphs are refused at construction, before any state is built


def test_graph_rejects_extra_flags():
    """Once accepted, then an IndexError in build_graph_state."""
    with pytest.raises(MalformedInputError, match="expected 2 flag bits, got 3"):
        graph(2, [(0, 1)], k_flags=[1, 1, 1])


def test_graph_rejects_non_bit_flag():
    """Once accepted, building a state that check_stabilizers rejects."""
    with pytest.raises(MalformedInputError, match="0 or 1"):
        graph(2, [(0, 1)], k_flags=[2, 0])


@pytest.mark.parametrize("chi", [np.nan, np.inf])
def test_graph_rejects_non_finite_chi(chi):
    with pytest.raises(MalformedInputError, match="special edge"):
        graph(3, [(0, 1)], special=(0, 2, chi))
    with pytest.raises(MalformedInputError, match="special edge"):
        parse_graph_spec(f"3\n0 1\nspecial 0 2 {chi}\n")


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
def test_graph_rejects_non_integer_vertex_count(n):
    """graph(2.5, ...) once ended in a bare TypeError."""
    with pytest.raises(MalformedInputError, match="integer n >= 1"):
        graph(n, [(0, 1)])


@pytest.mark.parametrize("u", [0.5, 0.0, True])
def test_graph_rejects_non_integer_edge_vertex(u):
    """graph(3, [(0.5, 2)]) was once accepted, and building its state raised
    a bare TypeError."""
    with pytest.raises(MalformedInputError, match="bad edge"):
        graph(3, [(u, 2)])


@pytest.mark.parametrize("u", [0.5, 0.0, True])
def test_graph_rejects_non_integer_special_vertex(u):
    with pytest.raises(MalformedInputError, match="bad special edge"):
        graph(3, [], special=(u, 2, 1.0))


def test_graph_accepts_numpy_integers():
    g = graph(np.int64(3), [(np.int32(0), np.int64(1))], special=(np.int16(1), np.uint8(2), 0.4))
    assert g.neighbors(1) == (0, 2)
    assert build_graph_state(g).shape == (2, 2, 2)


def test_graph_parse_checks_size_first(monkeypatch):
    """A header above MAX_QUBITS is refused before a graph of that size is built."""
    monkeypatch.setattr(oracle, "graph", None)
    with pytest.raises(TooManyQubits):
        parse_graph_spec(f"{oracle.MAX_QUBITS + 1}\n0 1\n")


def test_graph_neighbors_include_special_edge():
    g = graph(3, [(0, 1)], special=(1, 2, 0.4))
    assert g.neighbors(1) == (0, 2)
    assert g.degree(2) == 1


# ---------------------------------------------------------------------------
# dense graph states


def test_single_vertex_is_plus():
    psi = build_graph_state(graph(1))
    assert np.allclose(psi, [INV_SQRT2, INV_SQRT2])


def test_two_vertex_amplitudes():
    psi = build_graph_state(_path(2))
    assert np.allclose(psi, [[0.5, 0.5], [0.5, -0.5]])


def test_stabilizers_hold_on_random_graphs():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 7):
        g = random_graph_spec(rng, n)
        assert check_stabilizers(build_graph_state(g), g)


def test_k_flags_flip_eigenvalues():
    g0 = _path(2)
    g1 = graph(2, [(0, 1)], k_flags=[1, 0])
    psi0 = build_graph_state(g0)
    psi1 = build_graph_state(g1)
    assert check_stabilizers(psi1, g1)
    assert not check_stabilizers(psi1, g0)
    assert not check_stabilizers(psi0, g1)


def test_special_edge_pi_equals_plain_cz():
    plain = build_graph_state(_path(2))
    weighted = build_graph_state(graph(2, [], special=(0, 1, np.pi)))
    assert np.allclose(plain, weighted)


def test_stabilizer_check_refuses_weighted_graphs():
    g = graph(2, [], special=(0, 1, 0.3))
    with pytest.raises(ValueError):
        check_stabilizers(build_graph_state(g), g)


def test_dense_cap():
    with pytest.raises(TooManyQubits):
        build_graph_state(graph(oracle.MAX_QUBITS + 1))


# ---------------------------------------------------------------------------
# logical-qubit plumbing and the projector


def test_expand_merge_round_trip():
    """Expansion is lossless: the (a, partner) = (x, x) slices hold the whole
    state, so merging the pair back into one qubit returns it exactly."""
    psi = build_graph_state(_path(3))
    grown = expand_logical(psi, 1)
    assert grown.shape == (2, 2, 2, 2)
    back = np.stack([grown[:, 0, :, 0], grown[:, 1, :, 1]], axis=1)
    assert np.array_equal(back, psi)
    assert np.linalg.norm(grown) == pytest.approx(1.0, abs=1e-12)


def test_projector_on_ghz():
    ghz = np.zeros((2, 2, 2), dtype=complex)
    ghz[0, 0, 0] = ghz[1, 1, 1] = INV_SQRT2
    state, weight = apply_fusion_projector(ghz, 0, 1, (1.0, 0.0, 0.0, 0.0))
    assert weight == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(state, [1.0, 0.0])
    with pytest.raises(ZeroOverlap):
        apply_fusion_projector(ghz, 0, 1, (0.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        apply_fusion_projector(ghz, 1, 1, (1.0, 0.0, 0.0, 0.0))


def test_bipartite_entropy_landmarks():
    bell = build_graph_state(_path(2))  # CZ|++> is maximally entangled
    assert bipartite_entropy(bell, [0]) == pytest.approx(1.0, abs=1e-12)
    product = np.multiply.outer(
        np.array([INV_SQRT2, INV_SQRT2]), np.array([INV_SQRT2, INV_SQRT2])
    )
    assert bipartite_entropy(product, [0]) == pytest.approx(0.0, abs=1e-12)
    assert np.copysign(1.0, bipartite_entropy(product, [0])) == 1.0  # +0.0, as analyze reads
    ghz = np.zeros((2, 2, 2), dtype=complex)
    ghz[0, 0, 0] = ghz[1, 1, 1] = INV_SQRT2
    assert bipartite_entropy(ghz, [0, 2]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        bipartite_entropy(bell, [0, 1])


# ---------------------------------------------------------------------------
# scenarios


def test_scenario_validation():
    with pytest.raises(MalformedInputError):
        FusionScenario(left=_path(2), a=2, right=_path(2), b=0)
    with pytest.raises(MalformedInputError):
        FusionScenario(left=_path(2), a=0, right=_path(2), b=-1)
    with pytest.raises(TooManyQubits):
        FusionScenario(left=_path(7), a=0, right=_path(7), b=0)


@pytest.mark.parametrize(
    "left, right, partner, qubit",
    [
        (_path(3), graph(1), True, "b=0"),
        (_path(3), graph(2), True, "b=0"),
        (graph(2), _path(3), False, "a=0"),
        (graph(1), _path(3), False, "a=0"),
    ],
    ids=["lone-b", "edgeless-b", "edgeless-a-nopartner", "lone-a-nopartner"],
)
def test_scenario_rejects_marked_qubit_without_neighbour(left, right, partner, qubit):
    """The closed forms need orthogonal branches on both sides of the cut."""
    with pytest.raises(MalformedInputError, match=f"marked qubit {qubit} has no neighbour"):
        FusionScenario(left=left, a=0, right=right, b=0, logical_partner=partner)


def test_isolated_a_with_partner_is_in_domain():
    """The partner carries a's bit, so a needs no neighbour."""
    sc = FusionScenario(left=graph(1), a=0, right=_path(3), b=0)
    assert compare_scenario(sc, matrices.builtin("theorem7"))["pass"]


def test_scenario_counts():
    sc = _two_path_scenario()
    assert sc.n_joint == 5
    assert sc.arity == 1
    bare = _two_path_scenario(logical_partner=False)
    assert bare.n_joint == 4


def test_fuse_weight_matches_probability():
    """Projector weight on a concrete register equals the closed-form p_ij."""
    u = matrices.haar_sample(np.random.default_rng(17))
    sc = FusionScenario(left=_path(3), a=1, right=_path(3), b=0)
    for oc in fusion.outcome_table(u).relevant:
        if oc.probability <= 1e-9:
            continue
        run = fuse(sc, oc.raw)
        assert run.weight == pytest.approx(oc.probability, abs=1e-12)


def test_fuse_axis_bookkeeping():
    sc = FusionScenario(left=_path(3), a=1, right=_path(3), b=0)
    run = fuse(sc, (1.0, 0.0, 0.0, 0.0))
    assert run.state.ndim == 5  # 7 joint qubits minus the two measured
    assert sorted(run.left_side + run.right_side) == list(range(5))
    assert run.e_axis in run.left_side


def test_pbs2_outcomes_on_two_paths():
    sc = _two_path_scenario()
    for oc in fusion.outcome_table(matrices.builtin("pbs2")).relevant:
        if oc.probability <= 1e-9:
            continue
        run = fuse(sc, oc.raw)
        assert run.weight == pytest.approx(0.125, abs=1e-15)
        assert bipartite_entropy(run.state, run.left_side) == pytest.approx(1.0, abs=1e-12)


def test_te_stabilizer_verdict():
    sc = _two_path_scenario()
    oc = fusion.outcome_table(matrices.builtin("theorem7")).get(1, 2)
    run = fuse(sc, oc.raw)
    assert check_Te_stabilizer(run.state, sc, 0.0)
    assert not check_Te_stabilizer(run.state, sc, 0.3)
    with pytest.raises(ValueError):
        check_Te_stabilizer(run.state, _two_path_scenario(logical_partner=False), 0.0)


@pytest.mark.parametrize("k_a, k_b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_te_stabilizer_carries_fused_qubit_flags(k_a, k_b):
    """A sign flag on either fused qubit flips the carrier eigenvalue; flags
    on both cancel."""
    sc = FusionScenario(
        left=graph(3, [(0, 1), (1, 2)], [0, k_a, 0]),
        a=1,
        right=graph(3, [(0, 1), (1, 2)], [k_b, 0, 0]),
        b=0,
    )
    u = matrices.builtin("theorem7")
    report = compare_scenario(sc, u)
    checks = [r["stabilizer_check"] for r in report["outcomes"] if "stabilizer_check" in r]
    assert checks == [True] * 4
    assert report["pass"] is True
    run = fuse(sc, fusion.outcome_table(u).get(1, 2).raw)
    assert check_Te_stabilizer(run.state, sc, 0.0)
    assert not check_Te_stabilizer(run.state, sc, np.pi)


def test_weighted_graph_verdict():
    # projecting onto a weighted-graph-form state must leave the fused edge
    # carrying exactly the chi extracted from the coefficients
    sc = _two_path_scenario()
    coeffs = np.array([0.5, 0.5j, 0.0, INV_SQRT2])
    run = fuse(sc, coeffs)
    chi = 4.71238898038469  # 2(phi1 - phi2) + pi for phi1 = pi/4, phi2 = 0
    assert check_weighted_graph_equivalence(run.state, sc, chi)
    assert not check_weighted_graph_equivalence(run.state, sc, np.pi)


def test_weighted_graph_verdict_guards():
    sc = FusionScenario(left=_path(2), a=0, right=_path(3), b=1)  # arity 2
    run = fuse(sc, (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        check_weighted_graph_equivalence(run.state, sc, np.pi)


def test_phase_alignment_matches_dense_grid():
    """The 1-D alignment over zb reaches the maximum of a dense 2-D grid over
    both phases and exceeds it by no more than the grid's resolution allows
    (the error of a grid maximum is quadratic in its spacing)."""
    n = 721
    z = np.exp(2j * np.pi * np.arange(n) / n)
    za, zb = z[:, None], z[None, :]
    rng = np.random.default_rng(8)
    quads = list(rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4)))
    quads += [np.array([1.0, 0, 0, 0]), np.zeros(4), np.array([0.5, 0.5j, 0.0, INV_SQRT2])]
    for c in quads:
        c00, c01, c10, c11 = c
        grid = np.abs(c00 + zb * c01 + za * c10 + za * zb * c11).max()
        best = oracle._best_phase_alignment(*c)
        assert grid - 1e-12 <= best <= grid + np.sum(np.abs(c)) * (2 * np.pi / n) ** 2


# ---------------------------------------------------------------------------
# bosonic cross-check


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bosonic_table_matches_analytic(seed):
    u = matrices.haar_sample(np.random.default_rng(seed))
    analytic = fusion.outcome_table(u)
    bosonic = bosonic_outcome_table(u)
    for oa, ob in zip(analytic.outcomes, bosonic.outcomes):
        assert (oa.i, oa.j) == (ob.i, ob.j)
        assert ob.probability == pytest.approx(oa.probability, abs=1e-12)
        if oa.zero_probability:
            assert ob.zero_probability
            continue
        ca = np.array([oa.a, oa.b, oa.c, oa.d])
        cb = np.array([ob.a, ob.b, ob.c, ob.d])
        # equal up to a global phase
        phase = np.vdot(ca, cb)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(cb - phase * ca).max() < 1e-12


def test_bosonic_table_pbs2_exact():
    table = bosonic_outcome_table(matrices.builtin("pbs2"))
    probs = [oc.probability for oc in table.relevant]
    assert probs == pytest.approx([0.0, 0.125, 0.125, 0.125, 0.125, 0.0], abs=1e-15)
    assert sum(oc.probability for oc in table.outcomes) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scenario-level report


def test_compare_scenario_pbs2():
    report = compare_scenario(_two_path_scenario(), matrices.builtin("pbs2"))
    assert report["pass"] is True
    assert report["left_qubits"] == 2 and report["right_qubits"] == 2
    assert report["arity"] == 1
    assert len(report["outcomes"]) == 6
    skipped = [r for r in report["outcomes"] if "skipped" in r]
    assert len(skipped) == 2
    checked = [r for r in report["outcomes"] if "skipped" not in r]
    for row in checked:
        assert row["pass"] is True
        assert row["stabilizer_check"] is True
        assert row["weight_error"] <= 1e-12
        assert row["entropy_error"] <= 1e-9
        assert row["labels"][0] == "Stabilizer"


def test_compare_scenario_theorem7_arity_two():
    sc = FusionScenario(left=_path(2), a=0, right=_path(3), b=1)
    report = compare_scenario(sc, matrices.builtin("theorem7"))
    assert report["arity"] == 2
    assert report["pass"] is True


def test_compare_scenario_haar():
    u = matrices.haar_sample(np.random.default_rng(23))
    report = compare_scenario(_two_path_scenario(), u)
    assert report["pass"] is True


# ---------------------------------------------------------------------------
# random instances


def test_random_graphs_are_connected():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph_spec(rng, 6)
        adj = {v: set() for v in range(g.n)}
        for (u, v) in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, frontier = {0}, [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v] - seen:
                seen.add(w)
                frontier.append(w)
        assert len(seen) == g.n


# ---------------------------------------------------------------------------
# scenario files


SCENARIO_TEXT = """\
# two 3-qubit chains, fused at the left chain's middle qubit
left
3
0 1
1 2
right
3
0 1
1 2
fuse 1 0
"""


def test_parse_scenario():
    sc = parse_scenario(SCENARIO_TEXT)
    assert sc.left.n == 3 and sc.right.n == 3
    assert (sc.a, sc.b) == (1, 0)
    assert sc.logical_partner
    assert sc.arity == 1


def test_parse_scenario_nopartner():
    sc = parse_scenario(SCENARIO_TEXT.replace("fuse 1 0", "fuse 1 0 nopartner"))
    assert not sc.logical_partner
    assert sc.n_joint == 6


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("fuse 1 0", ""),  # no fuse line
        lambda t: t + "fuse 0 0\n",  # second fuse line
        lambda t: t.replace("left\n", ""),  # graph lines before any section
        lambda t: t.replace("right\n3\n0 1\n1 2\n", ""),  # missing right block
        lambda t: t.replace("fuse 1 0", "fuse 1"),  # one qubit only
        lambda t: t.replace("fuse 1 0", "fuse one zero"),
    ],
)
def test_parse_scenario_rejects(mangle):
    with pytest.raises(MalformedInputError):
        parse_scenario(mangle(SCENARIO_TEXT))
