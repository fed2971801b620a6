import numpy as np
import pytest

from fusionlab import fusion, matrices
from fusionlab.classify import (
    LABELS,
    classify,
    is_cluster_up_to_rotation,
    is_product,
    is_stabilizer,
    is_weighted_graph,
    max_entangled_params,
)


INV_SQRT2 = 1.0 / np.sqrt(2.0)

# the running weighted-graph example: mixing angles (pi/4, 0), edge phase 3pi/2
WG_EXAMPLE = np.array([0.5, 0.5j, 0.0, INV_SQRT2])


def _wg_coeffs(theta1, phi1, theta2, phi2):
    return np.array(
        [
            np.exp(1j * theta1) * np.cos(phi1),
            1j * np.exp(1j * theta1) * np.sin(phi1),
            1j * np.exp(1j * theta2) * np.sin(phi2),
            np.exp(1j * theta2) * np.cos(phi2),
        ]
    ) * INV_SQRT2


def test_label_vocabulary():
    assert LABELS == (
        "Product",
        "Stabilizer",
        "WeightedGraph",
        "ClusterUpToRotation",
        "MaxEntangledGeneric",
        "Generic",
    )


def test_product_detection():
    assert is_product(np.array([1.0, 0.0, 0.0, 0.0]))
    assert is_product(np.array([0.5, 0.5, 0.5, 0.5]))  # (H+V)(H+V)
    assert not is_product(np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]))


def test_identity_outcomes_are_product():
    table = fusion.outcome_table(matrices.builtin("identity"))
    for oc in table.relevant:
        if oc.probability > 1e-9:
            res = classify(oc)
            assert res.labels == ("Product",)


def test_pbs2_outcomes_are_stabilizer():
    table = fusion.outcome_table(matrices.builtin("pbs2"))
    for oc in table.relevant:
        if oc.probability <= 1e-9:
            continue
        res = classify(oc)
        assert "Stabilizer" in res
        assert res.phi == pytest.approx(0.0, abs=1e-12)
        # a stabilizer conditional state carries the whole hierarchy
        assert "WeightedGraph" in res
        assert "ClusterUpToRotation" in res
        assert "MaxEntangledGeneric" in res


def test_theorem7_antidiagonal_branch():
    oc = fusion.outcome_table(matrices.builtin("theorem7")).get(1, 2)
    phi = is_stabilizer(oc.coefficients)
    assert phi == pytest.approx(0.0, abs=1e-12)


def test_stabilizer_phase_both_branches():
    # B/C branch: phi = arg C - arg B
    c = np.array([0.0, INV_SQRT2, INV_SQRT2 * np.exp(0.7j), 0.0])
    assert is_stabilizer(c) == pytest.approx(0.7, abs=1e-12)
    # A/D branch: phi = arg D - arg A
    c = np.array([INV_SQRT2 * np.exp(0.2j), 0.0, 0.0, INV_SQRT2 * np.exp(-0.9j)])
    assert is_stabilizer(c) == pytest.approx(2 * np.pi - 1.1, abs=1e-12)
    # unbalanced magnitudes are not a stabilizer state
    c = np.array([0.0, 0.8, 0.6, 0.0])
    assert is_stabilizer(c) is None


def test_weighted_graph_example():
    wg = is_weighted_graph(WG_EXAMPLE)
    assert wg is not None
    assert wg.theta1 == pytest.approx(0.0, abs=1e-12)
    assert wg.phi1 == pytest.approx(np.pi / 4, abs=1e-12)
    assert wg.theta2 == pytest.approx(0.0, abs=1e-12)
    assert wg.phi2 == pytest.approx(0.0, abs=1e-12)
    assert wg.chi == pytest.approx(4.71238898038469, abs=1e-12)  # 3 pi / 2
    a, b, c, d = WG_EXAMPLE
    assert abs(a * d - b * c) ** 2 == pytest.approx(0.125, abs=1e-15)
    assert classify(WG_EXAMPLE).labels == ("WeightedGraph",)


def test_weighted_graph_det_identity():
    rng = np.random.default_rng(10)
    for _ in range(200):
        c = _wg_coeffs(*rng.uniform(-np.pi, np.pi, 4))
        wg = is_weighted_graph(c)
        assert wg is not None
        det = abs(c[0] * c[3] - c[1] * c[2]) ** 2
        assert det == pytest.approx((1.0 - np.cos(wg.chi)) / 8.0, abs=1e-12)


def test_weighted_graph_rejects_generic():
    c = np.array([0.8, 0.1, 0.1, 0.5703508j])
    assert is_weighted_graph(c / np.linalg.norm(c)) is None


def test_cluster_form_and_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        f = rng.uniform(-np.pi, np.pi)
        c = _wg_coeffs(t1, f, t2, f)
        cl = is_cluster_up_to_rotation(c)
        assert cl is not None
        assert 0.0 <= cl.phi < np.pi
        rebuilt = _wg_coeffs(cl.theta1, cl.phi, cl.theta2, cl.phi)
        assert np.abs(rebuilt - c).max() < 1e-9


def test_cluster_frozen_example():
    c = _wg_coeffs(0.3, np.pi / 6, -1.1, np.pi / 6)
    res = classify(c)
    assert res.labels == ("WeightedGraph", "ClusterUpToRotation", "MaxEntangledGeneric")
    assert res.cluster.theta1 == pytest.approx(0.3, abs=1e-12)
    assert res.cluster.theta2 == pytest.approx(-1.1, abs=1e-12)
    assert res.cluster.phi == pytest.approx(np.pi / 6, abs=1e-12)


def test_cluster_rejects_unequal_mixing():
    c = _wg_coeffs(0.0, 0.3, 0.0, 0.9)
    assert is_cluster_up_to_rotation(c) is None


def test_max_entangled_params_needs_det_quarter():
    assert max_entangled_params(WG_EXAMPLE) is None  # det = 1/8 here
    c = np.array([0.5, 0.5j, 0.5j, 0.5])
    me = max_entangled_params(c)
    assert me is not None
    assert me.phi == pytest.approx(np.pi / 4, abs=1e-12)


def test_weighted_graph_maxent_iff_cluster():
    # iff over the aggregate labels, which reconcile the determinant test
    # with the form residual near the maximal-entanglement manifold
    rng = np.random.default_rng(12)
    draws = [rng.uniform(-np.pi, np.pi, 4) for _ in range(300)]
    draws.append(np.array([0.4, 1.1, -0.2, 1.1]))  # phi1 = phi2: exactly on it
    draws.append(np.array([0.4, 1.1, -0.2, 1.1 - 1e-3]))  # just off it
    for args in draws:
        c = _wg_coeffs(*args)
        det = abs(c[0] * c[3] - c[1] * c[2]) ** 2
        is_max = abs(det - 0.25) <= 1e-8
        res = classify(c)
        assert "WeightedGraph" in res
        assert is_max == ("ClusterUpToRotation" in res)


def test_cluster_implies_chi_pi():
    c = _wg_coeffs(0.3, np.pi / 6, -1.1, np.pi / 6)
    res = classify(c)
    assert "ClusterUpToRotation" in res
    assert abs(res.weighted_graph.chi - np.pi) <= 1e-9


def test_generic_states():
    res = classify(np.array([0.8, 0.0, 0.0, 0.6]))
    assert res.labels == ("Generic",)
    assert res.max_entangled is None


def test_zero_probability_outcome_flagged_product():
    oc = fusion.outcome_table(matrices.builtin("pbs2")).get(1, 2)
    assert oc.zero_probability
    res = classify(oc)
    assert res.labels == ("Product",)
    assert res.zero_probability
    assert res.to_json()["zero_probability"] is True


def test_arity_two_weighted_graph_only_for_stabilizer():
    # at arity 2 only stabilizer outcomes keep a weighted-graph reading
    stab = np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0])
    res2 = classify(stab, arity=2)
    assert "WeightedGraph" in res2

    wg_only = WG_EXAMPLE
    assert "WeightedGraph" in classify(wg_only, arity=1)
    assert "WeightedGraph" not in classify(wg_only, arity=2)


def test_classification_json_keys():
    res = classify(np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]))
    doc = res.to_json()
    assert doc["labels"][0] == "Stabilizer"
    assert doc["arity"] == 1
    assert "stabilizer_phi" in doc
    assert "weighted_graph" in doc
    assert "cluster_up_to_rotation" in doc
    assert "max_entangled_generic" in doc


def test_tolerance_monotonicity():
    # a slightly perturbed stabilizer state: tight tol rejects, loose accepts
    c = np.array([1e-6, INV_SQRT2, INV_SQRT2, 0.0])
    c = c / np.linalg.norm(c)
    assert is_stabilizer(c, tol=1e-8) is None
    assert is_stabilizer(c, tol=1e-4) is not None


def test_shape_validation():
    with pytest.raises(ValueError):
        classify(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "check", [classify, is_product, is_stabilizer, is_weighted_graph,
              is_cluster_up_to_rotation, max_entangled_params],
)
def test_unnormalized_quadruple_rejected(check):
    # the zero vector once classified as Product, Stabilizer and
    # MaxEntangledGeneric at once
    with pytest.raises(ValueError):
        check(np.zeros(4))
    # the raw coefficients of a live outcome have norm 2 sqrt(p), not 1
    raw = fusion.outcome_table(matrices.builtin("pbs2")).get(1, 3).raw
    with pytest.raises(ValueError):
        check(np.array(raw))
    with pytest.raises(ValueError):
        check(np.array([np.nan, 0.0, 0.0, 1.0]))
    # a predicate has no answer for an outcome that never fires
    zero = fusion.outcome_table(matrices.builtin("pbs2")).get(1, 2)
    if check is not classify:
        with pytest.raises(ValueError):
            check(zero)
    # a norm within matrices.UNITARY_TOL of 1 is accepted
    check(np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]) * (1.0 + 0.5 * matrices.UNITARY_TOL))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
@pytest.mark.parametrize(
    "check", [classify, is_product, is_stabilizer, is_weighted_graph,
              is_cluster_up_to_rotation, max_entangled_params],
)
def test_bad_tol_rejected(check, tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        check(np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]), tol=tol)


def _perturbed(rng, c, tol):
    """`c` moved by 0.2 to 5 tol in a random direction.

    The result is renormalized only when its norm has left the band that
    classify accepts, so small tolerances also see norms a little off 1.
    """
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c + rng.uniform(0.2, 5.0) * tol * z / np.linalg.norm(z)
    norm = np.linalg.norm(c)
    return c / norm if abs(norm - 1.0) > matrices.UNITARY_TOL else c


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-6, 1e-4])
def test_label_containments_near_the_forms(tol, arity):
    rng = np.random.default_rng([arity, int(-np.log10(tol))])
    for k in range(300):
        t1, t2, f1, f2 = rng.uniform(-np.pi, np.pi, 4)
        if k % 3 == 0:  # stabilizer, both branches
            ph = np.exp(1j * np.array([t1, t2])) * INV_SQRT2
            c = np.array([0, ph[0], ph[1], 0]) if k % 2 else np.array([ph[0], 0, 0, ph[1]])
        elif k % 3 == 1:
            c = _wg_coeffs(t1, f1, t2, f2)
        else:
            c = _wg_coeffs(t1, f1, t2, f1)  # cluster
        res = classify(_perturbed(rng, c, tol), arity=arity, tol=tol)
        labels = set(res.labels)
        if arity == 1 and "Stabilizer" in labels:
            assert "WeightedGraph" in labels, res
        if "Stabilizer" in labels:
            assert "ClusterUpToRotation" in labels, res
        if "ClusterUpToRotation" in labels:
            assert "MaxEntangledGeneric" in labels, res
        # every label carries its parameters, and no parameters come unlabelled
        assert (res.max_entangled is not None) == ("MaxEntangledGeneric" in labels), res
        assert (res.cluster is not None) == ("ClusterUpToRotation" in labels), res
        assert (res.weighted_graph is not None) == ("WeightedGraph" in labels), res
        assert (res.phi is not None) == ("Stabilizer" in labels), res
        assert "Generic" not in labels or len(labels) == 1, res
