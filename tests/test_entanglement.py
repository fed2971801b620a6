import numpy as np
import pytest

from fusionlab import entanglement, fusion, matrices
from test_fusion import U5


U5_DETS = [
    0.21784744343109705,
    0.20539130361548025,
    0.23329994902064696,
    0.012079653208943881,
    0.20273942113029259,
    0.22015330916636225,
]
U5_S = [
    0.90512877857859741,
    0.86715605451917466,
    0.95126249434933907,
    0.095233268397419094,
    0.85897609232374417,
    0.9120795803792765,
]


def test_eigenvalues_from_det_endpoints():
    assert entanglement.eigenvalues_from_det(0.0) == (1.0, 0.0)
    assert entanglement.eigenvalues_from_det(0.25) == (0.5, 0.5)
    hi, lo = entanglement.eigenvalues_from_det(0.1)
    assert hi == pytest.approx(0.8872983346207417, abs=1e-15)
    assert lo == pytest.approx(0.1127016653792583, abs=1e-15)
    assert hi + lo == pytest.approx(1.0, abs=1e-15)


def test_eigenvalues_reject_out_of_range():
    with pytest.raises(entanglement.OutOfRangeError):
        entanglement.eigenvalues_from_det(0.26)
    with pytest.raises(entanglement.OutOfRangeError):
        entanglement.eigenvalues_from_det(-0.01)


def test_entropy_endpoints():
    assert entanglement.entropy(1.0) == 0.0
    assert entanglement.entropy(0.5) == 1.0
    assert entanglement.entropy(0.0) == 0.0


def test_entropy_from_det_values():
    assert entanglement.entropy_from_det(0.0) == 0.0
    assert entanglement.entropy_from_det(0.25) == 1.0
    assert entanglement.entropy_from_det(0.2) == pytest.approx(
        0.85048962510216164, abs=1e-15
    )


def test_boundary_snap():
    # determinants a hair under 1/4 are treated as exactly maximal ...
    assert entanglement.entropy_from_det(0.25 - 5e-14) == 1.0
    assert entanglement.eigenvalues_from_det(0.25 - 5e-14) == (0.5, 0.5)
    # ... but a genuine gap stays below 1; near zero no snap is needed
    assert entanglement.entropy_from_det(0.25 - 1e-9) < 1.0
    assert entanglement.entropy_from_det(5e-14) < 1e-9


def test_frozen_determinants_and_entropies():
    assert entanglement.determinants_from_matrix(U5) == pytest.approx(
        U5_DETS, abs=1e-14
    )
    assert entanglement.entropies_from_matrix(U5) == pytest.approx(U5_S, abs=1e-12)


def test_determinant_range_random():
    u = matrices.haar_sample(np.random.default_rng(4), size=500)
    det = entanglement.determinants_from_matrix(u)
    assert det.min() >= 0.0
    assert det.max() <= 0.25


def test_determinant_factored_equals_coefficient_form():
    u = matrices.haar_sample(np.random.default_rng(5), size=100)
    det = entanglement.determinants_from_matrix(u)
    _, rel = fusion.raw_coefficient_blocks(u)
    norm2 = np.sum(np.abs(rel) ** 2, -1)
    a, b, c, d = (rel[..., k] for k in range(4))
    ref = np.abs(a * d - b * c) ** 2 / norm2**2
    assert np.abs(det - ref).max() < 1e-10


def test_outcome_object_path():
    table = fusion.outcome_table(U5)
    for idx, oc in enumerate(table.relevant):
        assert entanglement.determinant(oc) == pytest.approx(U5_DETS[idx], abs=1e-13)
        assert entanglement.outcome_entropy(oc) == pytest.approx(U5_S[idx], abs=1e-11)
        rho = entanglement.reduced_density(oc)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-14
        assert np.linalg.det(rho).real == pytest.approx(U5_DETS[idx], abs=1e-13)


def test_schmidt_pair():
    table = fusion.outcome_table(U5)
    oc = table.get(1, 2)
    alpha, beta = entanglement.schmidt(oc)
    assert alpha >= beta >= 0.0
    assert alpha**2 + beta**2 == pytest.approx(1.0, abs=1e-14)
    assert alpha**2 * beta**2 == pytest.approx(U5_DETS[0], abs=1e-13)


def test_zero_probability_outcome_raises():
    oc = fusion.outcome_table(matrices.builtin("pbs2")).get(1, 2)
    with pytest.raises(entanglement.ZeroProbabilityOutcomeError):
        entanglement.determinant(oc)
    with pytest.raises(entanglement.ZeroProbabilityOutcomeError):
        entanglement.reduced_density(oc)


def test_maxent_conditions_pbs2():
    c1, c2 = entanglement.maxent_conditions(matrices.builtin("pbs2"))
    assert np.abs(c1).max() < 1e-15
    assert np.abs(c2).max() < 1e-15
    for (i, j) in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert entanglement.is_maximally_entangled(matrices.builtin("pbs2"), i, j)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_maxent_bad_tol_rejected(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        entanglement.is_maximally_entangled(matrices.builtin("pbs2"), 1, 3, tol=tol)


def test_maxent_generic_matrix_is_not():
    # U5's outcomes all sit strictly below det = 1/4
    for idx, (i, j) in enumerate(fusion.RELEVANT_PAIRS):
        assert not entanglement.is_maximally_entangled(U5, i, j)



def test_determinant_from_matrix_single():
    table = fusion.outcome_table(U5)
    for idx, (i, j) in enumerate(fusion.RELEVANT_PAIRS):
        assert entanglement.determinant(table.get(i, j)) == pytest.approx(
            U5_DETS[idx], abs=1e-14
        )
