import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _four_row_determinants(u):
    """Reference: det_ij = |top_ij bot_ij|^2 / (4 p_ij)^2, with top and bot
    the minors of rows (1, 2) and (3, 4) on channels (i, j)."""
    pi, pj = fusion._PI, fusion._PJ
    top = u[..., 0, pi] * u[..., 1, pj] - u[..., 0, pj] * u[..., 1, pi]
    bot = u[..., 2, pi] * u[..., 3, pj] - u[..., 2, pj] * u[..., 3, pi]
    p = fusion.relevant_probabilities(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.where(p > 0.0, np.abs(top * bot) ** 2 / np.maximum(4.0 * p, 1e-300) ** 2, 0.0)
    return np.clip(det, 0.0, entanglement.DET_MAX)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000))
def test_two_row_determinants_equal_the_four_row_form(seed, n):
    """The complementary minor of rows (1, 2) stands in for the minor of
    rows (3, 4) on Haar matrices and the builtins."""
    u = np.concatenate(
        [matrices.haar_sample(seed, size=n)]
        + [matrices.builtin(nm)[None] for nm in matrices.BUILTIN_NAMES]
    )
    gap = np.abs(entanglement.determinants_from_matrix(u) - _four_row_determinants(u))
    assert gap.max() <= 1e-13


def test_two_row_determinants_on_near_unitary_input():
    """On matrices that validate_unitary accepts, pbs2 + 4e-11 N(0, 1) as in
    test_cli, the two forms differ by at most twice the unitarity defect:
    the worst measured ratio is 1.29 over 5,000 such draws of pbs2 and of
    theorem7."""
    for seed in range(200):
        u = matrices.builtin("pbs2") + 4e-11 * np.random.default_rng(seed).normal(size=(4, 4))
        defect = np.abs(u.conj().T @ u - np.eye(4)).max()
        assert 1e-11 < defect <= matrices.UNITARY_TOL
        gap = np.abs(entanglement.determinants_from_matrix(u) - _four_row_determinants(u))
        assert gap.max() <= 2.0 * defect


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


def _near_builtins(rng, scale, count=50):
    """Unitary polar factors of the builtins plus scale * complex Ginibre noise."""
    b = np.stack([matrices.builtin(nm) for nm in matrices.BUILTIN_NAMES])
    x = b[rng.integers(0, len(b), count)]
    x = x + scale * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    w, _, vh = np.linalg.svd(x)
    return w @ vh


@pytest.mark.parametrize("batch", ["haar", "builtins", "near-builtins"])
def test_kernel_entropies_equal_the_checked_route(batch):
    """The kernel clips det itself and takes S through the unchecked entropy
    core; its p, det and S are bit for bit those of the public, checked
    route: relevant_probabilities, determinants_from_matrix and
    entropy_from_det of that det."""
    rng = np.random.default_rng(41)
    if batch == "haar":
        u = matrices.haar_sample(rng, size=3000)
    elif batch == "builtins":
        u = np.stack([matrices.builtin(nm) for nm in matrices.BUILTIN_NAMES])
    else:
        u = np.concatenate([_near_builtins(rng, 10.0**-k) for k in range(4, 11)])
    out = fusion._outcomes(fusion._rows(u))
    p, det, s = (x.T for x in (out.p, out.det, out.s))
    np.testing.assert_array_equal(p, fusion.relevant_probabilities(u))
    np.testing.assert_array_equal(det, entanglement.determinants_from_matrix(u))
    np.testing.assert_array_equal(s, entanglement.entropy_from_det(det))
