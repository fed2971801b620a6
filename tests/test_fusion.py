import numpy as np
import pytest

from fusionlab import fusion, matrices


INV_SQRT2 = 1.0 / np.sqrt(2.0)

# a fixed Haar draw, frozen as a literal so the expected values below stay
# valid independently of the sampler's stream layout
U5 = np.array([
    [-0.35656973947585491-0.037214565645006206j, -0.45223322603925253-0.23849103906061972j, +0.13017873546895514-0.7134756188509469j, +0.085632190217356033+0.27704403383475168j],
    [+0.50513024351708913-0.31716672408387997j, -0.22093037850519207-0.0056975085177314658j, -0.33589298722632449-0.21724318841209891j, -0.65838052099277922+0.043845185214653595j],
    [+0.3329213396520822+0.18214082712716176j, +0.65084131483533136+0.09968526057226762j, -0.011649753314401655-0.42380354179668223j, +0.12592366915962114+0.47629256049137719j],
    [-0.42608178690981385-0.43607822093481885j, +0.4440487898705513+0.24300934909322797j, -0.11859200361678922-0.34666715195434999j, -0.12444799605165441-0.4715164294810843j],
])

U5_P_REL = [
    0.12167679848018288,
    0.11826244367763626,
    0.010307932938425343,
    0.045300362068231737,
    0.11903338206577176,
    0.12103790528944165,
]
U5_P_DIAG = [
    0.12487641245187779,
    0.10699472869290681,
    0.10769964448234526,
    0.12481038985318064,
]


def test_relevant_pairs_order():
    assert fusion.RELEVANT_PAIRS == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(fusion.OUTCOME_ORDER) == 10


def test_pbs2_probabilities():
    u = matrices.builtin("pbs2")
    p = fusion.relevant_probabilities(u)
    # cross-polarization coincidences fire at 1/8 each; same-arm pairs never
    assert p == pytest.approx([0.0, 0.125, 0.125, 0.125, 0.125, 0.0], abs=1e-15)
    assert fusion.diag_probabilities(u).sum() == pytest.approx(0.5, abs=1e-15)
    assert fusion.total_relevant_probability(u) == pytest.approx(0.5, abs=1e-15)


def test_identity_probabilities():
    # trivial channel mapping: like blockpair it succeeds with certainty,
    # one photon in each arm, and every conditional state is a product
    u = matrices.builtin("identity")
    assert fusion.relevant_probabilities(u) == pytest.approx(
        [0.0, 0.25, 0.25, 0.25, 0.25, 0.0], abs=1e-15
    )
    assert fusion.diag_probabilities(u) == pytest.approx([0.0] * 4, abs=1e-15)
    assert fusion.total_relevant_probability(u) == pytest.approx(1.0)


def test_blockpair_is_deterministic():
    u = matrices.builtin("blockpair")
    assert fusion.total_relevant_probability(u) == pytest.approx(1.0, abs=1e-15)
    assert fusion.diag_probabilities(u) == pytest.approx([0.0] * 4, abs=1e-15)


def test_frozen_haar_probabilities():
    assert fusion.relevant_probabilities(U5) == pytest.approx(U5_P_REL, abs=1e-14)
    assert fusion.diag_probabilities(U5) == pytest.approx(U5_P_DIAG, abs=1e-14)
    assert fusion.total_relevant_probability(U5) == pytest.approx(
        0.53561882451968956, abs=1e-14
    )


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    u = matrices.haar_sample(rng, size=500)
    total = fusion.relevant_probabilities(u).sum(-1) + fusion.diag_probabilities(u).sum(-1)
    assert np.abs(total - 1.0).max() < 1e-12


def test_total_probability_range():
    u = matrices.haar_sample(np.random.default_rng(1), size=500)
    p = fusion.total_relevant_probability(u)
    assert p.min() >= 0.5 - 1e-12
    assert p.max() <= 1.0 + 1e-12


def test_channel_invariant_sum_rules():
    u = matrices.haar_sample(np.random.default_rng(2), size=200)
    m, n, t, k = fusion.channel_invariants(u)
    assert np.abs(m.sum(-1) - 2.0).max() < 1e-12
    assert np.abs(n.sum(-1)).max() < 1e-12
    assert np.abs(t.sum(-1)).max() < 1e-12
    assert np.abs(k.sum(-1)).max() < 1e-12
    assert np.abs(m**2 - 4.0 * np.abs(t) ** 2 - k**2).max() < 1e-12


def test_theorem7_invariants():
    m, n, t, k = fusion.channel_invariants(matrices.builtin("theorem7"))
    assert m == pytest.approx([0.5] * 4)
    assert n == pytest.approx([0.0] * 4, abs=1e-15)
    assert t == pytest.approx([0.0] * 4, abs=1e-15)
    assert k == pytest.approx([0.5, -0.5, 0.5, -0.5])


def test_table_probability_matches_vector():
    table = fusion.outcome_table(U5)
    p = fusion.relevant_probabilities(U5)
    for idx, (i, j) in enumerate(fusion.RELEVANT_PAIRS):
        assert table.get(i, j).probability == pytest.approx(p[idx], abs=1e-15)


def test_table_get_validates_pair():
    table = fusion.outcome_table(U5)
    for i, j in ((2, 1), (0, 3), (1, 5)):
        with pytest.raises(ValueError, match="need channel indices"):
            table.get(i, j)


def test_norm_squared_is_four_p():
    table = fusion.outcome_table(U5)
    for oc in table.relevant:
        assert oc.norm**2 == pytest.approx(4.0 * oc.probability, abs=1e-13)
        assert np.linalg.norm(oc.coefficients) == pytest.approx(1.0, abs=1e-13)


def test_diag_norm_squared_is_two_p():
    table = fusion.outcome_table(U5)
    for oc in table.outcomes:
        if not oc.relevant:
            raw = np.array(oc.raw)
            assert np.sum(np.abs(raw) ** 2) == pytest.approx(
                2.0 * oc.probability, abs=1e-13
            )


def test_theorem7_outcome_12():
    # both photons in arm c: the conditional state is the (HV + VH) Bell pair
    oc = fusion.outcome_table(matrices.builtin("theorem7")).get(1, 2)
    assert oc.probability == pytest.approx(0.125, abs=1e-15)
    assert oc.coefficients == pytest.approx(
        [0.0, -INV_SQRT2, -INV_SQRT2, 0.0], abs=1e-12
    )


def test_zero_probability_outcome_is_flagged():
    oc = fusion.outcome_table(matrices.builtin("pbs2")).get(1, 2)
    assert oc.zero_probability
    assert oc.probability == 0.0
    assert np.all(oc.coefficients == 0.0)


def test_outcome_table_layout():
    table = fusion.outcome_table(U5)
    assert len(table) == 10
    assert [o.relevant for o in table.outcomes] == [False] * 4 + [True] * 6
    oc = table.get(2, 4)
    assert (oc.i, oc.j) == (2, 4)
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_coefficients_phase_covariance():
    # dressing with output phases must leave |coefficients| untouched
    rng = np.random.default_rng(8)
    v = matrices.phase_multiply(U5, rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4))
    _, rel_u = fusion.raw_coefficient_blocks(U5)
    _, rel_v = fusion.raw_coefficient_blocks(v)
    assert np.abs(np.abs(rel_u) - np.abs(rel_v)).max() < 1e-12


def test_outcome_table_rejects_non_unitary():
    with pytest.raises(matrices.NotUnitaryError):
        fusion.outcome_table(np.eye(4) * 1.01)
