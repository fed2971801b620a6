import json

import numpy as np
import pytest

from fusionlab import matrices


INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_builtin_names():
    assert matrices.BUILTIN_NAMES == ("blockpair", "identity", "pbs2", "theorem7")


def test_builtins_are_unitary():
    for name in matrices.BUILTIN_NAMES:
        u = matrices.builtin(name)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_builtin_entries():
    pbs2 = matrices.builtin("pbs2")
    assert pbs2[0, 0] == 0.5
    assert pbs2[0, 3] == -0.5
    assert pbs2[3, 0] == -0.5
    t7 = matrices.builtin("theorem7")
    assert t7[0, 0] == pytest.approx(INV_SQRT2)
    assert t7[0, 1] == 0.0
    assert t7[2, 0] == pytest.approx(-INV_SQRT2)
    assert np.array_equal(matrices.builtin("identity"), np.eye(4))


def test_builtin_returns_copy():
    u = matrices.builtin("pbs2")
    u[0, 0] = 99.0
    assert matrices.builtin("pbs2")[0, 0] == 0.5


def test_builtin_unknown_name():
    with pytest.raises(matrices.MalformedInputError):
        matrices.builtin("hadamard9")


def test_validate_unitary_accepts_and_rejects():
    matrices.validate_unitary(np.eye(4))
    with pytest.raises(matrices.NotUnitaryError):
        matrices.validate_unitary(np.eye(4) * 1.001)
    with pytest.raises(matrices.MalformedInputError):
        matrices.validate_unitary(np.eye(3))


def test_haar_sample_is_unitary():
    u = matrices.haar_sample(np.random.default_rng(0), size=200)
    assert u.shape == (200, 4, 4)
    defect = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(4)).max()
    assert defect < 1e-12


def test_haar_sample_deterministic_per_seed():
    a = matrices.haar_sample(np.random.default_rng(42))
    b = matrices.haar_sample(np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_haar_distinct_seeds_distinct_matrices():
    seen = {complex(matrices.haar_sample(np.random.default_rng(s))[0, 0]) for s in range(300)}
    assert len(seen) == 300


def test_haar_moment():
    # E|U_ij|^2 = 1/4; at N = 20000 the standard error is about 0.0014
    u = matrices.haar_sample(np.random.default_rng(7), size=20000)
    mean = (np.abs(u) ** 2).mean(axis=0)
    assert np.abs(mean - 0.25).max() < 0.006


def _householder_q(z):
    """Reference: numpy's Householder QR with R's diagonal made real and positive."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _householder_rows(g):
    """Reference for orthonormalised rows: g = L Q is the transpose of the
    QR decomposition g^T = Q^T L^T, so Q is the transposed Householder Q."""
    return np.swapaxes(_householder_q(np.swapaxes(g, -1, -2)), -1, -2)


def _unitarity_defect(u):
    return np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(u.shape[-1])).max()


@pytest.mark.parametrize("m", [2, 4])
def test_haar_qr_matches_householder(m):
    rng = np.random.default_rng(m)
    re, im = rng.standard_normal((2, 3000, m, m))
    q = matrices._gram_schmidt(re, im)
    assert q.shape == (m, m, 3000)  # rows first, batch last
    q = q.transpose(2, 0, 1)
    assert np.abs(q - _householder_rows(re + 1j * im)).max() <= 1e-10
    assert _unitarity_defect(q) <= 1e-14
    # completing the first rows gives the same rows as one pass
    top = matrices._gram_schmidt(re[:, :1], im[:, :1])
    rest = matrices._gram_schmidt(re[:, 1:], im[:, 1:], top)
    assert rest.shape == (m, m, 3000) and np.array_equal(rest[:1], top)
    assert np.abs(rest.transpose(2, 0, 1) - q).max() <= 1e-10


B = matrices._BLOCK


@pytest.mark.parametrize("size", [None, 0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_haar_sample_blocks_match_householder(size):
    u = matrices.haar_sample(np.random.default_rng(21), size=size)
    shape = () if size is None else (size,)
    assert u.shape == shape + (4, 4)
    # the same stream as four draws: the real then the imaginary parts of
    # rows 1-2 of every matrix, then those of rows 3-4
    rng = np.random.default_rng(21)
    top = rng.standard_normal(shape + (2, 4)) + 1j * rng.standard_normal(shape + (2, 4))
    bottom = rng.standard_normal(shape + (2, 4)) + 1j * rng.standard_normal(shape + (2, 4))
    if size != 0:
        assert np.abs(u - _householder_rows(np.concatenate([top, bottom], axis=-2))).max() <= 1e-10
        assert _unitarity_defect(u) <= 1e-14


def test_haar_sample_redraw_follows_the_whole_failed_draw(monkeypatch):
    """A degenerate second block redraws from where the whole first draw,
    imaginary parts of the later blocks included, ends in the stream."""
    real_gs, calls = matrices._gram_schmidt, []

    def second_block_degenerate(re, im, done=None):
        calls.append(len(re))
        if len(calls) == 2:
            raise matrices.DegenerateSampleError("forced")
        return real_gs(re, im, done)

    n = 2 * B + 5
    monkeypatch.setattr(matrices, "_gram_schmidt", second_block_degenerate)
    u = matrices.haar_sample(np.random.default_rng(8), size=n)
    assert calls == [B, B] + [B, B, 5] * 2  # stage 1 twice, then stage 2
    rng = np.random.default_rng(8)
    rng.standard_normal((2, n, 2, 4))  # the failed draw
    top = real_gs(*rng.standard_normal((2, n, 2, 4)))
    rows = real_gs(*rng.standard_normal((2, n, 2, 4)), top)
    np.testing.assert_array_equal(u, rows.transpose(2, 0, 1))


def test_haar_qr_rejects_rank_deficient_input():
    re, im = np.random.default_rng(4).standard_normal((2, 5, 4, 4))
    re[3, 2], im[3, 2] = re[3, 0], im[3, 0]  # one matrix with two equal rows
    with pytest.raises(matrices.DegenerateSampleError):
        matrices._gram_schmidt(re, im)
    done = matrices._gram_schmidt(re[:, :2], im[:, :2])
    with pytest.raises(matrices.DegenerateSampleError):
        matrices._gram_schmidt(re[:, 2:], im[:, 2:], done)  # a new row in the span of done


@pytest.mark.parametrize("fails", [2, 5])
def test_haar_sample_redraws_degenerate_samples(monkeypatch, fails):
    """Five draws per stage: a degenerate draw is replaced by a fresh one,
    and redrawing rows 3-4 keeps rows 1-2."""
    real_gs = matrices._gram_schmidt
    clean = matrices.haar_sample(np.random.default_rng(1), size=3)
    for stage in (1, 2):
        draws = []

        def degenerate_first(re, im, done=None):
            if (done is None) == (stage == 1):
                draws.append(re.copy())
                if len(draws) <= fails:
                    raise matrices.DegenerateSampleError("forced")
            return real_gs(re, im, done)

        monkeypatch.setattr(matrices, "_gram_schmidt", degenerate_first)
        if fails >= 5:
            with pytest.raises(matrices.DegenerateSampleError):
                matrices.haar_sample(np.random.default_rng(1), size=3)
            assert len(draws) == 5
            continue
        u = matrices.haar_sample(np.random.default_rng(1), size=3)
        assert len(draws) == fails + 1 and not np.array_equal(draws[0], draws[-1])
        assert _unitarity_defect(u) <= 1e-14
        assert np.array_equal(u[:, :2], clean[:, :2]) == (stage == 2)


@pytest.mark.parametrize("size", [2.7, 2.0, -1, True, "3"])
def test_sample_counts_must_be_non_negative_integers(size):
    with pytest.raises(matrices.MalformedInputError):
        matrices.haar_sample(np.random.default_rng(0), size=size)
    for shape in (size, (2, size)):
        with pytest.raises(matrices.MalformedInputError):
            matrices.random_params(np.random.default_rng(0), size=shape)


def test_from_params_unitary_and_batch():
    rng = np.random.default_rng(3)
    theta = matrices.random_params(rng, size=(5, 7))
    u = matrices.from_params(theta)
    assert u.shape == (5, 7, 4, 4)
    defect = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(4)).max()
    assert defect < 1e-12


def test_from_params_zero_is_identity():
    assert np.allclose(matrices.from_params(np.zeros(16)), np.eye(4), atol=1e-15)


def test_params_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = matrices.haar_sample(rng)
        v = matrices.from_params(matrices.params_from_matrix(u))
        assert np.abs(u - v).max() < 1e-10


def test_random_params_range_and_shapes():
    rng = np.random.default_rng(1)
    p = matrices.random_params(rng)
    assert p.shape == (16,)
    p = matrices.random_params(rng, size=9)
    assert p.shape == (9, 16)
    assert np.abs(p).max() <= np.pi


def test_phase_multiply_preserves_unitarity():
    rng = np.random.default_rng(2)
    u = matrices.haar_sample(rng)
    v = matrices.phase_multiply(u, rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4))
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12
    assert np.allclose(np.abs(v), np.abs(u))


def test_matrix_json_round_trip(tmp_path):
    u = matrices.haar_sample(np.random.default_rng(9))
    path = tmp_path / "u.json"
    matrices.save_matrix(path, u)
    v = matrices.load_matrix(path)
    assert np.abs(u - v).max() < 1e-15


def test_load_matrix_rejects_non_unitary(tmp_path):
    path = tmp_path / "bad.json"
    doc = matrices.matrix_to_json(np.eye(4))
    doc["matrix"][0][0] = [2.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(matrices.NotUnitaryError):
        matrices.load_matrix(path)


def test_load_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{\"matrix\": [[1, 2], [3]]}")
    with pytest.raises(matrices.MalformedInputError):
        matrices.load_matrix(path)


def test_resolve_matrix_builtin_and_path(tmp_path):
    assert np.array_equal(matrices.resolve_matrix("pbs2"), matrices.builtin("pbs2"))
    path = tmp_path / "m.json"
    matrices.save_matrix(path, matrices.builtin("theorem7"))
    assert np.allclose(
        matrices.resolve_matrix(str(path)), matrices.builtin("theorem7")
    )
    with pytest.raises(matrices.MalformedInputError):
        matrices.resolve_matrix("no-such-matrix-or-file")
