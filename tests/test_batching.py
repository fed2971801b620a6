"""Batched evaluation against one matrix at a time, over random batches.

Every quantity comes from one kernel that works batch last: each ufunc runs
over contiguous (..., batch) arrays, elementwise, and every sum runs over
the six outcomes or four channels in the same order for any batch size.
A batched row therefore equals the single-matrix value exactly, for any
batch size, and the rows of `random_scatter`, which scores its Ginibre rows
in blocks from their row plane (`fusion._plane_outcomes`), equal one call
of that front end on the whole batch.  The sizes drawn here reach past
1,365 rows, where a batch-first (..., 6) layout sends the ufuncs through
numpy's 8,192-element buffers and rows differed by an ulp.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from fusionlab import entanglement, fusion, matrices, optimize as opt

batches = st.builds(
    lambda seed, n, names: np.concatenate(
        [matrices.haar_sample(np.random.default_rng(seed), size=n)]
        + [matrices.builtin(nm)[None] for nm in names]
    ),
    st.integers(0, 2**32 - 1),
    st.integers(1, 1500),
    st.lists(st.sampled_from(matrices.BUILTIN_NAMES), max_size=4),
)
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


@PROPERTY
@given(u=batches, interior=st.floats(0.01, 0.99))
def test_batched_rows_equal_single_values(u, interior):
    single = np.array([opt.expectation_entropy(x) for x in u])
    np.testing.assert_array_equal(opt.expectation_entropy(u), single)
    for s in (0.0, interior, 1.0):
        single = np.array([opt.threshold_probability(x, s) for x in u])
        np.testing.assert_array_equal(opt.threshold_probability(u, s), single)


def _scatter_rows(out, n, targets):
    """`random_scatter`'s rows from the kernel output `out` of n matrices:
    (p_total, <S>), or (s, P(s)) target by target.  p_total is the sum of
    the p_ij, not the closed form (1 + sum n^2) / 2."""
    if targets is None:
        return np.stack([np.add.reduce(out.p, 0), np.add.reduce(out.p * out.s, 0)], -1)
    return np.concatenate(
        [np.stack([np.full(n, s), opt.ThresholdProbability._score(out, s)[0]], -1) for s in targets]
    )


def check_scatter_rows(rows, seed, n, targets=None):
    """The rows of `random_scatter(n, seed)` (threshold mode with `targets`)
    (a) equal one `fusion._plane_outcomes` call on the whole batch of
    Ginibre rows 1-2 drawn at `seed`, all real parts, then all imaginary
    parts: exact below 2,731 rows, past which numpy elides the complex
    temporaries of such a call; and (b) agree to 1e-14 with the public
    kernels on `haar_sample(seed, n)`, the same matrices orthonormalized,
    except at threshold rows where an outcome's entropy lies within 1e-12
    of s and rounding may decide P(s); those are counted, and few."""
    assert n < 2731
    re, im = np.random.default_rng(seed).standard_normal((2, n, 2, 4))
    z = np.empty((2, 4, n), dtype=complex)
    z.real, z.imag = re.transpose(1, 2, 0), im.transpose(1, 2, 0)
    np.testing.assert_array_equal(rows, _scatter_rows(fusion._plane_outcomes(z), n, targets))

    u = matrices.haar_sample(np.random.default_rng(seed), size=n)
    if targets is None:
        want = np.stack([np.sum(fusion.relevant_probabilities(u), -1), opt.expectation_entropy(u)], -1)
        edge = np.zeros(n, dtype=bool)
    else:
        want = np.array([(s, p) for s in targets for p in opt.threshold_probability(u, s)])
        entropies = entanglement.entropies_from_matrix(u)
        edge = np.concatenate([np.any(np.abs(entropies - s) <= 1e-12, axis=-1) for s in targets])
    assert np.count_nonzero(edge) <= len(rows) // 100
    assert np.abs(rows - want)[~edge].max() <= 1e-14


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2500),
    interior=st.floats(0.01, 0.99),
)
def test_random_scatter_rows_equal_direct_evaluation(seed, n, interior):
    rows, _ = opt.random_scatter(n, seed, "expectation")
    check_scatter_rows(rows, seed, n)
    targets = [0.0, interior, 1.0]
    rows, _ = opt.random_scatter(n, seed, "threshold", s_targets=targets)
    check_scatter_rows(rows, seed, n, targets)


def test_batch_past_temporary_elision_equals_chunks():
    """Past 2,731 rows numpy multiplies the kernel's complex temporaries in
    place (temporary elision), which rounds differently from an out-of-place
    product; a 3,000-row batch must still equal its 1,000-row chunks."""
    u = np.concatenate(
        [matrices.haar_sample(np.random.default_rng(2731), size=3000)]
        + [matrices.builtin(nm)[None] for nm in matrices.BUILTIN_NAMES]
    )
    chunks = [u[k : k + 1000] for k in range(0, len(u), 1000)]
    chunked = np.concatenate([opt.expectation_entropy(c) for c in chunks])
    np.testing.assert_array_equal(opt.expectation_entropy(u), chunked)
    for s in (0.0, 0.37, 1.0):
        chunked = np.concatenate([opt.threshold_probability(c, s) for c in chunks])
        np.testing.assert_array_equal(opt.threshold_probability(u, s), chunked)
