"""Batched evaluation against one matrix at a time, over random batches.

Every quantity comes from one kernel that works batch last: each ufunc runs
over contiguous (..., batch) arrays, elementwise, and every sum runs over
the six outcomes or four channels in the same order for any batch size.
A batched row therefore equals the single-matrix value exactly, for any
batch size, and the rows of `random_scatter`, which scores in blocks,
equal a direct evaluation of the whole batch.  The sizes drawn here reach
past 1,365 rows, where a batch-first (..., 6) layout sends the ufuncs
through numpy's 8,192-element buffers and rows differed by an ulp.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from fusionlab import fusion, matrices, optimize as opt

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


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2500),
    interior=st.floats(0.01, 0.99),
)
def test_random_scatter_rows_equal_direct_evaluation(seed, n, interior):
    u = matrices.haar_sample(np.random.default_rng(seed), size=n)
    rows, _ = opt.random_scatter(n, seed, "expectation")
    direct = np.stack([np.sum(fusion.relevant_probabilities(u), axis=-1), opt.expectation_entropy(u)], -1)
    np.testing.assert_array_equal(np.array(rows), direct)
    targets = [0.0, interior, 1.0]
    rows, _ = opt.random_scatter(n, seed, "threshold", s_targets=targets)
    direct = [(s, p) for s in targets for p in opt.threshold_probability(u, s)]
    np.testing.assert_array_equal(np.array(rows), np.array(direct))


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
