"""Batched evaluation against one matrix at a time, over random batches.

Rows agree exactly up to 1,365 rows (x86-64 with AVX-512, numpy 2.4.6).
From 1,366 rows on, some differ by an ulp: numpy's ufuncs then run the
strided (..., 6) inputs through 8,192-element buffers, whose vector loops
can round differently from a single matrix's scalar tail.  So rows are
compared at `ULPS`, a few ulps of values that lie in [0, 1].
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from fusionlab import fusion, matrices, optimize as opt

ULPS = 4 * np.finfo(float).eps

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
    np.testing.assert_allclose(opt.expectation_entropy(u), single, rtol=0, atol=ULPS)
    for s in (0.0, interior, 1.0):
        single = np.array([opt.threshold_probability(x, s) for x in u])
        np.testing.assert_allclose(opt.threshold_probability(u, s), single, rtol=0, atol=ULPS)


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
    np.testing.assert_allclose(np.array(rows), direct, rtol=0, atol=ULPS)
    targets = [0.0, interior, 1.0]
    rows, _ = opt.random_scatter(n, seed, "threshold", s_targets=targets)
    direct = [(s, p) for s in targets for p in opt.threshold_probability(u, s)]
    np.testing.assert_allclose(np.array(rows), np.array(direct), rtol=0, atol=ULPS)
