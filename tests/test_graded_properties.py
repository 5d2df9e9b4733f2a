"""Property tests: the per-weight linear algebra against the dense one.

A random weight-graded endomorphism has a random weight per basis vector
(basis order shuffled) and sends weight w to weight w + shift through a
random low-rank block; every graded_* result must agree with the dense
FpMatrix computation on the whole matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho.fpmatrix import (
    FpMatrix,
    generalized_eigenspace,
    graded_complement,
    graded_eigenspaces,
    graded_image,
    graded_kernel,
    graded_solve,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def graded_maps(draw, shift=None):
    """(matrix, weight per basis vector) for a graded endomorphism."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    if shift is None:
        shift = draw(st.sampled_from((-4, -2, 0, 2)))
    levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    dims = [draw(st.integers(0, 4)) for _ in levels]
    weights = [2 * w for w, d in zip(levels, dims) for _ in range(d)]
    perm = draw(st.permutations(range(len(weights))))
    weights = [weights[i] for i in perm]
    n = len(weights)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array(weights, dtype=np.int64)
    a = np.zeros((n, n), dtype=np.int64)
    for src in set(weights):
        cols = np.flatnonzero(w == src)
        rows = np.flatnonzero(w == src + shift)
        if not rows.size:
            continue
        k = draw(st.integers(0, min(rows.size, cols.size)))
        block = rng.integers(0, p, size=(rows.size, k)) @ rng.integers(0, p, size=(k, cols.size))
        a[np.ix_(rows, cols)] = block
    return FpMatrix(p, a), weights


def _homogeneous(vec, weight, weights):
    return all(weights[i] == weight for i in np.flatnonzero(vec))


def _column_multiset(m: FpMatrix):
    return sorted(tuple(c) for c in m.a.T.tolist())


@SETTINGS
@given(graded_maps())
def test_graded_image_matches_dense_column_space(case):
    mat, weights = case
    image, image_weights = graded_image(mat, weights)
    assert _column_multiset(image) == _column_multiset(mat.column_space_basis())
    for j, w in enumerate(image_weights):
        assert _homogeneous(image.a[:, j], w, weights)


@SETTINGS
@given(graded_maps())
def test_graded_kernel_matches_dense_nullity(case):
    mat, weights = case
    kb, kweights = graded_kernel(mat, weights)
    assert kb.cols == mat.kernel_basis().cols
    assert (mat @ kb).is_zero()
    assert kb.rank() == kb.cols
    assert kweights == sorted(kweights)
    for j, w in enumerate(kweights):
        assert _homogeneous(kb.a[:, j], w, weights)


@SETTINGS
@given(graded_maps(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_graded_solve_matches_dense_solve(case, seed, consistent):
    mat, weights = case
    rng = np.random.default_rng(seed)
    if consistent:
        rhs = mat @ FpMatrix(mat.p, rng.integers(0, mat.p, size=(mat.cols, 2)))
    else:
        rhs = FpMatrix(mat.p, rng.integers(0, mat.p, size=(mat.rows, 2)))
    try:
        dense = mat.solve(rhs)
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(mat, weights, rhs)
        return
    assert graded_solve(mat, weights, rhs) == dense


@SETTINGS
@given(graded_maps(), st.integers(0, 2 ** 32 - 1))
def test_graded_complement_matches_dense_pivots(case, seed):
    mat, weights = case
    span, span_weights = graded_image(mat, weights)
    # random weight-homogeneous vectors, some of them dependent
    rng = np.random.default_rng(seed)
    w = np.array(weights, dtype=np.int64)
    cols, vec_weights = [], []
    for target in rng.permutation(weights).tolist():
        v = np.where(w == target, rng.integers(0, mat.p, size=w.size), 0)
        cols.append(v)
        vec_weights.append(target)
    vecs = FpMatrix(mat.p, np.array(cols, dtype=np.int64).reshape(len(cols), mat.rows).T)
    picked = graded_complement(span, span_weights, vecs, vec_weights)
    both = FpMatrix(mat.p, np.concatenate([span.a, vecs.a], axis=1))
    dense = {j - span.cols for j in both.rref()[1] if j >= span.cols}
    assert sorted(picked) == sorted(dense)
    assert len(picked) == len(set(picked))


@SETTINGS
@given(graded_maps(shift=0))
def test_graded_eigenspaces_match_dense(case):
    mat, weights = case
    blocks = graded_eigenspaces(mat, weights)
    for lam in range(mat.p):
        dense = generalized_eigenspace(mat, lam).cols
        assert (blocks[lam][0].cols if lam in blocks else 0) == dense
    for basis, bweights in blocks.values():
        for j, w in enumerate(bweights):
            assert _homogeneous(basis.a[:, j], w, weights)


def test_split_rejects_an_ungraded_map():
    # columns of weights 0 and 2 both reach row 0
    mat = FpMatrix(3, [[1, 1], [0, 0]])
    with pytest.raises(ValueError):
        graded_kernel(mat, [0, 2])
    with pytest.raises(ValueError):
        graded_kernel(mat, [0])
