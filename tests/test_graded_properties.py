"""Property tests: the per-weight linear algebra against the dense one.

A random weight-graded endomorphism has a random weight per basis vector
(basis order shuffled) and sends weight w to weight w + shift through a
random low-rank block; a random column set has weight-homogeneous
columns of random weights.  Every graded_* result, on the map or the
columns cut into GradedMaps, and every GradedMap operation must agree
with the dense FpMatrix computation on the whole matrix; column sets are
compared through .dense().  The stacked row reduction behind
graded_eigenspaces must agree with _rref slice by slice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    _rref,
    _rref_stack,
    generalized_eigenspace,
    graded_columns,
    graded_complement,
    graded_eigenspaces,
    graded_image,
    graded_kernel,
    graded_projector,
    graded_solve,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def random_weights(draw):
    """A shuffled list of even weights with random multiplicities."""
    levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    dims = [draw(st.integers(0, 4)) for _ in levels]
    weights = [2 * w for w, d in zip(levels, dims) for _ in range(d)]
    perm = draw(st.permutations(range(len(weights))))
    return [weights[i] for i in perm]


def _draw_map(draw, p, weights, shift):
    """A dense map sending weight w to w + shift by random low-rank blocks."""
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
    return FpMatrix(p, a)


SHIFTS = st.sampled_from((-4, -2, 0, 2))


@st.composite
def graded_maps(draw, shift=None):
    """(matrix, weight per basis vector, the matrix cut into a GradedMap)
    for a graded endomorphism."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    if shift is None:
        shift = draw(SHIFTS)
    weights = draw(random_weights())
    mat = _draw_map(draw, p, weights, shift)
    return mat, weights, GradedMap.cut(mat, Grading(weights), shift)


def _dense(cols: GradedMap):
    """A column set as (dense columns, weight per column)."""
    return cols.dense(), cols.source.weights.tolist()


def _homogeneous(vec, weight, weights):
    return all(weights[i] == weight for i in np.flatnonzero(vec))


def _column_multiset(m: FpMatrix):
    return sorted(tuple(c) for c in m.a.T.tolist())


@SETTINGS
@given(graded_maps())
def test_graded_image_matches_dense_column_space(case):
    mat, weights, graded = case
    image, image_weights = _dense(graded_image(graded))
    assert _column_multiset(image) == _column_multiset(mat.column_space_basis())
    for j, w in enumerate(image_weights):
        assert _homogeneous(image.a[:, j], w, weights)


@SETTINGS
@given(graded_maps())
def test_graded_kernel_matches_dense_nullity(case):
    mat, weights, graded = case
    kb, kweights = _dense(graded_kernel(graded))
    assert kb.cols == mat.kernel_basis().cols
    assert (mat @ kb).is_zero()
    assert kb.rank() == kb.cols
    assert kweights == sorted(kweights)
    for j, w in enumerate(kweights):
        assert _homogeneous(kb.a[:, j], w, weights)


@SETTINGS
@given(graded_maps(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_graded_solve_matches_dense_solve(case, seed, consistent):
    mat, weights, graded = case
    # column j of mat is a vector of weight weights[j] + shift
    rng = np.random.default_rng(seed)
    if consistent:
        rhs = mat @ FpMatrix(mat.p, rng.integers(0, mat.p, size=(mat.cols, 2)))
    else:
        rhs = FpMatrix(mat.p, rng.integers(0, mat.p, size=(mat.rows, 2)))
    try:
        dense = mat.solve(rhs)
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(graded, rhs.a)
        return
    assert FpMatrix(mat.p, graded_solve(graded, rhs.a)) == dense


@SETTINGS
@given(graded_maps(), st.integers(0, 2 ** 32 - 1))
def test_graded_complement_matches_dense_pivots(case, seed):
    mat, weights, graded = case
    span_cols = graded_image(graded)
    span = span_cols.dense()
    # random weight-homogeneous vectors, some of them dependent
    rng = np.random.default_rng(seed)
    w = np.array(weights, dtype=np.int64)
    cols, vec_weights = [], []
    for target in rng.permutation(weights).tolist():
        v = np.where(w == target, rng.integers(0, mat.p, size=w.size), 0)
        cols.append(v)
        vec_weights.append(target)
    vecs = FpMatrix(mat.p, np.array(cols, dtype=np.int64).reshape(len(cols), mat.rows).T)
    picked = graded_complement(span_cols, GradedMap.cut(vecs, graded.grading, 0,
                                                        Grading(vec_weights)))
    both = FpMatrix(mat.p, np.concatenate([span.a, vecs.a], axis=1))
    dense = {j - span.cols for j in both.rref()[1] if j >= span.cols}
    assert sorted(picked) == sorted(dense)
    assert len(picked) == len(set(picked))


def _eigenspaces_per_block(mat: FpMatrix, weights):
    """The reference for graded_eigenspaces: generalized_eigenspace on each
    weight block, by increasing weight, embedded in the whole space."""
    found = {}
    w = np.array(weights, dtype=np.int64)
    for weight in sorted(set(weights)):
        idx = np.flatnonzero(w == weight)
        block = FpMatrix(mat.p, mat.a[np.ix_(idx, idx)])
        for lam in range(mat.p):
            kb = generalized_eigenspace(block, lam)
            if kb.cols:
                vecs = np.zeros((mat.rows, kb.cols), dtype=np.int64)
                vecs[idx] = kb.a
                cols, ws = found.setdefault(lam, ([], []))
                cols.append(vecs)
                ws += [weight] * kb.cols
    return {lam: (FpMatrix(mat.p, np.concatenate(cols, axis=1)), ws)
            for lam, (cols, ws) in sorted(found.items())}


def _assert_same_eigenspaces(got, want):
    got = {lam: _dense(cols) for lam, cols in got.items()}
    assert list(got) == list(want)
    for lam, (basis, bweights) in want.items():
        assert got[lam][0].shape == basis.shape
        assert got[lam][0].a.tobytes() == basis.a.tobytes()
        assert got[lam][1] == bweights


@SETTINGS
@given(graded_maps(shift=0))
def test_graded_eigenspaces_match_dense(case):
    mat, weights, graded = case
    blocks = graded_eigenspaces(graded)
    _assert_same_eigenspaces(blocks, _eigenspaces_per_block(mat, weights))
    for lam in range(mat.p):
        dense = generalized_eigenspace(mat, lam).cols
        assert (blocks[lam].shape[1] if lam in blocks else 0) == dense
    for basis, bweights in map(_dense, blocks.values()):
        for j, w in enumerate(bweights):
            assert _homogeneous(basis.a[:, j], w, weights)


def test_graded_eigenspaces_without_split_characteristic_polynomial():
    # x^2 - 2 has no root mod 5: the weight-0 block has no eigenvalue
    mat = FpMatrix(5, [[0, 1, 0], [2, 0, 0], [0, 0, 3]])
    weights = [0, 0, 2]
    graded = GradedMap.cut(mat, Grading(weights), 0)
    blocks = graded_eigenspaces(graded)
    _assert_same_eigenspaces(blocks, _eigenspaces_per_block(mat, weights))
    assert list(blocks) == [3]
    assert graded_eigenspaces(GradedMap.cut(FpMatrix(5, [[0, 1], [2, 0]]), Grading([0, 0]), 0)) == {}
    with pytest.raises(ValueError, match="does not split"):
        graded_projector(graded)


@st.composite
def matrix_stacks(draw):
    """(stack, p): random (B, rows, cols) stacks, slices of random rank."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    count, rows, cols = (draw(st.integers(0, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.zeros((count, rows, cols), dtype=np.int64)
    for b in range(count):
        k = draw(st.integers(0, min(rows, cols)))
        stack[b] = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))
    return stack % p, p


@settings(max_examples=150, deadline=None)
@given(matrix_stacks())
def test_rref_stack_matches_rref_per_slice(case):
    stack, p = case
    red, pivots = _rref_stack(stack, p)
    assert red.shape == stack.shape and pivots.shape == (stack.shape[0], stack.shape[2])
    for b in range(stack.shape[0]):
        want, want_pivots = _rref(stack[b], p)
        assert np.array_equal(red[b], want)
        assert tuple(np.flatnonzero(pivots[b]).tolist()) == want_pivots


@st.composite
def graded_triples(draw):
    """On one random grading: maps a and a2 of one random shift and b of
    another, each with its shift, a vector, an array of columns and a
    weight-homogeneous column set with its column weights (some of them
    weights of no basis vector) and a coefficient vector."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    weights = draw(random_weights())
    sa, sb = draw(SHIFTS), draw(SHIFTS)
    maps = [(_draw_map(draw, p, weights, s), s) for s in (sa, sa, sb)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.integers(-p, 2 * p, size=len(weights))
    cols = rng.integers(0, p, size=(len(weights), draw(st.integers(0, 3))))
    col_weights = draw(st.lists(st.sampled_from([*weights, 8]), max_size=5))
    w = np.array(weights, dtype=np.int64)
    colset = np.zeros((w.size, len(col_weights)), dtype=np.int64)
    for j, cw in enumerate(col_weights):
        colset[:, j] = np.where(w == cw, rng.integers(0, p, size=w.size), 0)
    coeffs = rng.integers(-p, 2 * p, size=len(col_weights))
    return p, weights, maps, vec, cols, (FpMatrix(p, colset), col_weights, coeffs)


@SETTINGS
@given(graded_triples(), st.integers(1, 9), st.integers(-9, 9))
def test_graded_map_matches_dense(case, power, scalar):
    p, weights, ((a, sa), (a2, _), (b, sb)), vec, cols, _ = case
    grading = Grading(weights)
    ga, ga2, gb = (GradedMap.cut(m, grading, s) for m, s in ((a, sa), (a2, sa), (b, sb)))
    assert ga.dense() == a
    assert (ga @ gb).shift == sa + sb
    assert (ga @ gb).dense() == a @ b
    assert (gb ** power).dense() == b ** power
    assert (ga + scalar * ga2).dense() == a + scalar * a2
    assert (ga - ga2).dense() == a - a2
    assert np.array_equal(ga @ vec, a @ vec)
    assert np.array_equal(ga @ cols, (a @ FpMatrix(p, cols)).a)
    # the joint kernel against the dense kernel of the stacked maps
    kb, kweights = _dense(graded_kernel(ga, gb))
    stacked = FpMatrix(p, np.concatenate([a.a, b.a]))
    assert kb.cols == stacked.kernel_basis().cols and kb.rank() == kb.cols
    assert (stacked @ kb).is_zero()
    for j, w in enumerate(kweights):
        assert _homogeneous(kb.a[:, j], w, weights)
    image, image_weights = _dense(graded_image(gb))
    assert _column_multiset(image) == _column_multiset(b.column_space_basis())
    assert all(_homogeneous(image.a[:, j], w, weights) for j, w in enumerate(image_weights))
    if sb != sa and not b.is_zero():
        with pytest.raises(ValueError):
            GradedMap.cut(b, grading, sa)


@SETTINGS
@given(graded_triples(), st.integers(-9, 9))
def test_column_set_matches_dense(case, scalar):
    """A map from the grading of column weights into the basis grading
    (source and target differ) against its dense columns."""
    p, weights, ((a, sa), _, _), _, _, (c, col_weights, coeffs) = case
    grading = Grading(weights)
    ga = GradedMap.cut(a, grading, sa)
    gc = GradedMap.cut(c, grading, 0, Grading(col_weights))
    assert gc.shape == c.shape and gc.dense() == c
    assert (gc + scalar * gc).dense() == c + scalar * c
    assert all(np.array_equal(gc.column(j), c.a[:, j]) for j in range(c.cols))
    # composition with an action, application to vectors and to columns
    assert (ga @ gc).shift == sa and (ga @ gc).dense() == a @ c
    assert np.array_equal(gc @ coeffs, c @ coeffs)
    assert np.array_equal(gc @ np.eye(c.cols, dtype=np.int64), c.a)
    # two column sets side by side
    image = graded_image(ga)
    both = np.concatenate([c.a, image.dense().a], axis=1)
    assert graded_columns(gc, image).dense().a.tolist() == both.tolist()
    # solving against the column set: an action's image of it, and a vector
    try:
        dense = c.solve(a @ c)
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(gc, ga @ gc)
    else:
        solved = graded_solve(gc, ga @ gc)
        assert solved.shift == sa and solved.dense() == dense
    rhs = c @ coeffs
    assert np.array_equal(graded_solve(gc, rhs), c.solve(FpMatrix(p, rhs[:, None])).a[:, 0])
    if not c.is_zero():  # the columns read with other weights are not weight-homogeneous
        with pytest.raises(ValueError, match="does not move weights"):
            GradedMap.cut(c, grading, 0, Grading([w + 2 for w in col_weights]))


def test_cut_rejects_an_ungraded_map():
    # columns of weights 0 and 2 both reach row 0
    mat = FpMatrix(3, [[1, 1], [0, 0]])
    for shift in (0, -2, 2):
        with pytest.raises(ValueError, match="does not move weights"):
            GradedMap.cut(mat, Grading([0, 2]), shift)
    with pytest.raises(ValueError, match="does not match the grading"):
        GradedMap.cut(mat, Grading([0]), 0)


def test_column_weights_must_match_the_rows():
    # the column of weight 0 has an entry in the row of weight 2: it is no
    # column set, so it cannot reach graded_solve or graded_complement
    grading = Grading([0, 2])
    mat = FpMatrix(3, [[1], [1]])
    with pytest.raises(ValueError, match="does not move weights"):
        GradedMap.cut(mat, grading, 0, Grading([0]))
    with pytest.raises(ValueError, match="does not match the grading"):
        GradedMap.cut(mat, grading, 0, Grading([0, 2]))
    # a column inside the rows of its weight solves: 2 * 2 = 1 mod 3
    cols = GradedMap.cut(FpMatrix(3, [[2], [0]]), grading, 0, Grading([0]))
    assert graded_solve(cols, [[1], [0]]).tolist() == [[2]]
    # a right-hand side outside the rows of every column
    with pytest.raises(ValueError, match="inconsistent"):
        graded_solve(cols, [1, 1])
    with pytest.raises(ValueError, match="inconsistent"):
        graded_solve(cols, GradedMap.cut(FpMatrix(3, [[0], [1]]), grading, 0, Grading([2])))
