"""Property tests: the per-weight linear algebra against the dense one.

A random weight-graded endomorphism has a random weight per basis vector
(basis order shuffled) and sends weight w to weight w + shift through a
random low-rank block; a random column set has weight-homogeneous
columns of random weights.  Every graded_* result, on the map or the
columns cut into GradedMaps, and every GradedMap operation must agree
with the dense references of tests/oracles.py on the whole matrix;
column sets are compared through .dense().  Each graded_* function
row-reduces all its cells in one _rref_stack call;
tests/test_fp_oracle.py checks that reduction against sympy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho import TruncatedSymAlgebra, fpmatrix, sl2
from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    _rref_stack,
    cell_nullities,
    graded_columns,
    graded_complement,
    graded_eigenspaces,
    graded_image,
    graded_kernel,
    graded_projector,
    graded_solve,
)
from oracles import (
    assert_same_eigenspaces,
    cell_eigenspaces,
    column_space,
    eigenspace,
    kernel,
    pivots,
    rank,
    solve,
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


def _column_multiset(a: np.ndarray):
    return sorted(tuple(c) for c in a.T.tolist())


@SETTINGS
@given(graded_maps())
def test_graded_image_matches_dense_column_space(case):
    mat, weights, graded = case
    image, image_weights = _dense(graded_image(graded))
    assert _column_multiset(image.a) == _column_multiset(column_space(mat.a, mat.p))
    for j, w in enumerate(image_weights):
        assert _homogeneous(image.a[:, j], w, weights)


@SETTINGS
@given(graded_maps())
def test_graded_kernel_matches_dense_nullity(case):
    mat, weights, graded = case
    kb, kweights = _dense(graded_kernel(graded))
    assert kb.cols == kernel(mat.a, mat.p).shape[1]
    assert not (mat @ kb).a.any()
    assert rank(kb.a, mat.p) == kb.cols
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
        dense = solve(mat.a, rhs.a, mat.p)
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(graded, rhs.a)
        return
    assert np.array_equal(graded_solve(graded, rhs.a), dense)


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
    joined = graded_columns(span_cols, GradedMap.cut(vecs, graded.grading, 0,
                                                     Grading(vec_weights)))
    picked = graded_complement(joined, span.cols)
    both = np.concatenate([span.a, vecs.a], axis=1)
    dense = {j - span.cols for j in pivots(both, mat.p) if j >= span.cols}
    assert sorted(picked) == sorted(dense)
    assert len(picked) == len(set(picked))


@SETTINGS
@given(graded_maps(shift=0))
def test_graded_eigenspaces_match_dense(case):
    mat, weights, graded = case
    blocks = graded_eigenspaces(graded)
    assert_same_eigenspaces(blocks, cell_eigenspaces(mat.a, mat.p, Grading(weights)))
    for lam in range(mat.p):
        dense = eigenspace(mat.a, lam, mat.p).shape[1]
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
    assert_same_eigenspaces(blocks, cell_eigenspaces(mat.a, 5, Grading(weights)))
    assert list(blocks) == [3]
    assert graded_eigenspaces(GradedMap.cut(FpMatrix(5, [[0, 1], [2, 0]]), Grading([0, 0]), 0)) == {}
    with pytest.raises(ValueError, match="does not split"):
        graded_projector(graded)


def test_each_graded_function_reduces_all_cells_at_once(monkeypatch):
    """graded_kernel, graded_image, graded_complement and graded_solve (on
    an array and on a GradedMap) each call _rref_stack once, on a stack of
    all their cells."""
    M = TruncatedSymAlgebra(sl2(5)).module
    e, f = M.maps["e"], M.maps["f"]
    image = graded_image(f)
    joined = graded_columns(image, graded_kernel(f))
    stacks = []

    def counted(a, p):
        stacks.append(a.shape[0])
        return _rref_stack(a, p)

    monkeypatch.setattr(fpmatrix, "_rref_stack", counted)
    for run in (lambda: graded_kernel(e, f), lambda: graded_image(f),
                lambda: graded_complement(joined, image.shape[1]),
                lambda: graded_solve(f, f @ np.arange(M.dim)),
                lambda: graded_solve(f, f @ joined)):
        stacks.clear()
        run()
        assert len(stacks) == 1 and stacks[0] > 1, stacks


@st.composite
def graded_triples(draw):
    """On one random grading: maps a and a2 of one random shift and b of
    another, each with its shift, a vector and an array of columns, both
    zero outside a random subset of the weights (all, some or none), and a
    weight-homogeneous column set with its column weights (some of them
    weights of no basis vector) and a coefficient vector."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    weights = draw(random_weights())
    sa, sb = draw(SHIFTS), draw(SHIFTS)
    maps = [(_draw_map(draw, p, weights, s), s) for s in (sa, sa, sb)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array(weights, dtype=np.int64)
    live = np.isin(w, list(draw(st.sets(st.sampled_from([*weights, 8])))))
    vec = np.where(live, rng.integers(-p, 2 * p, size=len(weights)), 0)
    cols = rng.integers(0, p, size=(len(weights), draw(st.integers(0, 3)))) * live[:, None]
    col_weights = draw(st.lists(st.sampled_from([*weights, 8]), max_size=5))
    colset = np.zeros((w.size, len(col_weights)), dtype=np.int64)
    for j, cw in enumerate(col_weights):
        colset[:, j] = np.where(w == cw, rng.integers(0, p, size=w.size), 0)
    coeffs = rng.integers(-p, 2 * p, size=len(col_weights))
    return p, weights, maps, vec, cols, (FpMatrix(p, colset), col_weights, coeffs)


@SETTINGS
@given(graded_triples(), st.data())
def test_cell_nullities_match_dense_blocks(case, data):
    """Per selected cell, the joint nullity of the maps against the rank of
    the columns of that cell cut from their dense matrices."""
    p, weights, ((a, sa), _, (b, sb)), *_ = case
    grading = Grading(weights)
    maps = [GradedMap.cut(a, grading, sa), GradedMap.cut(b, grading, sb)]
    cells = np.array(data.draw(st.lists(st.booleans(), min_size=grading.cell_weights.size,
                                        max_size=grading.cell_weights.size)), dtype=bool)
    stacked = np.concatenate([m.dense().a for m in maps])
    want = [int(np.sum(at)) - rank(stacked[:, at], p)
            for at in (grading.weights == w for w in grading.cell_weights)]
    assert cell_nullities(maps).tolist() == want
    assert cell_nullities(maps, cells).tolist() == [want[k] for k in np.flatnonzero(cells)]


def test_cell_nullities_on_weight_and_degree_cells():
    """On cells of one weight and degree, all and selected, against the
    dense blocks."""
    M = TruncatedSymAlgebra(sl2(3)).module
    g, maps = M.grading, [M.maps["e"], M.maps["f"]]
    stacked = np.concatenate([m.dense().a for m in maps])
    want = [int(np.sum(at)) - rank(stacked[:, at], 3)
            for at in ((g.weights == w) & (g.degrees == d)
                       for w, d in zip(g.cell_weights, g.cell_degrees))]
    assert cell_nullities(maps).tolist() == want
    assert cell_nullities(maps, g.cell_degrees == 2).tolist() == [
        m for m, d in zip(want, g.cell_degrees) if d == 2]
    with pytest.raises(ValueError, match="different spaces"):
        cell_nullities([maps[0], GradedMap.identity(3, Grading(g.weights))])


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
    assert (ga + scalar * ga2).dense() == FpMatrix(p, a.a + scalar * a2.a)
    assert (ga - ga2).dense() == FpMatrix(p, a.a - a2.a)
    assert np.array_equal(ga @ vec, a @ vec)
    assert np.array_equal(ga @ cols, (a @ FpMatrix(p, cols)).a)
    # solving for the images of the vector and the columns
    rhs = a @ FpMatrix(p, np.column_stack([vec % p, cols]))
    dense = solve(a.a, rhs.a, p)
    assert np.array_equal(graded_solve(ga, rhs.a[:, 0]), dense[:, 0])
    assert np.array_equal(graded_solve(ga, rhs.a[:, 1:]), dense[:, 1:])
    # the joint kernel against the dense kernel of the stacked maps
    kb, kweights = _dense(graded_kernel(ga, gb))
    stacked = FpMatrix(p, np.concatenate([a.a, b.a]))
    assert kb.cols == kernel(stacked.a, p).shape[1] and rank(kb.a, p) == kb.cols
    assert not (stacked @ kb).a.any()
    for j, w in enumerate(kweights):
        assert _homogeneous(kb.a[:, j], w, weights)
    image, image_weights = _dense(graded_image(gb))
    assert _column_multiset(image.a) == _column_multiset(column_space(b.a, p))
    assert all(_homogeneous(image.a[:, j], w, weights) for j, w in enumerate(image_weights))
    if sb != sa and b.a.any():
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
    assert (gc + scalar * gc).dense() == FpMatrix(p, (1 + scalar) * c.a)
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
        dense = solve(c.a, (a @ c).a, p)
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(gc, ga @ gc)
    else:
        solved = graded_solve(gc, ga @ gc)
        assert solved.shift == sa and np.array_equal(solved.dense().a, dense)
    rhs = c @ coeffs
    assert np.array_equal(graded_solve(gc, rhs), solve(c.a, rhs[:, None], p)[:, 0])
    if c.a.any():  # the columns read with other weights are not weight-homogeneous
        with pytest.raises(ValueError, match="does not move weights"):
            GradedMap.cut(c, grading, 0, Grading([w + 2 for w in col_weights]))


@st.composite
def labelled_maps(draw, shift=None):
    """(p, weights, labels, matrix, shift): a random weight-graded map that
    also keeps a second label per basis vector (block-diagonal in it).  The
    weights are shuffled; the labels never decrease along the basis, as
    the degrees of a truncated symmetric algebra listed degree by degree."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    shift = draw(SHIFTS) if shift is None else shift
    weights = draw(random_weights())
    labels = sorted(draw(st.lists(st.integers(0, 2), min_size=len(weights),
                                  max_size=len(weights))))
    lab, mat = np.array(labels), np.zeros((len(weights),) * 2, dtype=np.int64)
    for label in sorted(set(labels)):
        idx = np.flatnonzero(lab == label)
        mat[np.ix_(idx, idx)] = _draw_map(draw, p, [weights[i] for i in idx], shift).a
    return p, weights, labels, FpMatrix(p, mat), shift


@SETTINGS
@given(labelled_maps(), st.integers(0, 2 ** 32 - 1))
def test_refined_grading_gives_the_weight_only_columns(case, seed):
    """On a map that keeps a second label, graded_kernel, graded_image,
    graded_solve and graded_complement on the (weight, label) cells give
    the columns they give on the weight cells, in the same order, and
    agree with the dense FpMatrix route."""
    p, weights, labels, mat, shift = case
    fine, coarse = Grading(weights, labels), Grading(weights)
    assert fine.values.size == len(set(zip(weights, labels)))
    gf, gc = GradedMap.cut(mat, fine, shift), GradedMap.cut(mat, coarse, shift)
    for result in (graded_kernel, graded_image):
        a, b = result(gf), result(gc)
        assert a.dense() == b.dense()
        assert a.source.weights.tolist() == b.source.weights.tolist()
    assert graded_kernel(gf).shape[1] == kernel(mat.a, p).shape[1]
    image = graded_image(gf).dense()
    assert _column_multiset(image.a) == _column_multiset(column_space(mat.a, p))
    # solving: a consistent and a random right-hand side
    rng = np.random.default_rng(seed)
    for rhs in (mat.a @ rng.integers(0, p, size=(mat.cols, 2)) % p,
                rng.integers(0, p, size=(mat.rows, 2))):
        try:
            dense = solve(mat.a, rhs, p)
        except ValueError:
            for g in (gf, gc):
                with pytest.raises(ValueError, match="inconsistent"):
                    graded_solve(g, rhs)
        else:
            assert np.array_equal(graded_solve(gf, rhs), dense)
            assert np.array_equal(graded_solve(gc, rhs), dense)
    # a complement to the image: random vectors, each inside one (weight,
    # label) cell, listed label by label like the basis
    w, lab = np.array(weights, dtype=np.int64), np.array(labels, dtype=np.int64)
    picks = sorted(rng.integers(0, w.size, size=4).tolist()) if w.size else []
    vecs = np.zeros((w.size, len(picks)), dtype=np.int64)
    for j, i in enumerate(picks):
        vecs[:, j] = np.where((w == w[i]) & (lab == lab[i]), rng.integers(0, p, size=w.size), 0)
    vecs = FpMatrix(p, vecs)
    picked = [graded_complement(graded_columns(graded_image(g),
                                               GradedMap.cut(vecs, g.grading, 0, src)),
                                image.cols)
              for g, src in ((gf, Grading(w[picks], lab[picks])), (gc, Grading(w[picks])))]
    assert picked[0] == picked[1]
    both = np.concatenate([image.a, vecs.a], axis=1)
    assert sorted(picked[0]) == [j - image.cols for j in pivots(both, p) if j >= image.cols]


@SETTINGS
@given(labelled_maps(shift=0))
def test_refined_grading_gives_the_weight_only_eigenspaces(case):
    p, weights, labels, mat, _ = case
    fine = graded_eigenspaces(GradedMap.cut(mat, Grading(weights, labels), 0))
    coarse = graded_eigenspaces(GradedMap.cut(mat, Grading(weights), 0))
    assert list(fine) == list(coarse)
    for lam, cols in fine.items():
        assert cols.dense() == coarse[lam].dense()
        assert cols.source.weights.tolist() == coarse[lam].source.weights.tolist()
    assert_same_eigenspaces(fine, cell_eigenspaces(mat.a, p, Grading(weights)))


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
