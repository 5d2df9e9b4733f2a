"""Cell stacks in the narrowest integer dtype that holds p(p-1).

Over F_p a GradedMap keeps its blocks in int8 for p <= 11, int16 for
13 <= p <= 181 and int32 above, up to p = 46337.  The primes drawn here
span those steps.  Every sum, scalar multiple, difference, product,
power, reduction and solve must agree with the same computation on the
dense int64 arrays (reductions and solves by tests/oracles.py), and
every array that leaves fpmatrix must be int64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho import PeriodicCohomology, TruncatedSymAlgebra, casimir_operator, sl2
from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    cell_nullities,
    graded_image,
    graded_kernel,
    graded_solve,
)
from oracles import kernel, rank, solve

SETTINGS = settings(max_examples=40, deadline=None)
DTYPES = {3: np.int8, 11: np.int8, 13: np.int16, 181: np.int16, 191: np.int32}
SHIFTS = st.sampled_from((-2, 0, 2))


def _dense_map(rng, p, weights, shift):
    """A dense map sending weight w to w + shift, its allowed entries drawn
    half at p - 1 and half uniformly, so sums and products reach the top."""
    w = np.array(weights, dtype=np.int64)
    allowed = w[:, None] == w[None, :] + shift
    vals = np.where(rng.random(allowed.shape) < 0.5, p - 1, rng.integers(0, p, allowed.shape))
    return FpMatrix(p, np.where(allowed & (rng.random(allowed.shape) < 0.8), vals, 0))


@st.composite
def maps_on_one_grading(draw):
    """(p, weights, [(dense map, shift)] * 3): two maps of one shift and one
    of another, on one random grading."""
    p = draw(st.sampled_from(sorted(DTYPES)))
    weights = draw(st.lists(st.sampled_from((-4, -2, 0, 2, 4)), min_size=1, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sa, sb = draw(SHIFTS), draw(SHIFTS)
    return p, weights, [(_dense_map(rng, p, weights, s), s) for s in (sa, sa, sb)]


def _cut(p, weights, maps):
    grading = Grading(weights)
    return [GradedMap.cut(m, grading, s) for m, s in maps]


@SETTINGS
@given(maps_on_one_grading(), st.integers(1, 6), st.integers(-1000, 1000))
def test_narrow_stack_arithmetic_matches_dense(case, power, scalar):
    p, weights, maps = case
    (a, _), (a2, _), (b, _) = maps
    ga, ga2, gb = _cut(p, weights, maps)
    for got, want in ((ga, a), (ga + ga2, FpMatrix(p, a.a + a2.a)),
                      (ga - ga2, FpMatrix(p, a.a - a2.a)), (scalar * ga, FpMatrix(p, scalar * a.a)),
                      (ga @ gb, a @ b), (gb @ ga, b @ a), (gb ** power, b ** power)):
        assert got.stack.dtype == DTYPES[p]
        assert got.dense() == want
    vec = np.arange(len(weights)) * (p - 1)
    assert np.array_equal(ga @ vec, a @ vec) and (ga @ vec).dtype == np.int64


@SETTINGS
@given(st.sampled_from(sorted(DTYPES)), st.integers(0, 2 ** 32 - 1))
def test_scatter_sums_repeated_positions_past_the_narrow_range(p, seed):
    """Repeated positions are summed before the reduction: one position gets
    three copies of the narrow dtype's maximum, so its sum overflows that
    dtype, and the rest get large values of either sign."""
    rng = np.random.default_rng(seed)
    weights = [0, 2, 0, 2, 2, 0]
    grading, w = Grading(weights), np.array(weights)
    r, c = np.nonzero(w[:, None] == w[None, :])  # the weight-preserving positions
    pick = rng.integers(0, r.size, size=60)
    top = int(np.iinfo(DTYPES[p]).max)
    rows, cols = np.concatenate([[r[0]] * 3, r[pick]]), np.concatenate([[c[0]] * 3, c[pick]])
    vals = np.concatenate([[top] * 3, rng.integers(-2 ** 40, 2 ** 40, size=pick.size)])
    want = np.zeros((w.size, w.size), dtype=object)  # exact sums, in Python integers
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        want[i, j] += v
    got = GradedMap.scatter(p, grading, 0, rows, cols, vals)
    assert got.stack.dtype == DTYPES[p]
    assert got.dense() == FpMatrix(p, (want % p).astype(np.int64))


@SETTINGS
@given(maps_on_one_grading(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_narrow_stack_reductions_match_dense(case, seed, consistent):
    p, weights, maps = case
    (a, _), _, (b, _) = maps
    ga, _, gb = _cut(p, weights, maps)
    grading = ga.grading
    # the joint kernel: the same columns as the dense kernel of the stacked maps
    joint = graded_kernel(ga, gb)
    stacked = np.concatenate([a.a, b.a])
    assert joint.stack.dtype == DTYPES[p]
    assert sorted(map(tuple, joint.dense().a.T.tolist())) == sorted(
        map(tuple, kernel(stacked, p).T.tolist()))
    # per cell nullities against the dense rank of the cell's columns
    want = [int(np.sum(at)) - rank(stacked[:, at], p)
            for at in (grading.weights == cw for cw in grading.cell_weights)]
    assert cell_nullities([ga, gb]).tolist() == want
    # solving a x = rhs, consistent or not, as the dense solve does
    rng = np.random.default_rng(seed)
    rhs = a @ rng.integers(0, p, size=len(weights)) if consistent else rng.integers(0, p, len(weights))
    try:
        dense = solve(a.a, rhs[:, None], p)[:, 0]
    except ValueError:
        with pytest.raises(ValueError):
            graded_solve(ga, rhs)
    else:
        got = graded_solve(ga, rhs)
        assert got.dtype == np.int64 and np.array_equal(got, dense)
    # solving a column set against itself gives the identity
    image = graded_image(ga)
    assert image.stack.dtype == DTYPES[p]
    assert graded_solve(image, image).dense() == FpMatrix(p, np.eye(image.shape[1]))


@pytest.mark.parametrize("p", [11, 13])
def test_whole_algebra_stacks_take_two_bytes_and_leave_as_int64(p):
    """The whole algebra's actions, its Casimir, the differentials and the
    cocycle and coboundary column sets are stored in at most two bytes per
    entry; what they give back is int64."""
    M = TruncatedSymAlgebra(sl2(p)).module
    engine = PeriodicCohomology(M)
    maps = [*M.maps.values(), casimir_operator(M), engine.F, engine.Fq,
            graded_kernel(engine.F), graded_image(engine.Fq), graded_solve(M.maps["h"], M.maps["h"])]
    vec = np.arange(M.dim)
    for m in maps:
        assert m.stack.dtype.itemsize <= 2, m.stack.dtype
        assert all(part.dtype == np.int64 for part in m.entries())
        assert m.column(m.shape[1] - 1).dtype == np.int64
    assert (M.maps["f"] @ vec).dtype == np.int64
    assert all(rep.dtype == np.int64 for rep, _ in engine.representatives(1))
