"""Weight blocks and the Casimir's support components on whole modules.

support_parts must find the finest partition that no matrix entry joins
across, and everything computed on weight blocks or support components of
the whole truncated symmetric algebra (validation, the Casimir, its
eigenspaces and the principal-block projector) must equal the dense
computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho.cohomology import PeriodicCohomology
from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    generalized_eigenspace,
    graded_solve,
    support_parts,
)
from frobcoho.lie import borel, casimir_operator, sl2
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    casimir_blocks,
    principal_block_projector,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def block_diagonal(draw):
    """(p, matrices): square matrices that share random diagonal blocks,
    with the basis shuffled by a random permutation."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = sum(sizes)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        a = np.zeros((n, n), dtype=np.int64)
        start = 0
        for s in sizes:
            block = rng.integers(0, p, size=(s, s)) * (rng.random((s, s)) < density)
            a[start:start + s, start:start + s] = block
            start += s
        mats.append(FpMatrix(p, a[np.ix_(perm, perm)]))
    return p, mats


def _reference_components(n, mats):
    """Connected components of the joint support by a plain graph search."""
    neighbours = {i: set() for i in range(n)}
    for m in mats:
        for i, j in zip(*np.nonzero(m.a)):
            neighbours[int(i)].add(int(j))
            neighbours[int(j)].add(int(i))
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, todo = set(), [start]
        while todo:
            i = todo.pop()
            if i not in comp:
                comp.add(i)
                todo.extend(neighbours[i] - comp)
        seen |= comp
        comps.append(sorted(comp))
    return comps


@SETTINGS
@given(block_diagonal())
def test_support_parts_is_the_finest_invariant_partition(case):
    _, mats = case
    n = mats[0].rows
    joint = FpMatrix(2, sum(m.a != 0 for m in mats) != 0)  # one weight: one block
    parts = support_parts(GradedMap.cut(joint, Grading([0] * n), 0))
    assert [part.tolist() for part in parts] == _reference_components(n, mats)
    label = np.empty(n, dtype=np.int64)
    for k, part in enumerate(parts):
        label[part] = k
    for m in mats:
        rows, cols = np.nonzero(m.a)
        assert np.array_equal(label[rows], label[cols])


def _per_weight_eigenspaces(c: FpMatrix, weights):
    """The reference for casimir_blocks: generalized_eigenspace on each whole
    weight block, by increasing weight, embedded in the whole space."""
    w, found = np.array(weights), {}
    for weight in sorted(set(weights)):
        idx = np.flatnonzero(w == weight)
        for lam in range(c.p):
            kb = generalized_eigenspace(FpMatrix(c.p, c.a[np.ix_(idx, idx)]), lam)
            vecs = np.zeros((w.size, kb.cols), dtype=np.int64)
            vecs[idx] = kb.a
            cols, ws = found.setdefault(lam, ([], []))
            cols.append(vecs)
            ws += [weight] * kb.cols
    return {lam: (FpMatrix(c.p, np.concatenate(cols, axis=1)), ws)
            for lam, (cols, ws) in sorted(found.items()) if ws}


def _shuffled(M: WeightModule, seed: int) -> WeightModule:
    """M with its basis permuted, so that its weights and graded pieces
    interleave."""
    perm = np.random.default_rng(seed).permutation(M.dim)
    return WeightModule(M.algebra, [M.labels[i] for i in perm], [M.weights[i] for i in perm],
                        {x: FpMatrix(M.p, M.action(x).a[np.ix_(perm, perm)])
                         for x in M.algebra.generators})


@pytest.mark.parametrize("p, shuffle", [(3, False), (5, False), (7, False), (5, True)])
def test_whole_algebra_by_parts_equals_dense(p, shuffle):
    M = TruncatedSymAlgebra(sl2(p)).module
    if shuffle:
        M = _shuffled(M, p)
    e, h, f = M.action("e"), M.action("h"), M.action("f")
    dense_c = e @ f + f @ e + pow(2, p - 2, p) * (h @ h)
    c = casimir_operator(M)
    assert c.dense() == dense_c
    parts = support_parts(c)
    assert all(len(set(M.grading.weights[idx].tolist())) == 1 for idx in parts)
    assert sorted(np.concatenate(parts).tolist()) == list(range(M.dim))
    blocks = casimir_blocks(M)
    dense = _per_weight_eigenspaces(dense_c, M.weights)
    assert list(blocks) == list(dense)
    for lam, (cols, weights) in dense.items():
        assert blocks[lam].source.weights.tolist() == weights
        assert blocks[lam].dense().a.dtype == cols.a.dtype
        assert blocks[lam].dense().a.tobytes() == cols.a.tobytes()
    order = sorted(dense)
    basis = FpMatrix(p, np.concatenate([dense[lam][0].a for lam in order], axis=1))
    col_weights = Grading([w for lam in order for w in dense[lam][1]])
    columns = GradedMap.cut(basis, M.grading, 0, col_weights)
    inv = FpMatrix(p, graded_solve(columns, FpMatrix.identity(p, M.dim).a))
    n0 = dense[0][0].cols
    proj = principal_block_projector(M)
    assert proj.dense() == FpMatrix(p, basis.a[:, :n0]) @ FpMatrix(p, inv.a[:n0])
    # a second route with no eigenspace and no solve: on a generalized
    # eigenspace of c at lam != 0, c^((p-1) p^j) = (lam^(p^j) + n^(p^j))^(p-1)
    # = 1 once p^j >= dim M kills the nilpotent part n; at lam = 0 it is 0
    j = 0
    while p ** j < M.dim:
        j += 1
    assert proj.dense() == FpMatrix.identity(p, M.dim) - dense_c ** ((p - 1) * p ** j)


# -- validation catches a corrupted entry inside one weight block -------------------------


def _corrupted_f():
    """The whole algebra at p = 3 and its f-action with the entry from h^2
    to h*f (weight 0 to -2, inside the degree-2 piece) moved from 1 to 2."""
    alg = TruncatedSymAlgebra(sl2(3))
    M = alg.module
    i, j = M.labels.index("h*f"), M.labels.index("h^2")
    assert M.weights[i] == M.weights[j] - 2 and alg.degrees[i] == alg.degrees[j] == 2
    f = M.action("f").a.copy()
    f[i, j] = (f[i, j] + 1) % 3
    return M, FpMatrix(3, f)


def test_validate_rejects_bracket_failure_inside_a_part():
    M, f = _corrupted_f()
    actions = {"e": M.action("e"), "h": M.action("h"), "f": f}
    assert not (GradedMap.cut(f, M.grading, -2) - M.maps["f"]).is_zero()  # inside one weight block
    with pytest.raises(ValueError, match=r"bracket compatibility fails on \(e,f\)"):
        WeightModule(sl2(3), M.labels, M.weights, actions)


def test_validate_rejects_restricted_failure_inside_a_part():
    M, f = _corrupted_f()
    assert not (f ** 3).is_zero()
    actions = {"h": M.action("h"), "f": f}
    with pytest.raises(ValueError, match="restricted compatibility fails on f"):
        WeightModule(borel(3), M.labels, M.weights, actions)
    broken = WeightModule(borel(3), M.labels, M.weights, actions, validate=False)
    with pytest.raises(ValueError, match="f-action is not p-nilpotent"):
        PeriodicCohomology(broken)
