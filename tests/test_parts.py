"""Parts: the connected components of a module's action support.

support_parts must find the finest partition that no matrix entry joins
across, by_parts must give the dense product, power and matrix-vector
results, and everything computed part by part on the whole truncated
symmetric algebra (validation, the Casimir, its eigenspaces and the
principal-block projector) must equal the dense computation.
"""

from operator import matmul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho.cohomology import PeriodicCohomology
from frobcoho.fpmatrix import FpMatrix, by_parts, graded_eigenspaces, graded_solve, support_parts
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
    """(p, matrices, vector, columns): square matrices that share random
    diagonal blocks, with the basis shuffled by a random permutation."""
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
    vec = rng.integers(-p, 2 * p, size=n)
    cols = rng.integers(0, p, size=(n, draw(st.integers(0, 3))))
    return p, mats, vec, cols


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
    p, mats, _, _ = case
    n = mats[0].rows
    parts = support_parts(n, mats)
    assert [part.tolist() for part in parts] == _reference_components(n, mats)
    label = np.empty(n, dtype=np.int64)
    for k, part in enumerate(parts):
        label[part] = k
    for m in mats:
        rows, cols = np.nonzero(m.a)
        assert np.array_equal(label[rows], label[cols])


@SETTINGS
@given(block_diagonal(), st.integers(0, 9))
def test_by_parts_equals_dense(case, power):
    p, mats, vec, cols = case
    a, b = mats[0], mats[-1]
    parts = support_parts(a.rows, mats)
    assert by_parts(parts, matmul, a, b) == a @ b
    assert by_parts(parts, lambda m, n: m @ n - n @ m, a, b) == a @ b - b @ a
    assert by_parts(parts, lambda m: m ** power, a) == a ** power
    assert np.array_equal(by_parts(parts, matmul, a, vec), a @ vec)
    moved = by_parts(parts, lambda m, c: (m @ FpMatrix(p, c)).a, a, cols)
    assert np.array_equal(moved, (a @ FpMatrix(p, cols)).a)


def _shuffled(M: WeightModule, seed: int) -> WeightModule:
    """M with its basis permuted, so that its parts interleave."""
    perm = np.random.default_rng(seed).permutation(M.dim)
    return WeightModule(M.algebra, [M.labels[i] for i in perm], [M.weights[i] for i in perm],
                        {x: FpMatrix(M.p, a.a[np.ix_(perm, perm)]) for x, a in M.actions.items()})


@pytest.mark.parametrize("p, shuffle", [(3, False), (5, False), (7, False), (5, True)])
def test_whole_algebra_by_parts_equals_dense(p, shuffle):
    M = TruncatedSymAlgebra(sl2(p)).module
    if shuffle:
        M = _shuffled(M, p)
    assert len(M.parts) == 3 * (p - 1) + 1
    e, h, f = M.action("e"), M.action("h"), M.action("f")
    c = casimir_operator(M)
    assert c == e @ f + f @ e + pow(2, p - 2, p) * (h @ h)
    blocks = casimir_blocks(M)
    dense = graded_eigenspaces(c, M.weights)
    assert list(blocks) == list(dense)
    for lam, (cols, weights) in dense.items():
        assert blocks[lam][1] == weights
        assert blocks[lam][0].a.dtype == cols.a.dtype
        assert blocks[lam][0].a.tobytes() == cols.a.tobytes()
    order = sorted(dense)
    basis = FpMatrix(p, np.concatenate([dense[lam][0].a for lam in order], axis=1))
    inv = graded_solve(basis, [w for lam in order for w in dense[lam][1]],
                       FpMatrix.identity(p, M.dim))
    n0 = dense[0][0].cols
    assert principal_block_projector(M) == FpMatrix(p, basis.a[:, :n0]) @ FpMatrix(p, inv.a[:n0])


# -- validation catches a corrupted entry inside one part -------------------------


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
    actions = dict(M.actions, f=f)
    parts = support_parts(M.dim, actions.values())
    assert len(parts) == len(M.parts) > 1
    assert all(np.array_equal(a, b) for a, b in zip(parts, M.parts))
    with pytest.raises(ValueError, match=r"bracket compatibility fails on \(e,f\)"):
        WeightModule(sl2(3), M.labels, M.weights, actions)


def test_validate_rejects_restricted_failure_inside_a_part():
    M, f = _corrupted_f()
    assert not (f ** 3).is_zero()
    actions = {"h": M.action("h"), "f": f}
    with pytest.raises(ValueError, match="restricted compatibility fails on f"):
        WeightModule(borel(3), M.labels, M.weights, actions)
    broken = WeightModule(borel(3), M.labels, M.weights, actions, validate=False)
    assert len(broken.parts) > 1
    with pytest.raises(ValueError, match="f-action is not p-nilpotent"):
        PeriodicCohomology(broken)
