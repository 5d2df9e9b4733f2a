"""Weight blocks and the Casimir's eigenspaces on whole modules.

The engine finds the Casimir's eigenspaces and principal-block projector
from its Frobenius power.  The route it took before is kept here as the
oracle: every eigenspace and the projector found on the connected
components of the map's own support (support_parts), which must be the
finest partition that no matrix entry joins across.  Both routes, and the
dense generalized_eigenspace route on each whole cell, must agree byte for
byte on the whole truncated symmetric algebra (also with a shuffled
basis), its pieces and symmetric powers whose cells are wider than p.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho import wmodules
from frobcoho.fpmatrix import (
    _CELL,
    FpMatrix,
    GradedMap,
    Grading,
    _kernels,
    _matmul,
    _power,
    _rref_stack,
    _solve_stack,
    generalized_eigenspace,
    graded_eigenspaces,
    graded_projector,
    graded_solve,
)
from frobcoho.lie import borel, casimir_operator, sl2
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    block_projection_principal,
    casimir_blocks,
    principal_block_projector,
    sym_power,
    truncated_sym,
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


# -- the oracle: eigenspaces and projector per support component ----------------


def support_parts(mat: GradedMap) -> list[np.ndarray]:
    """The connected components of the support of a weight-preserving map,
    each inside one weight: the finest partition of the basis that no entry
    joins across, each part increasing, ordered by first index."""
    if mat.shift:
        raise ValueError("needs a weight-preserving map")
    rows, cols, _ = mat.entries()
    label = np.arange(mat.shape[0])
    while True:  # every index takes the least label it reaches
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if order.size else []


def _component_eigenvectors(mat: GradedMap):
    """The generalized eigenvectors of a weight-preserving map, found on the
    components of its support (support_parts), each inside one cell.

    Per component size k, yields the components as a (count, k) index
    array and, per eigenvector, its component, eigenvalue, free slot (where
    it has its 1) and k entries.  One stacked reduction ranks every shift
    block - lam I, and one more reads the kernels of the k-th powers of the
    singular ones (k is at least the index).
    """
    p, g, parts = mat.p, mat.grading, support_parts(mat)
    for k in sorted({idx.size for idx in parts}):
        idx = np.array([x for x in parts if x.size == k])
        slot = g.slot[idx]
        blocks = mat.stack[g.pos[idx[:, :1, None]], slot[:, :, None], slot[:, None, :]]
        shifted = (blocks[:, None] - np.arange(p)[:, None, None] * np.eye(k, dtype=np.int64)) % p
        shifted = shifted.reshape(-1, k, k)  # block j, lam at slice j * p + lam
        singular = np.flatnonzero(_rref_stack(shifted, p)[1].sum(axis=1) < k)
        red, piv = _rref_stack(_power(shifted[singular], k, lambda x, y: _matmul(x, y, p)), p)
        s, f = np.nonzero(~piv)
        yield idx, singular[s] // p, singular[s] % p, f, _kernels(red, piv, p)[s, :, f]


def component_eigenspaces(mat: GradedMap) -> dict[int, GradedMap]:
    """Generalized eigenspaces of a weight-preserving GradedMap, per
    eigenvalue a column set, its columns ordered by weight and then by the
    index of the free slot that carries their 1."""
    g, vecs = mat.grading, []
    for idx, block, lam, f, entries in _component_eigenvectors(mat):
        free = idx[block, f]
        vecs += zip(lam.tolist(), g.weights[free].tolist(), free.tolist(), idx[block], entries)
    spaces = {}
    for lam, _, free, rows, vals in sorted(vecs, key=lambda v: v[:3]):
        spaces.setdefault(lam, []).append((free, rows, vals))
    return {lam: GradedMap.scatter(
        mat.p, g, 0, np.concatenate([r for _, r, _ in vs]),
        np.repeat(np.arange(len(vs)), [r.size for _, r, _ in vs]),
        np.concatenate([v for *_, v in vs]), Grading.of_keys(g.keys[[f for f, *_ in vs]]))
        for lam, vs in spaces.items()}


def component_projector(mat: GradedMap) -> GradedMap:
    """Projection onto the generalized 0-eigenspace along the others: on
    each component of the map's support B0 B^-1, for an eigenbasis B of the
    component and B0 its eigenvalue-0 columns with the rest zeroed."""
    p, g = mat.p, mat.grading
    stack = np.zeros_like(mat.stack)
    for idx, block, lam, _, entries in _component_eigenvectors(mat):
        if lam.size != idx.size:  # a component has no eigenbasis
            raise ValueError("characteristic polynomial does not split")
        k, order = idx.shape[1], np.lexsort((lam, block))
        b = entries[order].reshape(-1, k, k).transpose(0, 2, 1)
        inv = _solve_stack(b, np.broadcast_to(np.eye(k, dtype=np.int64), b.shape), p)
        zero = (lam[order] == 0).reshape(-1, 1, k)
        slot = g.slot[idx]
        stack[g.pos[idx[:, :1, None]], slot[:, :, None], slot[:, None, :]] = _matmul(
            b * zero, inv, p)
    return GradedMap(p, g, 0, stack)


def _same_map(a: GradedMap, b: GradedMap) -> bool:
    """Equal GradedMaps: the same shift, column cells and stack, byte for byte."""
    return (a.shift == b.shift and np.array_equal(a.source.keys, b.source.keys)
            and a.stack.dtype == b.stack.dtype and a.stack.shape == b.stack.shape
            and a.stack.tobytes() == b.stack.tobytes())


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


@SETTINGS
@given(block_diagonal())
def test_frobenius_power_route_matches_the_oracle(case):
    # one weight: the cell is the whole space, up to 20 wide, so q = p^m
    # with m up to 5 (p = 2), and most random blocks do not split
    _, mats = case
    graded = GradedMap.cut(mats[0], Grading([0] * mats[0].rows), 0)
    got, want = graded_eigenspaces(graded), component_eigenspaces(graded)
    assert list(got) == list(want)
    assert all(_same_map(got[lam], want[lam]) for lam in want)
    try:
        proj = component_projector(graded)
    except ValueError:
        with pytest.raises(ValueError, match="does not split"):
            graded_projector(graded)
    else:
        assert _same_map(graded_projector(graded), proj)


def _per_cell_eigenspaces(c: FpMatrix, grading: Grading):
    """The dense reference for casimir_blocks: generalized_eigenspace on each
    whole cell's block at each Casimir value m(m+2)/2, cell by cell, embedded
    in the whole space."""
    p, found = c.p, {}
    values = sorted({m * (m + 2) * pow(2, p - 2, p) % p for m in range(p)})
    for idx, size, weight in zip(grading.index, grading.sizes, grading.values // _CELL):
        idx = idx[:size]
        for lam in values:
            kb = generalized_eigenspace(FpMatrix(c.p, c.a[np.ix_(idx, idx)]), lam)
            vecs = np.zeros((c.rows, kb.cols), dtype=np.int64)
            vecs[idx] = kb.a
            cols, ws = found.setdefault(lam, ([], []))
            cols.append(vecs)
            ws += [int(weight)] * kb.cols
    return {lam: (FpMatrix(c.p, np.concatenate(cols, axis=1)), ws)
            for lam, (cols, ws) in sorted(found.items()) if ws}


def _shuffled(M: WeightModule, seed: int, by_degree: bool) -> WeightModule:
    """M with its basis permuted so that its weights interleave: graded by
    weight only, so that its graded pieces interleave too, or by weight and
    degree with the basis still listed degree by degree."""
    g, perm = M.grading, np.random.default_rng(seed).permutation(M.dim)
    degrees = g.keys % _CELL
    if by_degree:
        perm = perm[np.argsort(degrees[perm], kind="stable")]
    where = np.argsort(perm)
    grading = Grading(g.weights[perm], degrees[perm] if by_degree else None)
    actions = {}
    for x, m in M.maps.items():
        rows, cols, vals = m.entries()
        actions[x] = GradedMap.scatter(M.p, grading, m.shift, where[rows], where[cols], vals)
    return WeightModule(M.algebra, [M.labels[i] for i in perm], grading, actions)


def _check_casimir_routes(M: WeightModule):
    """casimir_blocks, block_projection_principal and principal_block_projector
    against the per-component oracle and the dense per-cell route; returns
    the dense route's eigenspaces."""
    c = casimir_operator(M)
    blocks, oracle = casimir_blocks(M), component_eigenspaces(c)
    assert list(blocks) == list(oracle)
    assert all(_same_map(blocks[lam], oracle[lam]) for lam in oracle)
    dense = _per_cell_eigenspaces(c.dense(), M.grading)
    assert list(blocks) == list(dense)
    assert sum(len(weights) for _, weights in dense.values()) == M.dim  # no other eigenvalue
    for lam, (cols, weights) in dense.items():
        assert blocks[lam].source.weights.tolist() == weights
        assert blocks[lam].dense().a.dtype == cols.a.dtype
        assert blocks[lam].dense().a.tobytes() == cols.a.tobytes()
    M0 = block_projection_principal(M)
    if 0 in oracle:
        want = M.submodule(oracle[0], prefix="blk")
        assert (M0.labels, M0.weights) == (want.labels, want.weights)
        assert all(_same_map(M0.maps[x], want.maps[x]) for x in M.algebra.generators)
    else:
        assert M0.dim == 0
    proj = principal_block_projector(M)
    assert _same_map(proj, component_projector(c))
    # the projector fixes the dense route's 0-eigenspace and kills the others,
    # which together span the space
    for lam, (cols, _) in dense.items():
        col_cells = Grading.of_keys(M.grading.keys[(cols.a != 0).argmax(axis=0)])
        columns = GradedMap.cut(cols, M.grading, 0, col_cells)
        image = (proj @ columns).dense()
        assert image == (cols if lam == 0 else FpMatrix.zeros(M.p, *cols.shape)), lam
    return dense


@pytest.mark.parametrize("p, shuffle", [(3, False), (5, False), (7, False), (5, True),
                                        (11, False), (13, False), (3, True), (7, True),
                                        (11, True), (13, True)])
def test_whole_algebra_by_parts_equals_dense(p, shuffle):
    M = TruncatedSymAlgebra(sl2(p)).module
    if shuffle:  # weight cells up to p^2 wide for p <= 7: the Frobenius power is C^(p^2)
        M = _shuffled(M, p, by_degree=p > 7)
    parts = support_parts(casimir_operator(M))
    assert all(len(set(M.grading.weights[idx].tolist())) == 1 for idx in parts)
    assert sorted(np.concatenate(parts).tolist()) == list(range(M.dim))
    dense = _check_casimir_routes(M)
    if p > 7:  # the dense products below are cubic in dim M = p^3
        return
    e, h, f = M.action("e"), M.action("h"), M.action("f")
    dense_c = e @ f + f @ e + pow(2, p - 2, p) * (h @ h)
    assert casimir_operator(M).dense() == dense_c
    order = sorted(dense)
    basis = FpMatrix(p, np.concatenate([dense[lam][0].a for lam in order], axis=1))
    # each column lies in one cell of M.grading: read it at the first nonzero row
    col_cells = Grading.of_keys(M.grading.keys[(basis.a != 0).argmax(axis=0)])
    columns = GradedMap.cut(basis, M.grading, 0, col_cells)
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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_casimir_routes_on_truncated_sym_pieces(p):
    for n in range(3 * (p - 1) + 1):
        _check_casimir_routes(truncated_sym(sl2(p), n))


@pytest.mark.parametrize("p, n, width", [(3, 16, 9), (5, 30, 16)])
def test_casimir_routes_on_cells_wider_than_p(p, n, width):
    # the Frobenius power is C^(p^2): C^p leaves a nilpotent part on cells
    # wider than p
    M = sym_power(sl2(p), n)
    assert M.grading.index.shape[1] == width
    _check_casimir_routes(M)


def test_principal_block_is_one_kernel(monkeypatch):
    # the principal block is the kernel of the Casimir's Frobenius power:
    # no other eigenspace is computed
    counts = {}
    for name in ("casimir_blocks", "graded_kernel"):
        real = getattr(wmodules, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(wmodules, name, counted)
    M0 = block_projection_principal(TruncatedSymAlgebra(sl2(11)).module)
    assert counts == {"graded_kernel": 1}
    assert M0.dim == component_eigenspaces(casimir_operator(M0))[0].shape[1]


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
