"""Weight blocks and the Casimir's eigenspaces on whole modules.

The engine finds the Casimir's eigenspaces and principal-block projector
from its Frobenius power.  The route it took before is the oracle
(tests/oracles.py): every eigenspace and the projector found on the
connected components of the map's own support (support_parts), which
must be the finest partition that no matrix entry joins across.  Both
routes, and the dense generalized_eigenspace route on each whole cell
(cell_eigenspaces), must agree byte for byte on the whole truncated
symmetric algebra (also with a shuffled basis), its pieces and symmetric
powers whose cells are wider than p.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho import wmodules
from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    frobenius_power,
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
    casimir_nullities,
    principal_block_projector,
    simple_module,
    sym_power,
    truncated_sym,
)
from oracles import (
    assert_same_eigenspaces,
    cell_eigenspaces,
    component_eigenspaces,
    component_projector,
    reference_components,
    same_map,
    support_parts,
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


@SETTINGS
@given(block_diagonal())
def test_support_parts_is_the_finest_invariant_partition(case):
    _, mats = case
    n = mats[0].rows
    joint = FpMatrix(2, sum(m.a != 0 for m in mats) != 0)  # one weight: one block
    parts = support_parts(GradedMap.cut(joint, Grading([0] * n), 0))
    assert [part.tolist() for part in parts] == reference_components(n, [m.a for m in mats])
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
    assert all(same_map(got[lam], want[lam]) for lam in want)
    try:
        proj = component_projector(graded)
    except ValueError:
        with pytest.raises(ValueError, match="does not split"):
            graded_projector(graded)
    else:
        assert same_map(graded_projector(graded), proj)


def _shuffled(M: WeightModule, seed: int, by_degree: bool) -> WeightModule:
    """M with its basis permuted so that its weights interleave: graded by
    weight only, so that its graded pieces interleave too, or by weight and
    degree with the basis still listed degree by degree."""
    g, perm = M.grading, np.random.default_rng(seed).permutation(M.dim)
    if by_degree:
        perm = perm[np.argsort(g.degrees[perm], kind="stable")]
    where = np.argsort(perm)
    grading = Grading(g.weights[perm], g.degrees[perm] if by_degree else None)
    actions = {}
    for x, m in M.maps.items():
        rows, cols, vals = m.entries()
        actions[x] = GradedMap.scatter(M.p, grading, m.shift, where[rows], where[cols], vals)
    return WeightModule(M.algebra, [M.labels[i] for i in perm], grading, actions)


def _casimir_values(p: int) -> list[int]:
    """The Casimir's eigenvalues m(m+2)/2 on the simple modules L(m)."""
    return sorted({m * (m + 2) * pow(2, p - 2, p) % p for m in range(p)})


def _check_casimir_routes(M: WeightModule):
    """casimir_blocks, block_projection_principal and principal_block_projector
    against the per-component oracle and the dense per-cell route; returns
    the dense route's eigenspaces."""
    c = casimir_operator(M)
    blocks, oracle = casimir_blocks(M), component_eigenspaces(c)
    assert list(blocks) == list(oracle)
    assert all(same_map(blocks[lam], oracle[lam]) for lam in oracle)
    dense = cell_eigenspaces(c.dense().a, M.p, M.grading, _casimir_values(M.p))
    assert_same_eigenspaces(blocks, dense)
    assert sum(len(weights) for _, weights in dense.values()) == M.dim  # no other eigenvalue
    M0 = block_projection_principal(M)
    if 0 in oracle:
        want = M.submodule(oracle[0], prefix="blk")
        assert (M0.labels, M0.weights) == (want.labels, want.weights)
        assert all(same_map(M0.maps[x], want.maps[x]) for x in M.algebra.generators)
    else:
        assert M0.dim == 0
    proj = principal_block_projector(M)
    assert same_map(proj, component_projector(c))
    # the projector fixes the dense route's 0-eigenspace and kills the others,
    # which together span the space
    for lam, (cols, _) in dense.items():
        col_cells = Grading.of_keys(M.grading.keys[(cols != 0).argmax(axis=0)])
        columns = GradedMap.cut(FpMatrix(M.p, cols), M.grading, 0, col_cells)
        image = (proj @ columns).dense().a
        assert np.array_equal(image, cols if lam == 0 else np.zeros_like(cols)), lam
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
    dense_c = FpMatrix(p, (e @ f).a + (f @ e).a + pow(2, p - 2, p) * (h @ h).a)
    assert casimir_operator(M).dense() == dense_c
    order = sorted(dense)
    basis = FpMatrix(p, np.concatenate([dense[lam][0] for lam in order], axis=1))
    # each column lies in one cell of M.grading: read it at the first nonzero row
    col_cells = Grading.of_keys(M.grading.keys[(basis.a != 0).argmax(axis=0)])
    columns = GradedMap.cut(basis, M.grading, 0, col_cells)
    one = np.eye(M.dim, dtype=np.int64)
    inv = FpMatrix(p, graded_solve(columns, one))
    n0 = dense[0][0].shape[1]
    proj = principal_block_projector(M)
    assert proj.dense() == FpMatrix(p, basis.a[:, :n0]) @ FpMatrix(p, inv.a[:n0])
    # a second route with no eigenspace and no solve: on a generalized
    # eigenspace of c at lam != 0, c^((p-1) p^j) = (lam^(p^j) + n^(p^j))^(p-1)
    # = 1 once p^j >= dim M kills the nilpotent part n; at lam = 0 it is 0
    j = 0
    while p ** j < M.dim:
        j += 1
    assert proj.dense() == FpMatrix(p, one - (dense_c ** ((p - 1) * p ** j)).a)


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


NULLITY_CASES = {
    **{f"sl2-{p}": (lambda p=p: TruncatedSymAlgebra(sl2(p)).module) for p in (3, 5, 7, 11, 13)},
    # graded by weight alone, with three Casimir classes
    "L(3)xL(12)-7": lambda: simple_module(3, 7).tensor(simple_module(12, 7)),
}


@pytest.mark.parametrize("name", NULLITY_CASES)
def test_casimir_nullities_count_the_blocks_columns(name):
    # per Casimir value the nullity of S - lam on each cell is the number of
    # columns casimir_blocks finds there, and it finds no other eigenvalue
    M = NULLITY_CASES[name]()
    g, values = M.grading, _casimir_values(M.p)
    blocks = casimir_blocks(M)
    assert set(blocks) <= set(values)
    cells = list(zip(g.cell_weights.tolist(), g.cell_degrees.tolist()))
    want = []
    for lam in values:
        cols = blocks[lam].source if lam in blocks else Grading([])
        per_cell = Counter(zip(cols.weights.tolist(), cols.degrees.tolist()))
        want.append([per_cell[cell] for cell in cells])
    assert casimir_nullities(frobenius_power(casimir_operator(M))).tolist() == want


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
    assert (f ** 3).a.any()
    actions = {"h": M.action("h"), "f": f}
    with pytest.raises(ValueError, match="restricted compatibility fails on f"):
        WeightModule(borel(3), M.labels, M.weights, actions)
