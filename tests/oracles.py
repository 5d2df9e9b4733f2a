"""The tests' references: dense or alternative routes to what the graded
primitives of frobcoho compute, kept in one place.

* sympy_matrix and sympy_ints: sympy's DomainMatrix over GF(p), code
  separate from frobcoho's row reduction.  The reference for _rref_stack,
  _kernels, _solve_stack and the FpMatrix reductions (test_fp_oracle.py).
* rank, pivots, kernel, column_space, solve and eigenspace: the dense
  FpMatrix reductions and generalized_eigenspace on a whole int64 array,
  one cell of all its rows and columns.  The reference for graded_kernel,
  graded_image, graded_complement, graded_solve, cell_nullities and
  graded_eigenspaces, which reduce cell by cell.
* cell_eigenspaces: generalized_eigenspace on the dense block of each
  cell, at each eigenvalue.  The reference for graded_eigenspaces and
  wmodules.casimir_blocks, which take kernels of a Frobenius power.
* support_parts, component_eigenspaces and component_projector: the
  eigenspaces and the 0-eigenspace projector found on the connected
  components of a map's support, by powers of each component's block.
  The reference for graded_eigenspaces, graded_projector, casimir_blocks,
  block_projection_principal and principal_block_projector.
  reference_components finds the components by a plain graph search, the
  reference for support_parts.
* all_block_principal_parts: the principal parts of vectors as their
  coordinates in the eigenvalue-0 block, from one solve against the
  columns of every block casimir_blocks gives.  The reference for the
  projector route of verify's cup checks, 1 - S^(p-1) and one solve in
  ker S.
* dense_simple_model, dense_weight_line, dense_tensor, dense_dual and
  dense_twist: modules built from dense actions, with np.kron and
  transposes, and cut by WeightModule.  The reference for simple_model,
  weight_line, WeightModule.tensor, dual and frobenius_twist, which
  scatter entries into blocks.
* kronecker_hom_dim: dim Hom(M, N) as the nullity of the dense Kronecker
  system.  The reference for module_hom_dim, which reads the weight-0
  cell of N (x) M^*.
* reference_mult: the product of TruncatedSymAlgebra by adding exponent
  tuples.  The reference for TruncatedSymAlgebra.mult, which adds codes.
* reference_monomials: the monomial basis of the truncated symmetric
  algebra built eagerly in plain Python, from every exponent tuple.  The
  reference for the labels, weights, exponents, degrees, index and
  unit_index that TruncatedSymAlgebra and its module build on first read
  from their arrays.
* module_degree_characters: the characters of a module's degree pieces,
  read off its Grading.  The whole-module side of the per-piece routes of
  test_sl2_pieces.py.
* same_map, assert_same_module and assert_same_eigenspaces: byte-for-byte
  comparisons of GradedMap stacks, modules and eigenspaces.
"""

from itertools import product

import numpy as np
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from frobcoho.cohomology import degree_characters
from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    _kernels,
    _matmul,
    _power,
    _rref_stack,
    _solve_stack,
    generalized_eigenspace,
    graded_columns,
    graded_solve,
)
from frobcoho.lie import sl2
from frobcoho.wmodules import WeightModule, casimir_blocks

# -- sympy over GF(p) ------------------------------------------------------------


def sympy_matrix(a: np.ndarray, p: int) -> DomainMatrix:
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()], a.shape, field)


def sympy_ints(dm: DomainMatrix, p: int) -> list[list[int]]:
    return [[int(x) % p for x in row] for row in dm.to_list()]


# -- dense reductions of a whole array ------------------------------------------


def rank(a, p: int) -> int:
    return FpMatrix(p, a).rank()


def pivots(a, p: int) -> tuple[int, ...]:
    """The greedy pivot columns of a."""
    return FpMatrix(p, a).rref()[1]


def kernel(a, p: int) -> np.ndarray:
    """A basis of the right kernel, as columns."""
    return FpMatrix(p, a).kernel_basis().a


def column_space(a, p: int) -> np.ndarray:
    """The greedy pivot columns of a, as a basis of its column space."""
    return FpMatrix(p, a).column_space_basis().a


def solve(a, b, p: int) -> np.ndarray:
    """The solution x of a x = b (columns) with its free variables 0;
    raises ValueError when there is none."""
    return FpMatrix(p, a).solve(FpMatrix(p, b)).a


def eigenspace(a, lam: int, p: int) -> np.ndarray:
    """A basis of the generalized lam-eigenspace of a square a, as columns."""
    return generalized_eigenspace(FpMatrix(p, a), lam).a


def cell_eigenspaces(a: np.ndarray, p: int, grading: Grading, values=None) -> dict:
    """eigenspace on the block of a at each cell of grading, in cell order,
    at each of values (all of F_p by default), embedded in the whole space:
    per eigenvalue with a nonzero space, by increasing eigenvalue, its
    columns and the weight of each."""
    found = {}
    for weight, degree in zip(grading.cell_weights.tolist(), grading.cell_degrees.tolist()):
        idx = np.flatnonzero((grading.weights == weight) & (grading.degrees == degree))
        for lam in range(p) if values is None else values:
            kb = eigenspace(a[np.ix_(idx, idx)], lam, p)
            vecs = np.zeros((a.shape[0], kb.shape[1]), dtype=np.int64)
            vecs[idx] = kb
            cols, ws = found.setdefault(lam, ([], []))
            cols.append(vecs)
            ws += [weight] * kb.shape[1]
    return {lam: (np.concatenate(cols, axis=1), ws)
            for lam, (cols, ws) in sorted(found.items()) if ws}


# -- eigenspaces and projector per support component ------------------------------


def reference_components(n: int, arrays) -> list[list[int]]:
    """Connected components of the joint support of n x n arrays by a plain
    graph search."""
    neighbours = {i: set() for i in range(n)}
    for a in arrays:
        for i, j in zip(*np.nonzero(a)):
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


def all_block_principal_parts(M: WeightModule, vectors: np.ndarray) -> np.ndarray:
    """The coordinates, in the eigenvalue-0 column set of casimir_blocks, of
    the principal parts of the columns of vectors: one solve against the
    columns of every Casimir block, by increasing eigenvalue, keeping the
    rows of block 0."""
    blocks = casimir_blocks(M)
    basis = graded_columns(*(blocks[lam] for lam in sorted(blocks)))
    return graded_solve(basis, vectors)[:blocks[0].shape[1]]


# -- modules from dense actions ----------------------------------------------------


def dense_simple_model(lam: int, p: int) -> WeightModule:
    """simple_model built from dense action matrices."""
    n = lam + 1
    e, h, f = (np.zeros((n, n), dtype=np.int64) for _ in range(3))
    for i in range(n):
        h[i, i] = (lam - 2 * i) % p
        if i + 1 < n:
            f[i + 1, i] = i + 1
            e[i, i + 1] = lam - i
    return WeightModule(sl2(p), [f"v{i}" for i in range(n)], [lam - 2 * i for i in range(n)],
                        {"e": FpMatrix(p, e), "h": FpMatrix(p, h), "f": FpMatrix(p, f)})


def dense_weight_line(alg, w: int) -> WeightModule:
    """weight_line built from dense 1 x 1 action matrices."""
    actions = {x: FpMatrix(alg.p, [[0]]) for x in alg.generators}
    if "h" in alg.generators:
        actions["h"] = FpMatrix(alg.p, [[w % alg.p]])
    return WeightModule(alg, (f"<{w}>",), (w,), actions)


def dense_tensor(A: WeightModule, B: WeightModule) -> WeightModule:
    labels = [f"{a}*{b}" for a in A.labels for b in B.labels]
    weights = [wa + wb for wa in A.weights for wb in B.weights]
    eyeL, eyeR = np.eye(A.dim, dtype=np.int64), np.eye(B.dim, dtype=np.int64)
    actions = {x: FpMatrix(A.p, np.kron(A.action(x).a, eyeR) + np.kron(eyeL, B.action(x).a))
               for x in A.algebra.generators}
    return WeightModule(A.algebra, labels, weights, actions)


def dense_dual(M: WeightModule) -> WeightModule:
    return WeightModule(M.algebra, [f"{a}^" for a in M.labels], [-w for w in M.weights],
                        {x: FpMatrix(M.p, -M.action(x).a.T) for x in M.algebra.generators})


def dense_twist(M: WeightModule, r: int) -> WeightModule:
    zero = np.zeros((M.dim, M.dim), dtype=np.int64)
    return WeightModule(M.algebra, [f"{a}({r})" for a in M.labels],
                        [w * M.p ** r for w in M.weights],
                        {x: FpMatrix(M.p, zero) for x in M.algebra.generators})


def kronecker_hom_dim(M: WeightModule, N: WeightModule) -> int:
    """dim Hom(M, N): the nullity of the Kronecker system of Phi with
    Phi action_M(x) = action_N(x) Phi, on the equal-weight entries of Phi."""
    allowed = [i * M.dim + j for i in range(N.dim) for j in range(M.dim)
               if N.weights[i] == M.weights[j]]
    if not allowed:
        return 0
    eyeN, eyeM = np.eye(N.dim, dtype=np.int64), np.eye(M.dim, dtype=np.int64)
    big = np.concatenate([
        (np.kron(N.action(x).a, eyeM) - np.kron(eyeN, M.action(x).a.T))[:, allowed]
        for x in M.algebra.generators])
    return len(allowed) - rank(big, M.p)


def reference_mult(alg, v1, v2) -> list[int]:
    """Add exponent tuples; drop any product with an exponent above p-1."""
    out = [0] * alg.dim
    for i in np.flatnonzero(v1):
        for j in np.flatnonzero(v2):
            s = tuple(a + b for a, b in zip(alg.exponents[i], alg.exponents[j]))
            if max(s) <= alg.p - 1:
                out[alg.index[s]] += int(v1[i]) * int(v2[j])
    return [c % alg.p for c in out]


def reference_monomials(alg) -> dict:
    """Per monomial of the truncated symmetric algebra of alg, listed by
    degree and then by exponent tuple: its label, weight, exponent tuple
    and degree; with the index of each tuple and the unit's position."""
    exponents = sorted(product(range(alg.p), repeat=alg.dim), key=lambda e: (sum(e), e))
    index = {e: k for k, e in enumerate(exponents)}
    return {
        "labels": tuple("*".join(g if a == 1 else f"{g}^{a}" for g, a in zip(alg.generators, e) if a)
                        or "1" for e in exponents),
        "weights": tuple(sum(a * w for a, w in zip(e, alg.weights)) for e in exponents),
        "exponents": exponents,
        "degrees": tuple(map(sum, exponents)),
        "index": index,
        "unit_index": index[(0,) * alg.dim],
    }


def module_degree_characters(M: WeightModule, top: int):
    return degree_characters(M.grading.weights, M.grading.degrees, top)


# -- byte-for-byte comparisons -------------------------------------------------------


def same_map(a: GradedMap, b: GradedMap) -> bool:
    """Equal GradedMaps: the same shift, column cells and stack, byte for byte."""
    return (a.shift == b.shift and np.array_equal(a.source.keys, b.source.keys)
            and a.stack.dtype == b.stack.dtype and a.stack.shape == b.stack.shape
            and a.stack.tobytes() == b.stack.tobytes())


def assert_same_module(got: WeightModule, want: WeightModule) -> None:
    assert (got.labels, got.weights) == (want.labels, want.weights)
    assert np.array_equal(got.grading.keys, want.grading.keys)
    for x in want.algebra.generators:
        assert same_map(got.maps[x], want.maps[x]), x


def assert_same_eigenspaces(got: dict, want: dict) -> None:
    """Column sets by eigenvalue equal a cell_eigenspaces result: the same
    eigenvalues, dense columns byte for byte, and column weights."""
    assert list(got) == list(want)
    for lam, (cols, weights) in want.items():
        dense = got[lam].dense().a
        assert (dense.shape, dense.dtype) == (cols.shape, cols.dtype), lam
        assert dense.tobytes() == cols.tobytes(), lam
        assert got[lam].source.weights.tolist() == weights, lam
