"""The F_p primitives and H^*(U_1, M) against independent implementations.

Every other linear-algebra test compares graded code with the dense
references of tests/oracles.py, and both run on the same row reduction,
_rref_stack.  Here rank, the reduced echelon form and its pivot
columns, the kernel and the solvability of linear systems are checked
against sympy's DomainMatrix over GF(p) (oracles.sympy_matrix), which is
separate code: on random matrices through FpMatrix, and on random
stacks, with and without zero padding, through _rref_stack, _kernels
and _solve_stack.  The characters of H^n(U_1, M) are checked against a
closed form in the per-weight ranks of f and f^(p-1), taken from sympy,
on the truncated symmetric algebras and on random modules with a
nilpotent f.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho import (
    PeriodicCohomology,
    TruncatedSymAlgebra,
    WeightModule,
    borel,
    nilradical,
    sl2,
    truncated_sym,
)
from frobcoho.fpmatrix import FpMatrix, _kernels, _rref_stack, _solve_stack
from oracles import sympy_ints, sympy_matrix


@st.composite
def fp_matrices(draw):
    """(p, a, b): a random rows x cols matrix, of full random entries or
    of a random low rank, and a random right-hand side with 1-2 columns."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(0, p, size=(rows, cols))
    else:
        k = draw(st.integers(0, min(rows, cols)))
        a = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))
    b = rng.integers(0, p, size=(rows, draw(st.integers(1, 2))))
    if draw(st.booleans()):  # a consistent system: b in the column space of a
        b = a @ rng.integers(0, p, size=(cols, b.shape[1]))
    return p, a % p, b % p


@settings(max_examples=80, deadline=None)
@given(fp_matrices())
def test_primitives_match_sympy_gf(case):
    p, a, b = case
    mat, ref = FpMatrix(p, a), sympy_matrix(a, p)
    red, pivots = mat.rref()
    ref_red, ref_pivots = ref.rref()
    assert mat.rank() == ref.rank()
    assert pivots == tuple(ref_pivots)
    assert red.a.tolist() == sympy_ints(ref_red, p)
    kernel = mat.kernel_basis()
    assert kernel.cols == ref.nullspace().shape[0] == a.shape[1] - ref.rank()
    assert not (mat @ kernel).a.any() and kernel.rank() == kernel.cols
    solvable = sympy_matrix(np.concatenate([a, b], axis=1), p).rank() == ref.rank()
    try:
        x = mat.solve(FpMatrix(p, b))
    except ValueError:
        assert not solvable
    else:
        assert solvable
        assert np.array_equal((a @ x.a - b) % p, np.zeros_like(b))


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
def test_rref_stack_matches_sympy_per_slice(case):
    stack, p = case
    red, pivots = _rref_stack(stack, p)
    assert red.shape == stack.shape and pivots.shape == (stack.shape[0], stack.shape[2])
    for b in range(stack.shape[0]):
        ref_red, ref_pivots = sympy_matrix(stack[b], p).rref()
        assert red[b].tolist() == sympy_ints(ref_red, p)
        assert tuple(np.flatnonzero(pivots[b]).tolist()) == tuple(ref_pivots)


@st.composite
def padded_systems(draw):
    """(p, a, b, rows, cols): a matrix_stacks stack a in which slice k is
    zero outside its first rows[k] rows and cols[k] columns, as the padded
    cells of a graded map are, and a right-hand side b that is zero outside
    the same rows, in the column space of each slice or random."""
    stack, p = draw(matrix_stacks())
    count, height, width = stack.shape
    rows = np.array([draw(st.integers(0, height)) for _ in range(count)], dtype=np.int64)
    cols = np.array([draw(st.integers(0, width)) for _ in range(count)], dtype=np.int64)
    real_rows = (np.arange(height) < rows[:, None])[:, :, None]
    a = stack * real_rows * (np.arange(width) < cols[:, None])[:, None, :]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        b = a @ rng.integers(0, p, size=(count, width, 2)) % p
    else:
        b = rng.integers(0, p, size=(count, height, 2)) * real_rows
    return p, a, b, rows, cols


@settings(max_examples=150, deadline=None)
@given(padded_systems())
def test_stacked_kernels_match_sympy(case):
    """Per slice, the kernel vectors at its real free columns are as many
    as sympy's nullspace basis of its unpadded block and span the same
    space (same reduced echelon form); they are zero on the padding."""
    p, a, _, rows, cols = case
    red, piv = _rref_stack(a, p)
    basis = _kernels(red, piv, p)
    for k in range(a.shape[0]):
        real = np.arange(a.shape[2]) < cols[k]
        kernel = basis[k][:, ~piv[k] & real]
        assert not (a[k] @ kernel % p).any() and not kernel[~real].any()
        block = a[k, :rows[k], :cols[k]]
        ref = sympy_matrix(block, p).nullspace()
        assert kernel.shape[1] == ref.shape[0] == cols[k] - sympy_matrix(block, p).rank()
        if kernel.size:
            assert sympy_matrix(kernel[real].T, p).rref()[0] == ref.rref()[0]


@settings(max_examples=150, deadline=None)
@given(padded_systems())
def test_stacked_solve_matches_sympy(case):
    """A slice solves exactly when sympy's ranks of a and [a | b] agree,
    then with a x = b and x zero on the padding; the whole stack solves
    when every slice does."""
    p, a, b, rows, cols = case
    solvable = []
    for k in range(a.shape[0]):
        block, rhs = a[k, :rows[k], :cols[k]], b[k, :rows[k]]
        rank = sympy_matrix(block, p).rank()
        solvable.append(sympy_matrix(np.concatenate([block, rhs], axis=1), p).rank() == rank)
        try:
            x = _solve_stack(a[k:k + 1], b[k:k + 1], p)[0]
        except ValueError:
            assert not solvable[k]
        else:
            assert solvable[k]
            assert np.array_equal(a[k] @ x % p, b[k]) and not x[cols[k]:].any()
    try:
        x = _solve_stack(a, b, p)
    except ValueError as exc:
        assert not all(solvable) and "inconsistent" in str(exc)
    else:
        assert all(solvable) and np.array_equal(a @ x % p, b)


def _closed_form(M, n: int) -> dict[int, int]:
    """The character of H^n(U_1, M) from the Jordan type of f: at weight w,
    ker f in degree 0; dim M_w - rank(f into M_w) - rank(f^(p-1) out of
    M_w) in odd degrees (the top of each non-free chain); dim M_w - rank(f
    out of M_w) - rank(f^(p-1) into M_w) in even degrees >= 2 (its
    bottom); every weight of degree n shifted by the twist 2p(n // 2), plus
    2 for odd n."""
    p, w = M.p, np.array(M.weights)
    f = M.action("f").a
    fq = np.eye(M.dim, dtype=np.int64)
    for _ in range(p - 1):  # plain integer products, reduced mod p
        fq = fq @ f % p

    def rank(mat, src, shift):  # sympy rank of the block from weight src to src + shift
        block = mat[np.ix_(w == src + shift, w == src)]
        return sympy_matrix(block, p).rank() if block.size else 0

    down = 2 * (p - 1)  # f^(p-1) lowers weights by this much
    out = {}
    for wt in sorted(set(w.tolist())):
        count = int((w == wt).sum())
        if n == 0:
            count -= rank(f, wt, -2)
        elif n % 2:
            count -= rank(f, wt + 2, -2) + rank(fq, wt, -down)
        else:
            count -= rank(f, wt, -2) + rank(fq, wt + down, -down)
        if count:
            out[wt + 2 * p * (n // 2) + 2 * (n % 2)] = count
    return out


ALGEBRAS = (sl2, borel, nilradical)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda a: a.__name__)
def test_u1_cohomology_matches_closed_form_on_whole_algebras(make, p):
    M = TruncatedSymAlgebra(make(p)).module
    engine = PeriodicCohomology(M)
    for n in range(4):
        assert engine.character(n).coeffs == _closed_form(M, n), n


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda a: a.__name__)
def test_u1_cohomology_matches_closed_form_on_graded_pieces(make, p):
    alg = make(p)
    for degree in range((p - 1) * alg.dim + 1):
        M = truncated_sym(alg, degree)
        engine = PeriodicCohomology(M)
        for n in range(4):
            assert engine.character(n).coeffs == _closed_form(M, n), (degree, n)


@st.composite
def nilpotent_modules(draw):
    """A WeightModule over nilradical(p), p in {2, 3, 5, 7}: weights from a
    window of p values two apart, so f^p = 0 follows from the grading, in
    shuffled order, and f from weight w to w - 2 by random low-rank blocks."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    top = draw(st.integers(-2 * p, 2 * p))
    weights = [top - 2 * i for i in range(p) for _ in range(draw(st.integers(0, 3)))]
    weights = [weights[i] for i in draw(st.permutations(range(len(weights))))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array(weights, dtype=np.int64)
    f = np.zeros((w.size, w.size), dtype=np.int64)
    for src in set(weights):
        rows, cols = np.flatnonzero(w == src - 2), np.flatnonzero(w == src)
        k = draw(st.integers(0, min(rows.size, cols.size)))
        f[np.ix_(rows, cols)] = rng.integers(0, p, size=(rows.size, k)) @ rng.integers(
            0, p, size=(k, cols.size))
    return WeightModule(nilradical(p), [f"v{i}" for i in range(w.size)], weights,
                        {"f": FpMatrix(p, f)})


@settings(max_examples=60, deadline=None)
@given(nilpotent_modules())
def test_u1_cohomology_matches_closed_form_on_random_nilpotent_f(M):
    engine = PeriodicCohomology(M)
    for n in range(4):
        assert engine.character(n).coeffs == _closed_form(M, n), n
