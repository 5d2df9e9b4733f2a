"""The F_p primitives and H^*(U_1, M) against independent implementations.

Every other linear-algebra test compares graded code with the dense
FpMatrix path, and both run on the same _rref.  Here rank, the reduced
echelon form and its pivot columns, the kernel dimension and the
solvability of linear systems are checked against sympy's DomainMatrix
over GF(p), which is separate code, on random matrices.  The characters
of H^n(U_1, M) are checked against a closed form in the per-weight ranks
of f and f^(p-1), taken from sympy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from frobcoho import PeriodicCohomology, TruncatedSymAlgebra, borel, nilradical, sl2, truncated_sym
from frobcoho.fpmatrix import FpMatrix


def _oracle(a: np.ndarray, p: int) -> DomainMatrix:
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()], a.shape, field)


def _ints(dm: DomainMatrix, p: int) -> list[list[int]]:
    return [[int(x) % p for x in row] for row in dm.to_list()]


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
    mat, ref = FpMatrix(p, a), _oracle(a, p)
    red, pivots = mat.rref()
    ref_red, ref_pivots = ref.rref()
    assert mat.rank() == ref.rank()
    assert pivots == tuple(ref_pivots)
    assert red.a.tolist() == _ints(ref_red, p)
    kernel = mat.kernel_basis()
    assert kernel.cols == ref.nullspace().shape[0] == a.shape[1] - ref.rank()
    assert (mat @ kernel).is_zero() and kernel.rank() == kernel.cols
    solvable = _oracle(np.concatenate([a, b], axis=1), p).rank() == ref.rank()
    try:
        x = mat.solve(FpMatrix(p, b))
    except ValueError:
        assert not solvable
    else:
        assert solvable
        assert np.array_equal((a @ x.a - b) % p, np.zeros_like(b))


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
        return _oracle(block, p).rank() if block.size else 0

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
