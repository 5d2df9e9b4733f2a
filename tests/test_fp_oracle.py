"""The F_p primitives against an independent implementation.

Every other linear-algebra test compares graded code with the dense
FpMatrix path, and both run on the same _rref.  Here rank, the reduced
echelon form and its pivot columns, the kernel dimension and the
solvability of linear systems are checked against sympy's DomainMatrix
over GF(p), which is separate code, on random matrices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

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
