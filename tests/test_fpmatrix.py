"""Exact linear algebra substrate."""

import numpy as np
import pytest

from frobcoho.fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    _matmul,
    generalized_eigenspace,
    graded_kernel,
    subquotient_dim,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_rank_identity():
    assert FpMatrix.identity(5, 3).rank() == 3


def test_matmul_refuses_inexact_float64_products():
    p = 2 ** 31 - 1  # (p-1)^2 alone exceeds 2^53
    a = FpMatrix(p, [[1]])
    with pytest.raises(ValueError, match="not exact in float64"):
        a @ a
    with pytest.raises(ValueError, match="not exact in float64"):
        a @ np.array([1])
    with pytest.raises(ValueError, match="not exact in float64"):  # a stack of products
        _matmul(np.ones((2, 1, 1), dtype=np.int64), np.ones((2, 1, 1), dtype=np.int64), p)
    g = GradedMap.cut(a, Grading([0]), 0)
    with pytest.raises(ValueError, match="not exact in float64"):  # a graded composition
        g @ g
    with pytest.raises(ValueError, match="not exact in float64"):
        g @ np.array([1])
    assert (FpMatrix.identity(13, 3) @ FpMatrix.identity(13, 3)).rank() == 3


def test_rank_zero_map():
    assert FpMatrix.zeros(3, 4, 7).rank() == 0


def test_rank_reduces_mod_p():
    for p in PRIMES:
        assert FpMatrix(p, [[p]]).rank() == 0


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        FpMatrix(6, [[1]])


def test_kernel_identity_empty():
    assert FpMatrix.identity(3, 4).kernel_basis().cols == 0


def test_kernel_zero_full():
    kb = FpMatrix.zeros(5, 2, 2).kernel_basis()
    assert kb.cols == 2
    assert kb.rank() == 2


def test_kernel_jordan_block():
    j2 = FpMatrix(5, [[0, 1], [0, 0]])
    kb = j2.kernel_basis()
    assert kb.cols == 1
    assert not (j2 @ kb).a.any()


def test_kernel_vectors_are_in_kernel_and_independent():
    rng = np.random.default_rng(7)
    for p in PRIMES:
        m = FpMatrix(p, rng.integers(0, p, size=(6, 9)))
        kb = m.kernel_basis()
        assert kb.cols == 9 - m.rank()
        assert (m @ kb).is_zero()
        assert kb.rank() == kb.cols


def test_rank_transpose_and_rank_nullity():
    rng = np.random.default_rng(20240817)
    for p in PRIMES:
        for _ in range(8):
            rows, cols = rng.integers(1, 9, size=2)
            m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
            assert m.rank() == m.T.rank()
            assert m.rank() + m.kernel_basis().cols == int(cols)


def test_subquotient_dims():
    zero3 = FpMatrix.zeros(3, 3, 3)
    assert subquotient_dim(zero3, zero3) == 3
    assert subquotient_dim(FpMatrix.identity(3, 3), zero3) == 0


def test_subquotient_regular_module_of_dual_numbers():
    # the rank-one nilpotent acting on k[f]/f^2: ker f = im f, so the
    # middle cohomology of f -> f is zero; enumerate to double-check
    for p in PRIMES:
        f = FpMatrix(p, [[0, 0], [1, 0]])
        assert subquotient_dim(f, f) == 0
        images = {tuple((f @ np.array([a, b])) % p) for a in range(p) for b in range(p)}
        kernel = [(a, b) for a in range(p) for b in range(p)
                  if not (f @ np.array([a, b])).any()]
        assert len(kernel) == len(images)  # both are the span of f


def test_subquotient_requires_composition_zero():
    a = FpMatrix.identity(3, 2)
    with pytest.raises(ValueError):
        subquotient_dim(a, a)


def test_generalized_eigenspace_scalar_and_diag():
    m = 2 * FpMatrix.identity(5, 3)
    assert generalized_eigenspace(m, 2).cols == 3
    d = FpMatrix(5, [[1, 0], [0, 2]])
    assert generalized_eigenspace(d, 1).cols == 1


def test_generalized_eigenspace_nilpotent():
    j3 = FpMatrix(7, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert generalized_eigenspace(j3, 0).cols == 3
    space = generalized_eigenspace(j3, 0)
    assert not ((j3 ** 3) @ space).a.any()


def test_solve_roundtrip_and_inconsistency():
    rng = np.random.default_rng(11)
    for p in (3, 7):
        a = FpMatrix(p, rng.integers(0, p, size=(5, 4)))
        x = FpMatrix(p, rng.integers(0, p, size=(4, 2)))
        sol = a.solve(a @ x)
        assert a @ sol == a @ x
    a = FpMatrix(3, [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        a.solve(FpMatrix(3, [[0], [1]]))


def test_matrix_power_and_ops():
    m = FpMatrix(5, [[1, 1], [0, 1]])
    assert (m ** 5).a[0, 1] == 0  # unipotent order p
    assert (m - m).is_zero()
    assert (3 * m).a[0, 0] == 3


def test_independent_columns_greedy():
    m = FpMatrix(5, [[1, 2, 0], [2, 4, 1]])
    assert m.rref()[1] == (0, 2)


def test_graded_kernel_matches_plain_kernel():
    # weight-graded map: shift by -2 on weights (3, 1, 1, -1)
    p = 5
    mat = FpMatrix(p, [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 2, 0],
    ])
    weights = [3, 1, 1, -1]
    cols = graded_kernel(GradedMap.cut(mat, Grading(weights), -2))
    kb, kw = cols.dense(), cols.source.weights.tolist()
    assert kb.cols == mat.kernel_basis().cols
    assert (mat @ kb).is_zero()
    for j, w in enumerate(kw):
        support = np.nonzero(kb.a[:, j])[0]
        assert all(weights[i] == w for i in support)
