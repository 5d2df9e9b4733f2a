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
    is_prime,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def _eye(p, n):
    return FpMatrix(p, np.eye(n, dtype=np.int64))


def test_rank_identity():
    assert _eye(5, 3).rank() == 3


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
    assert (_eye(13, 3) @ _eye(13, 3)).rank() == 3


def test_matmul_is_exact_on_both_sides_of_the_float32_bound():
    # 100^2 * 1677 < 2^24 <= 100^2 * 1678: the first product runs in float32,
    # the second in float64; both sums of p-1 squared are exact
    p = 101
    for inner in (1677, 1678):
        a = np.full((2, 1, inner), p - 1, dtype=np.int64)
        assert _matmul(a, a.transpose(0, 2, 1), p).tolist() == [[[(p - 1) ** 2 * inner % p]]] * 2


def test_rank_zero_map():
    assert FpMatrix(3, np.zeros((4, 7))).rank() == 0


def test_rank_reduces_mod_p():
    for p in PRIMES:
        assert FpMatrix(p, [[p]]).rank() == 0


def test_modulus_must_be_prime():
    assert [q for q in range(-3, 60) if is_prime(q)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    with pytest.raises(ValueError):
        FpMatrix(6, [[1]])
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        GradedMap.scatter(4, Grading([0, 0]), 0, [0], [1], [1])
    with pytest.raises(ValueError, match="mixed moduli"):
        FpMatrix(3, [[1]]) @ FpMatrix(5, [[1]])
    with pytest.raises(ValueError, match="mixed moduli"):
        FpMatrix(3, [[1]]).solve(FpMatrix(5, [[1]]))


def test_grading_cells_are_weight_then_degree():
    g = Grading([2, 0, 2, 0], [1, 1, 0, 1])
    assert [g.weights[g.index[k, 0]] for k in range(3)] == [0, 2, 2]
    assert g.sizes.tolist() == [2, 1, 1, 0] and g.pos.tolist() == [2, 0, 1, 0]
    assert Grading.of_keys(g.keys).keys.tolist() == g.keys.tolist()
    with pytest.raises(ValueError, match="degrees must lie"):
        Grading([0, 2], [0, -1])


@pytest.mark.parametrize("weights, degrees", [
    ([2, 0, 2, 0], [1, 1, 0, 1]),
    ([-3, 5, -3, -1, 5], [7, 0, 7, 2 ** 32 - 1, 0]),
    ([-4, 2, -4], None),
    ([], None),
])
def test_grading_weights_and_degrees_decode_the_keys(weights, degrees):
    """Per vector and per cell, the weight and degree a cell key encodes;
    degrees default to zeros."""
    g, cell = Grading(weights, degrees), 2 ** 32
    assert g.weights.tolist() == (g.keys // cell).tolist() == list(weights)
    assert g.degrees.tolist() == (g.keys % cell).tolist() == (degrees or [0] * len(weights))
    assert g.cell_weights.tolist() == (g.values // cell).tolist()
    assert g.cell_degrees.tolist() == (g.values % cell).tolist()
    assert g.cell_weights.tolist() == [g.weights[g.index[k, 0]] for k in range(g.values.size)]
    assert g.cell_degrees.tolist() == [g.degrees[g.index[k, 0]] for k in range(g.values.size)]


def test_kernel_identity_empty():
    assert _eye(3, 4).kernel_basis().cols == 0


def test_kernel_zero_full():
    kb = FpMatrix(5, np.zeros((2, 2))).kernel_basis()
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
        assert not (m @ kb).a.any()
        assert kb.rank() == kb.cols


def test_rank_transpose_and_rank_nullity():
    rng = np.random.default_rng(20240817)
    for p in PRIMES:
        for _ in range(8):
            rows, cols = rng.integers(1, 9, size=2)
            m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
            assert m.rank() == FpMatrix(p, m.a.T).rank()
            assert m.rank() + m.kernel_basis().cols == int(cols)


def test_generalized_eigenspace_scalar_and_diag():
    m = FpMatrix(5, 2 * np.eye(3, dtype=np.int64))
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
    assert m ** 0 == _eye(5, 2)
    # an empty inner dimension gives zero products, for stacks too
    empty = _matmul(np.zeros((2, 3, 0), dtype=np.int64), np.zeros((2, 0, 4), dtype=np.int64), 5)
    assert empty.shape == (2, 3, 4) and empty.dtype == np.int64 and not empty.any()
    assert FpMatrix(5, np.zeros((3, 0))) @ FpMatrix(5, np.zeros((0, 2))) == FpMatrix(
        5, np.zeros((3, 2)))


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
    assert not (mat @ kb).a.any()
    for j, w in enumerate(kw):
        support = np.nonzero(kb.a[:, j])[0]
        assert all(weights[i] == w for i in support)
