"""The whole-algebra path at p = 11 stores cell blocks, not dense arrays.

TruncatedSymAlgebra(sl2(11)) has 1331 basis vectors.  Its actions and
every column set on it (kernels, images, cocycle bases) are kept as
blocks on its (weight, degree) spaces, so no step may allocate as much
as a few dense 1331 x 1331 int64 arrays.  tracemalloc sees numpy's
buffers; the bounds are on the peak of the traced step alone.  The
Casimir split at p = 13 is bounded too: it reduces one eigenvalue at a
time, and Sl2Pieces keeps no reduced copy of the Casimir power whose
kernel it takes.  A tensor product scatters its factors' entries into
blocks, with no dense Kronecker product of its actions.
"""

import gc
import tracemalloc

import numpy as np

from frobcoho import PeriodicCohomology, TruncatedSymAlgebra, casimir_blocks, sl2
from frobcoho.cohomology import Sl2Pieces
from frobcoho.verify import verify_propositions
from frobcoho.wmodules import truncated_sym

P = 11
DENSE = (P ** 3) ** 2 * np.dtype(np.int64).itemsize  # one dense n x n array: 14.2 MB
VECTOR = P ** 3 * np.dtype(np.int64).itemsize  # one dense int64 vector: 10.6 KB


def _traced(fn):
    """fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whole_algebra_build_peaks_below_three_dense_arrays():
    alg, peak = _traced(lambda: TruncatedSymAlgebra(sl2(P)))
    assert alg.dim == P ** 3
    assert peak < 3 * DENSE, f"{peak / 1e6:.1f} MB"


def test_whole_algebra_keeps_only_arrays_alive():
    # p = 13: 2197 monomials.  A label string, an exponent tuple, an index
    # entry and a weight and degree per monomial, built eagerly, kept
    # 0.92 MB alive; the arrays they are built from on first read, 0.43 MB.
    g = sl2(13)
    gc.collect()
    tracemalloc.start()
    try:
        alg = TruncatedSymAlgebra(g)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alg.dim == 13 ** 3
    assert kept < 0.6e6, f"{kept / 1e6:.2f} MB"


def test_pieces_keep_no_reduction_of_the_casimir_power():
    # p = 17: 4913 monomials.  A reduced copy of the Frobenius power S of the
    # Casimir, left on S by its kernel for an image never taken, kept
    # 1.53 MB alive; the algebra, S and its principal block keep 1.34 MB.
    gc.collect()
    tracemalloc.start()
    try:
        pieces = Sl2Pieces(17)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pieces.engine.M.dim < 17 ** 3
    assert kept < 1.45e6, f"{kept / 1e6:.2f} MB"


def test_whole_algebra_actions_are_cut_by_weight_and_degree():
    # the widest (weight, degree) space has 6 vectors; a weight space has 121
    M = TruncatedSymAlgebra(sl2(P)).module
    for x, m in M.maps.items():
        assert max(m.stack.shape[1:]) <= 6, (x, m.stack.shape)


def test_degree_one_classes_peak_below_one_dense_array():
    engine = PeriodicCohomology(TruncatedSymAlgebra(sl2(P)).module)
    reps, peak = _traced(lambda: engine.t1_representatives(1))
    assert len(reps) == 10
    assert peak < DENSE, f"{peak / 1e6:.1f} MB"


def test_f_on_a_one_cell_vector_multiplies_that_cell_only():
    # an H^1 T_1-representative lies in one (weight, degree) cell.  Padding
    # it into all 431 cells and multiplying the whole stack peaks at 214 KB;
    # gathering its one cell peaks at 25 KB.
    M = TruncatedSymAlgebra(sl2(P)).module
    vec, _ = PeriodicCohomology(M).t1_representatives(1)[0]
    support = np.flatnonzero(vec)
    assert len(set(zip(M.grading.weights[support], M.grading.degrees[support]))) == 1
    F = M.maps["f"]
    out, peak = _traced(lambda: F @ vec)
    assert np.array_equal(out, sum(int(vec[j]) * F.column(j) for j in support) % P)
    assert peak < 4 * VECTOR, f"{peak / 1e3:.1f} KB"


def test_casimir_blocks_reduce_one_eigenvalue_at_a_time():
    # p = 13: 2197 vectors in 613 cells of at most 7.  Taking the kernel of
    # S - lam one Casimir value at a time peaks at 2.3 MB; stacking all seven
    # values into one reduction peaks at 8.2 MB.
    M = TruncatedSymAlgebra(sl2(13)).module
    blocks, peak = _traced(lambda: casimir_blocks(M))
    assert sum(cols.shape[1] for cols in blocks.values()) == M.dim
    assert peak < 3e6, f"{peak / 1e6:.1f} MB"


def test_tensor_with_the_dual_scatters_blocks():
    # 37 x 37 = 1369 vectors.  Kronecker products of the dense actions, cut
    # afterwards, peak at 79.2 MB (one dense 1369 x 1369 int64 array is
    # 15 MB); scattering the entries of the factors' blocks peaks at 34.3 MB.
    M = truncated_sym(sl2(7), 9)
    dual = M.dual()
    T, peak = _traced(lambda: M.tensor(dual))
    assert T.dim == 37 * 37
    assert peak < 45e6, f"{peak / 1e6:.1f} MB"


def test_props_pass_reads_classes_from_the_principal_block():
    # p = 13: a second engine on the whole algebra (2197 vectors) finding the
    # T_1 classes peaked at 4.82 MB; reading them from the engine on the
    # principal block (338 vectors) peaks at 2.66 MB.
    report, peak = _traced(lambda: verify_propositions(13))
    assert report.exit_code() == 2
    assert peak < 3.7e6, f"{peak / 1e6:.2f} MB"
