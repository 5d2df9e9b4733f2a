"""The whole-algebra path at p = 11 stores weight blocks, not dense arrays.

TruncatedSymAlgebra(sl2(11)) has 1331 basis vectors.  Its actions and
every column set on it (kernels, images, cocycle bases) are kept as
weight blocks, so no step may allocate as much as a few dense 1331 x 1331
int64 arrays.  tracemalloc sees numpy's buffers; the bounds are on the
peak of the traced step alone.
"""

import tracemalloc

import numpy as np

from frobcoho import PeriodicCohomology, TruncatedSymAlgebra, sl2

P = 11
DENSE = (P ** 3) ** 2 * np.dtype(np.int64).itemsize  # one dense n x n array: 14.2 MB


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


def test_degree_one_classes_peak_below_one_dense_array():
    engine = PeriodicCohomology(TruncatedSymAlgebra(sl2(P)).module)
    reps, peak = _traced(lambda: engine.t1_representatives(1))
    assert len(reps) == 10
    assert peak < DENSE, f"{peak / 1e6:.1f} MB"
