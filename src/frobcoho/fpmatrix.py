"""Exact linear algebra over the prime field F_p, dense and weight-graded.

Everything downstream (Lie algebra actions, cohomology of periodic
complexes, Hom spaces) reduces to rank/kernel/solve computations over
F_p with p a small prime.  Entries lie in [0, p).  A dense FpMatrix, and
every array that leaves this module, is int64; a cell stack is held in
the narrowest of int8, int16, int32 and int64 that holds p(p-1) (_dtype):
int8 for p <= 11, int16 for 13 <= p <= 181.  For entries in [0, p), a
sum, a scalar multiple, a - b = a + (p-1) b and an update a - c row all
stay within p(p-1) in absolute value, and so does the reduction
x - (x // p) p (_mod), so no stack is ever upcast.  Products are routed
through float32, or float64 where an entry before reduction, at most
(p-1)^2 times the inner dimension, can reach 2^24, so that numpy can use
BLAS, then reduced and narrowed; this is exact while every such entry
stays below 2^53, and _matmul raises where that bound fails.

Row reduction uses the first nonzero entry as pivot, so echelon forms,
kernel bases and particular solutions are reproducible across runs.

GradedMap is the primitive the package computes with; FpMatrix is the
dense record at its boundary, cut into cells where dense input comes in
(GradedMap.cut) and rebuilt where a dense matrix goes out
(GradedMap.dense).  Every action maps weight w to w + wt(x) and every
kernel, image or eigenspace basis has weight-homogeneous columns, so a
GradedMap stores either as a shift and one dense block per source cell,
built from its entries: an action on the Grading of a basis, a column
set from the Grading of its columns into that one.  A Grading's cells
are its weight spaces or, when the basis also carries a degree that
every map keeps (the polynomial degree of a truncated symmetric
algebra), the (weight, degree) spaces.  _rref_stack is the one row
reduction, of a stack of matrices in one pass; an FpMatrix reduces as a
stack of one.  Each graded_* function reduces the zero-padded stack of
all its cells in one call: the reduced echelon form of a direct sum is
that of its summands and zero padding never becomes a pivot, so greedy
pivots, kernels (_kernels) and free-variables-zero solutions
(_solve_stack) equal the dense ones up to column order, and
cell_nullities reads per cell nullities off the pivots.  A dense array
a map is applied to or solved for is gathered into its nonzero cells
(_gather) and the result scattered back (_scatter).  The eigenspaces
and the 0-eigenspace projector of a weight-preserving map come from its
Frobenius power S (frobenius_power): each eigenspace is the graded kernel
of S - lam, and the projector is 1 - S^(p-1) once S^p = S.  The padded
stack, the cell keys and every _-prefixed name are private to this module:
other modules see cells only as Grading's weights and degrees, per vector
and per cell, and as GradedMap entries.

The kernel and the image of one map share one reduction (_echelon), so
the periodic complex reduces each of its two differentials once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .characters import check_prime, is_prime  # noqa: F401  (is_prime re-exported)


def _dtype(p: int) -> np.dtype:
    """The stack dtype over F_p: the narrowest integer dtype that holds p(p-1)."""
    return np.min_scalar_type(-p * (p - 1))


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, as x - (x // p) p, since numpy vectorizes integer
    floor division by a scalar but not %; exact while (x // p) p fits x's
    dtype.  (x // p) p is formed in place, so x is copied once, not twice."""
    q = x // p
    q *= p
    x -= q
    return x


def _matmul(a: np.ndarray, b: np.ndarray, p: int, dtype=np.int64) -> np.ndarray:
    """a @ b mod p as dtype, for matrices or for stacks of them with entries
    in [0, p); multiplied in float32 while (p-1)^2 inner < 2^24, where every
    partial sum is an integer float32 holds exactly (half the memory of
    float64), and reduced in the narrowest dtype that holds (p-1)^2 inner."""
    inner = a.shape[-1]
    if (p - 1) ** 2 * inner >= 2 ** 53:
        raise ValueError(f"a product over F_{p} with inner dimension {inner} "
                         "is not exact in float64")
    ftype = np.float32 if (p - 1) ** 2 * inner < 2 ** 24 else np.float64
    c = a.astype(ftype) @ b.astype(ftype)
    return _mod(c.astype(np.min_scalar_type(-(p - 1) ** 2 * inner - 1)), p).astype(dtype)


def _power(base, n: int, mul):
    """base ** n for n >= 1 by repeated squaring, multiplying with mul."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form of every slice of a (B, rows, cols)
    stack, pivoting on the first nonzero entry, in one pass over the
    columns: the reduced forms, and per slice a mask of its pivot columns.
    Zero rows and columns never become pivots, so a slice padded with zeros
    keeps its pivots and, on its own rows and columns, its reduced form."""
    a = a.astype(_dtype(p))
    count, rows, cols = a.shape
    pivot = np.zeros((count, cols), dtype=bool)
    inv = np.array([0, *(pow(x, p - 2, p) for x in range(1, p))], dtype=a.dtype)
    r = np.zeros(count, dtype=np.int64)  # next pivot row, per slice
    below = np.arange(rows)
    for c in range(cols):
        nz = (a[:, :, c] != 0) & (below >= r[:, None])
        live = np.flatnonzero(nz.any(axis=1))
        if not live.size:
            continue
        sel = slice(None) if live.size == count else live
        top, k = r[live], nz[live].argmax(axis=1)
        row = a[live, k]
        row = _mod(row * inv[row[:, c]][:, None], p)
        a[live, k] = a[live, top]
        a[sel] = _mod(a[sel] - a[sel, :, c, None] * row[:, None, :], p)  # top rows reset below
        a[live, top] = row
        pivot[live, c] = True
        r[live] += 1
        if r.min() >= rows:
            break
    return a, pivot


def _kernels(red: np.ndarray, piv: np.ndarray, p: int) -> np.ndarray:
    """The kernels of the slices of a reduced stack from _rref_stack, as a
    (B, cols, cols) stack: per free column f of a slice, its column f is the
    kernel vector with a 1 at f and 0 at the other free columns."""
    basis = np.zeros((red.shape[0], red.shape[2], red.shape[2]), dtype=_dtype(p))
    basis[piv] = _mod(-red[red.any(axis=2)], p)  # row c: minus the reduced row of pivot c
    s, f = np.nonzero(~piv)
    basis[s, f, f] = 1
    return basis


def _solve_stack(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Per slice of (B, rows, n) and (B, rows, m) stacks, the solution x of
    a x = b with its free variables 0, from one reduction of [a | b];
    raises ValueError when some slice has none."""
    n = a.shape[2]
    red, piv = _rref_stack(np.concatenate([a, b], axis=2), p)
    if piv[:, n:].any():
        raise ValueError("inconsistent linear system")
    x = np.zeros((a.shape[0], n, b.shape[2]), dtype=red.dtype)
    x[piv[:, :n]] = red[red.any(axis=2)][:, n:]  # row c: the reduced row of pivot c
    return x


class FpMatrix:
    """A dense matrix over F_p, the record the public API takes in and
    hands out: the prime p, the int64 array a with entries in [0, p), its
    shape, and equality.  Its products and reductions run _matmul and
    _rref_stack on the array as a stack of one; the package computes on
    GradedMaps and calls none of them."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        check_prime(p)
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("FpMatrix needs a 2-d array")
        self.p = p
        self.a = a % p

    @classmethod
    def _reduced(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """The matrix of a 2-d integer array already in [0, p), p a checked
        prime, kept as it is if int64."""
        m = cls.__new__(cls)
        m.p, m.a = p, a.astype(np.int64, copy=False)
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and np.array_equal(self.a, other.a)
        )

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"

    def __matmul__(self, other):
        if isinstance(other, FpMatrix):
            if self.p != other.p:
                raise ValueError("mixed moduli")
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return FpMatrix._reduced(self.p, _matmul(self.a, other.a, self.p))
        vec = np.asarray(other, dtype=np.int64) % self.p
        return _matmul(self.a, vec.reshape(-1, 1), self.p)[:, 0]

    def __pow__(self, n: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative powers unsupported")
        if n == 0:
            return FpMatrix._reduced(self.p, np.eye(self.rows, dtype=np.int64))
        return _power(self, n, FpMatrix.__matmul__)

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        red, piv = _rref_stack(self.a[None], self.p)
        return FpMatrix._reduced(self.p, red[0]), tuple(np.flatnonzero(piv[0]).tolist())

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "FpMatrix":
        """Basis of the right kernel, returned as the columns of a matrix.

        Free variables are enumerated in increasing column order; each basis
        vector has a 1 in its free slot, so the output is deterministic.
        """
        red, pivots = self.rref()
        piv = np.isin(np.arange(self.cols), pivots)
        return FpMatrix._reduced(self.p, _kernels(red.a[None], piv[None], self.p)[0][:, ~piv])

    def column_space_basis(self) -> "FpMatrix":
        """Pivot columns of the original matrix (greedy left-to-right)."""
        _, pivots = self.rref()
        return FpMatrix._reduced(self.p, self.a[:, list(pivots)])

    def solve(self, rhs: "FpMatrix") -> "FpMatrix":
        """A particular solution X of self @ X = rhs (free variables 0)."""
        if self.p != rhs.p:
            raise ValueError("mixed moduli")
        if rhs.rows != self.rows:
            raise ValueError("shape mismatch")
        return FpMatrix._reduced(self.p, _solve_stack(self.a[None], rhs.a[None], self.p)[0])


def generalized_eigenspace(m: FpMatrix, lam: int) -> FpMatrix:
    """Basis of ker (M - lam I)^dim, the generalized eigenspace at lam."""
    if m.rows != m.cols:
        raise ValueError("needs a square matrix")
    n = m.rows
    shifted = FpMatrix(m.p, m.a - (lam % m.p) * np.eye(n, dtype=np.int64))
    if shifted.rank() == n:  # lam is no eigenvalue: skip the power
        return FpMatrix._reduced(m.p, np.zeros((n, 0), dtype=np.int64))
    return (shifted ** n).kernel_basis()


# -- weight-graded maps --------------------------------------------------------


_CELL = 1 << 32  # a cell key is weight * _CELL + degree, for degrees in [0, _CELL)


class Grading:
    """The cells of a basis with an integer weight per vector and, if
    given, a degree per vector that every map on it keeps: its weight
    spaces, or its (weight, degree) spaces ordered by weight, then degree.

    weights and degrees (zeros when none are given) hold the weight and
    degree per vector, and cell_weights and cell_degrees those per cell, in
    cell order.  The rest is private to this module: keys holds per vector
    the key weight * 2^32 + degree of its cell, and values the distinct keys
    in increasing order; pos and slot give per vector the position of its
    cell and its place among the vectors of that cell.  Row k of index lists
    the vectors of cell values[k], padded with n to the widest cell; the
    extra last row is all padding and stands for a cell that does not occur.
    """

    def __init__(self, weights, degrees=None):
        self.weights = np.array(weights, dtype=np.int64).reshape(-1)
        self.degrees = (np.zeros_like(self.weights) if degrees is None
                        else np.array(degrees, dtype=np.int64).reshape(-1))
        if self.degrees.size and not 0 <= self.degrees.min() <= self.degrees.max() < _CELL:
            raise ValueError("degrees must lie in [0, 2^32)")
        self.keys = self.weights * _CELL + self.degrees
        self.values, self.pos = np.unique(self.keys, return_inverse=True)
        n, counts = self.weights.size, np.bincount(self.pos, minlength=self.values.size)
        order = np.argsort(self.pos, kind="stable")
        self.slot = np.empty(n, dtype=np.int64)
        self.slot[order] = np.arange(n) - (np.cumsum(counts) - counts)[self.pos[order]]
        self.sizes = np.append(counts, 0)
        self.index = np.full((counts.size + 1, counts.max(initial=0)), n, dtype=np.int64)
        self.index[self.pos, self.slot] = np.arange(n)
        self.cell_weights, self.cell_degrees = np.divmod(self.values, _CELL)

    @classmethod
    def of_keys(cls, keys) -> "Grading":
        """The grading of vectors with the given cell keys."""
        keys = np.asarray(keys, dtype=np.int64)
        return cls(keys // _CELL, keys % _CELL)

    def find(self, keys) -> np.ndarray:
        """Per given cell key, its index row; the padding row if it does not occur."""
        at = np.searchsorted(self.values, keys)
        return np.where(np.searchsorted(self.values, keys, side="right") > at, at, self.values.size)


def _gather(grading: Grading, array, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The index rows of the cells of grading where a vector (one column) or
    array mod p is nonzero, and its zero-padded rows there, stacked."""
    x = np.asarray(array, dtype=np.int64) % p
    if x.shape[0] != grading.weights.size:
        raise ValueError("shape mismatch")
    x = x[:, None] if x.ndim == 1 else x
    x = np.concatenate((x, np.zeros((1, x.shape[1]), dtype=np.int64)))  # the padding row
    live = np.flatnonzero(np.bincount(grading.pos[x[:-1].any(1)], minlength=grading.values.size))
    return live, x[grading.index[live]]


def _scatter(grading: Grading, at, blocks: np.ndarray, shape=()) -> np.ndarray:
    """Rows of grading (int64, each of shape): blocks[k] on the cell of index row at[k], else 0."""
    out = np.zeros((grading.weights.size + 1, *blocks.shape[2:]), dtype=np.int64)
    out[grading.index[at]] = blocks
    return out[:-1].reshape(grading.weights.size, *shape)


class GradedMap:
    """A map from the basis of the Grading source (grading, for an action)
    to that of grading that moves every weight by shift and keeps degrees;
    a column set has shift 0.

    stack, private to this module, holds at k the dense block from the
    source vectors of cell source.values[k] to the vectors of the cell of
    the same degree and shifted weight, in the order of the gradings' index
    rows and padded with zeros.  Entries lie in [0, p), in the narrowest
    integer dtype that holds p(p-1), where every sum, scalar multiple and
    difference stays exact.  Sums, products and powers act on the whole
    stack, an application on the nonzero cells of its input; entries(),
    column(), dense() and applications return int64.
    """

    def __init__(self, p: int, grading: Grading, shift: int, stack: np.ndarray,
                 source: Grading | None = None):
        self.p, self.grading, self.shift, self.stack = p, grading, shift, stack
        self.source = source or grading

    @classmethod
    def scatter(cls, p: int, grading: Grading, shift: int, rows, cols, vals,
                source: Grading | None = None) -> "GradedMap":
        """The map with entries vals at (rows, cols), repeated positions
        summed; raises ValueError when p is not prime or an entry joins two
        weights that do not differ by shift (or two degrees)."""
        check_prime(p)
        source = source or grading
        if not np.array_equal(grading.keys[rows], source.keys[cols] + shift * _CELL):
            raise ValueError(f"map does not move weights by {shift}")
        vals = np.asarray(vals, dtype=np.int64) % p  # so a position sums to <= (p-1) len(vals)
        dtype = np.min_scalar_type(-(p - 1) * vals.size)
        stack = np.zeros((source.values.size, grading.index.shape[1], source.index.shape[1]), dtype)
        at = (source.pos[cols], grading.slot[rows], source.slot[cols])
        np.add.at(stack, at, vals.astype(dtype))  # one dtype: np.add.at casting is slow
        return cls(p, grading, shift, _mod(stack, p).astype(_dtype(p)), source)

    @classmethod
    def identity(cls, p: int, grading: Grading) -> "GradedMap":
        """The identity map on the basis of grading."""
        n = np.arange(grading.weights.size)
        return cls.scatter(p, grading, 0, n, n, np.ones_like(n))

    @classmethod
    def cut(cls, mat: FpMatrix, grading: Grading, shift: int,
            source: Grading | None = None) -> "GradedMap":
        """The blocks of a dense map, read from its nonzero entries; raises
        ValueError when one joins two weights that do not differ by shift."""
        if mat.shape != (grading.weights.size, (source or grading).weights.size):
            raise ValueError("map does not match the grading")
        rows, cols = np.nonzero(mat.a)
        return cls.scatter(mat.p, grading, shift, rows, cols, mat.a[rows, cols], source)

    @property
    def shape(self) -> tuple[int, int]:
        return self.grading.weights.size, self.source.weights.size

    @cached_property
    def _targets(self) -> np.ndarray:
        """Per source cell, the index row in grading of its image cell."""
        return self.grading.find(self.source.values + self.shift * _CELL)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices, column indices and values of the nonzero entries."""
        k, i, j = np.nonzero(self.stack)
        return (self.grading.index[self._targets[k], i], self.source.index[k, j],
                self.stack[k, i, j].astype(np.int64))

    def dense(self) -> FpMatrix:
        out, (rows, cols, vals) = np.zeros(self.shape, dtype=np.int64), self.entries()
        out[rows, cols] = vals
        return FpMatrix._reduced(self.p, out)

    def column(self, j: int) -> np.ndarray:
        """Column j as a dense vector."""
        k = self.source.pos[j]
        return _scatter(self.grading, self._targets[[k]], self.stack[[k], :, self.source.slot[j]])

    def is_zero(self) -> bool:
        return not self.stack.any()

    def _with(self, other: "GradedMap", shift: int, stack: np.ndarray) -> "GradedMap":
        if (self.grading, self.source, self.p) != (other.grading, other.source, other.p):
            raise ValueError("maps on different spaces")
        return GradedMap(self.p, self.grading, shift, _mod(stack, self.p), self.source)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.shift != other.shift:
            raise ValueError("sum of maps of different weights")
        return self._with(other, self.shift, self.stack + other.stack)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + (self.p - 1) * other

    def __rmul__(self, scalar: int) -> "GradedMap":
        return self._with(self, self.shift, self.stack * (scalar % self.p))

    def __matmul__(self, other):
        """self after other for a GradedMap, else self applied to a vector or
        to the columns of an array."""
        g, s = self.grading, self.source
        if isinstance(other, GradedMap):
            if other.grading is not s or other.p != self.p:
                raise ValueError("maps on different spaces")
            zero = np.zeros((1, *self.stack.shape[1:]), self.stack.dtype)  # for a missing cell
            blocks = np.concatenate([self.stack, zero])[other._targets]
            stack = _matmul(blocks, other.stack, self.p, _dtype(self.p))
            return GradedMap(self.p, g, self.shift + other.shift, stack, other.source)
        live, cols = _gather(s, other, self.p)
        return _scatter(g, self._targets[live], _matmul(self.stack[live], cols, self.p),
                        np.shape(other)[1:])

    def __pow__(self, n: int) -> "GradedMap":
        if n < 1:
            raise ValueError("only positive powers are supported")
        return _power(self, n, GradedMap.__matmul__)


def column_set(p: int, grading: Grading, keys, stack: np.ndarray, mask) -> GradedMap:
    """The column set of the columns of stack[k] that mask[k] selects, on
    the vectors of the cell of key keys[k] in grading (stack rows in the
    order of its index row), in order."""
    k, j = np.nonzero(mask)
    source = Grading.of_keys(np.asarray(keys, dtype=np.int64)[k])
    out = np.zeros((source.values.size, grading.index.shape[1], source.index.shape[1]), _dtype(p))
    out[source.pos, :stack.shape[1], source.slot] = stack[k, :, j]
    return GradedMap(p, grading, 0, out, source)


def graded_columns(*sets: GradedMap) -> GradedMap:
    """The columns of column sets into one grading, side by side."""
    g = sets[0].grading
    if any(m.grading is not g or m.shift for m in sets):
        raise ValueError("column sets in different spaces")
    cols = np.concatenate([m.stack[m.source.pos, :, m.source.slot] for m in sets])[:, :, None]
    return column_set(sets[0].p, g, np.concatenate([m.source.keys for m in sets]), cols,
                      np.ones((len(cols), 1), dtype=bool))


def _joint_rref(maps, cells=slice(None)):
    """The source grading and the prime of maps from one grading, and the
    reduced stack of the selected cells, each the blocks of all maps at it."""
    g, p = maps[0].source, maps[0].p
    if any(m.source is not g or m.p != p for m in maps):
        raise ValueError("maps on different spaces")
    return g, p, *_rref_stack(np.concatenate([m.stack[cells] for m in maps], axis=1), p)


def _echelon(mat: GradedMap, use: str) -> tuple[np.ndarray, np.ndarray]:
    """The reduced stack and pivot mask of mat's blocks for its "kernel" or
    "image" (use): taken from mat if the other use left it there, else
    computed and left on mat for the other use; so one reduction serves one
    of each, and a map holds none once both are taken."""
    left = mat.__dict__.pop("_reduction", None)
    if left is not None and left[0] != use:
        return left[1]
    mat._reduction = use, _rref_stack(mat.stack, mat.p)
    return mat._reduction[1]


def graded_kernel(*maps: GradedMap) -> GradedMap:
    """Basis of the joint kernel of weight-graded maps from one grading, per
    cell from the blocks of all maps at that cell, stacked: a column set
    into that grading, in cell order.  The kernel of one map shares its
    reduction with graded_image (_echelon)."""
    g, p, red, piv = ((maps[0].source, maps[0].p, *_echelon(maps[0], "kernel")) if len(maps) == 1
                      else _joint_rref(maps))
    return column_set(p, g, g.values, _kernels(red, piv, p), ~piv & (g.index[:-1] < g.weights.size))


def cell_nullities(maps, cells=slice(None)) -> np.ndarray:
    """Per source cell of the maps (all from one grading), in cell order,
    the dimension of their joint kernel on that cell: the nullity of the
    blocks of all maps at the cell, stacked, from one reduction.  cells, a
    boolean mask over the cells, selects the cells reduced."""
    g, _, _, piv = _joint_rref(maps, cells)
    return g.sizes[:-1][cells] - piv.sum(axis=1)


def graded_image(mat: GradedMap) -> GradedMap:
    """Greedy pivot columns of a weight-graded map, as a column set, from
    the reduction it shares with graded_kernel (_echelon)."""
    piv = _echelon(mat, "image")[1]
    return column_set(mat.p, mat.grading, mat.source.values + mat.shift * _CELL, mat.stack, piv)


def graded_complement(cols: GradedMap, n: int) -> list[int]:
    """Positions, less n, of the columns of the column set cols after its
    first n that are independent modulo those n and the earlier columns of
    their cell, in cell order."""
    picked = cols.source.index[np.nonzero(_rref_stack(cols.stack, cols.p)[1])]
    return (picked[picked >= n] - n).tolist()


def graded_solve(mat: GradedMap, rhs):
    """The solution X of mat @ X = rhs that FpMatrix.solve gives on the dense
    matrices, found cell by cell in one stacked solve.  For an array rhs (a
    vector or columns) X is an array; for a GradedMap rhs into mat's
    grading it is the GradedMap from rhs's source to mat's, and for a list
    of GradedMaps from one source the list of their solutions, from one
    stacked solve of all their cells."""
    p, s, g = mat.p, mat.source, mat.grading
    maps = [rhs] if isinstance(rhs, GradedMap) else None
    if isinstance(rhs, list) and rhs and isinstance(rhs[0], GradedMap):
        maps = rhs
    if maps:
        if any(m.grading is not g or m.source is not maps[0].source or m.p != p for m in maps):
            raise ValueError("maps on different spaces")
        keys = np.concatenate([m.source.values + m.shift * _CELL for m in maps])  # per rhs cell
        b = np.concatenate([m.stack for m in maps])
    else:  # a cell of zero right-hand sides solves to zero
        live, b = _gather(g, rhs, p)
        keys = g.values[live]
    at = s.find(keys - mat.shift * _CELL)  # per cell of b its source cell, or a zero block
    x = _solve_stack(np.pad(mat.stack, ((0, 1), (0, 0), (0, 0)))[at], b, p)
    if not maps:
        return _scatter(s, at, x, np.shape(rhs)[1:])
    out = [GradedMap(p, s, m.shift - mat.shift, part, m.source)
           for m, part in zip(maps, np.split(x, len(maps)))]
    return out if maps is rhs else out[0]


def frobenius_power(mat: GradedMap) -> GradedMap:
    """S = mat^q for a weight-preserving map, q the least power of p that is
    at least the widest cell.

    On a cell mat is D + N, D semisimple and N nilpotent, commuting, so
    S = D^q + N^q = D^q: N^q = 0, and D^q keeps each eigenvalue of D that
    lies in F_p and sends the others to conjugates outside F_p.  So per cell
    ker(S - lam) is the generalized lam-eigenspace of mat for every lam in
    F_p, whether or not the characteristic polynomial splits; it splits
    exactly when S^p = S, and then S = D and 1 - S^(p-1) projects onto the
    generalized 0-eigenspace along the others.
    """
    if mat.shift or mat.source is not mat.grading:
        raise ValueError("needs a weight-preserving map")
    q = mat.p
    while q < mat.grading.index.shape[1]:
        q *= mat.p
    return mat ** q


def graded_eigenspaces(mat: GradedMap, values=None) -> dict[int, GradedMap]:
    """Generalized eigenspaces of a weight-preserving GradedMap at the given
    eigenvalues (all of F_p by default), the nonzero ones by increasing
    eigenvalue: each the column set graded_kernel gives of S - lam for the
    Frobenius power S, one eigenvalue at a time.  Per weight its columns
    are those generalized_eigenspace gives on that weight's block.  The
    dimensions add up to the size of mat exactly when its characteristic
    polynomial splits with every root among the values.
    """
    s, one = frobenius_power(mat), GradedMap.identity(mat.p, mat.grading)
    spaces = {lam: graded_kernel(s - lam * one)
              for lam in sorted(set(range(mat.p) if values is None else values))}
    return {lam: cols for lam, cols in spaces.items() if cols.shape[1]}


def graded_projector(mat: GradedMap) -> GradedMap:
    """Projection onto the generalized 0-eigenspace of a weight-preserving
    map along its other generalized eigenspaces: 1 - S^(p-1) for its
    Frobenius power S.  Raises ValueError unless S^p = S, that is unless
    the characteristic polynomial splits and the eigenspaces span."""
    s = frobenius_power(mat)
    t = s ** (s.p - 1)
    if not (t @ s - s).is_zero():
        raise ValueError("characteristic polynomial does not split")
    return GradedMap.identity(mat.p, mat.grading) - t
