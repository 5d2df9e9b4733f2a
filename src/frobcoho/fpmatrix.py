"""Exact linear algebra over the prime field F_p, dense and weight-graded.

Everything downstream (Lie algebra actions, cohomology of periodic
complexes, Hom spaces) reduces to rank/kernel/solve computations over
F_p with p a small prime.  Matrices are stored as int64 numpy arrays
with entries in [0, p).  Products are routed through float64 so that
numpy can use BLAS; this is exact while every product entry before
reduction, at most (p-1)^2 times the inner dimension, stays below 2^53,
and _matmul raises where that bound fails.

Row reduction uses the first nonzero entry as pivot, so echelon forms,
kernel bases and particular solutions are reproducible across runs.

FpMatrix is the dense primitive.  Every action matrix maps weight w to
w + wt(x); a GradedMap stores it as that shift and one dense block per
source weight, cut once on a Grading of the basis, and runs sums,
products, powers and application to vectors on all its blocks at once.
The graded_* functions run the dense primitive per weight block: on the
blocks of GradedMaps, or on the columns of one weight against the rows
of that weight in the Grading; greedy pivots, kernels and
free-variables-zero solutions then equal the dense ones up to column
order.  The eigenspaces and the 0-eigenspace projector of a
weight-preserving map are found on the finer connected components of
its own support (support_parts), all components of one size in one
stacked row reduction (_rref_stack); _rref stays the reduction for
single matrices, on which the stacked one is slower.
"""

from __future__ import annotations

import numpy as np

_PRIMES = frozenset({2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37})


def is_prime(p: int) -> bool:
    if p in _PRIMES:
        return True
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, for matrices or for stacks of them with entries in [0, p)."""
    inner = a.shape[-1]
    if (p - 1) ** 2 * inner >= 2 ** 53:
        raise ValueError(f"a product over F_{p} with inner dimension {inner} "
                         "is not exact in float64")
    if inner == 0:
        return np.zeros((*a.shape[:-1], b.shape[-1]), dtype=np.int64)
    c = a.astype(np.float64) @ b.astype(np.float64)
    return np.fmod(c, p).astype(np.int64)  # c >= 0, where fmod is mod and much faster


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


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting."""
    a = mat.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """_rref of every slice of a (B, rows, cols) stack in one pass over the
    columns: the reduced forms, and per slice a mask of its pivot columns.

    Each slice gets the reduced form and pivots _rref gives it (the reduced
    echelon form is unique).  The per-column numpy calls act on the whole
    stack, so this pays off for many small matrices; _rref stays faster on
    a single one."""
    a = a.copy()
    count, rows, cols = a.shape
    pivot = np.zeros((count, cols), dtype=bool)
    inv = np.array([0, *(pow(x, p - 2, p) for x in range(1, p))], dtype=np.int64)
    r = np.zeros(count, dtype=np.int64)  # next pivot row, per slice
    below = np.arange(rows)
    for c in range(cols):
        nz = (a[:, :, c] != 0) & (below >= r[:, None])
        has = nz.any(axis=1)
        if not has.any():
            continue
        live = np.flatnonzero(has)
        sel = slice(None) if live.size == count else live
        top, k = r[live], nz[live].argmax(axis=1)
        row = a[live, k]
        a[live, k] = a[live, top]
        row = row * inv[row[:, c]][:, None] % p
        a[live, top] = row
        col = a[sel, :, c].copy()
        col[np.arange(live.size), top] = 0
        a[sel] = (a[sel] - col[:, :, None] * row[:, None, :]) % p
        pivot[live, c] = True
        r[live] += 1
        if r.min() >= rows:
            break
    return a, pivot


class FpMatrix:
    """Dense matrix over F_p with exact rank/kernel/solve primitives."""

    __slots__ = ("p", "a", "_rref_cache")

    def __init__(self, p: int, data):
        _check_prime(p)
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("FpMatrix needs a 2-d array")
        self.p = p
        self.a = a % p
        self._rref_cache = None

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def T(self) -> "FpMatrix":
        return FpMatrix(self.p, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"

    def _same_field(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_field(other)
        return FpMatrix(self.p, self.a + other.a)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_field(other)
        return FpMatrix(self.p, self.a - other.a)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.a)

    def __rmul__(self, scalar: int) -> "FpMatrix":
        return FpMatrix(self.p, self.a * (scalar % self.p))

    def __matmul__(self, other):
        if isinstance(other, FpMatrix):
            self._same_field(other)
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return FpMatrix(self.p, _matmul(self.a, other.a, self.p))
        vec = np.asarray(other, dtype=np.int64) % self.p
        return _matmul(self.a, vec.reshape(-1, 1), self.p)[:, 0]

    def __pow__(self, n: int) -> "FpMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative powers unsupported")
        if n == 0:
            return FpMatrix.identity(self.p, self.rows)
        return _power(self, n, FpMatrix.__matmul__)

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        if self._rref_cache is None:
            r, piv = _rref(self.a, self.p)
            self._rref_cache = (FpMatrix(self.p, r), piv)
        return self._rref_cache

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "FpMatrix":
        """Basis of the right kernel, returned as the columns of a matrix.

        Free variables are enumerated in increasing column order; each basis
        vector has a 1 in its free slot, so the output is deterministic.
        """
        r, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        basis = np.zeros((self.cols, len(free)), dtype=np.int64)
        basis[free, range(len(free))] = 1
        basis[list(pivots)] = -r.a[:len(pivots), free] % self.p
        return FpMatrix(self.p, basis)

    def column_space_basis(self) -> "FpMatrix":
        """Pivot columns of the original matrix (greedy left-to-right)."""
        _, pivots = self.rref()
        return FpMatrix(self.p, self.a[:, list(pivots)])

    def solve(self, rhs: "FpMatrix") -> "FpMatrix":
        """A particular solution X of self @ X = rhs (free variables 0)."""
        self._same_field(rhs)
        if rhs.rows != self.rows:
            raise ValueError("shape mismatch")
        aug = np.concatenate([self.a, rhs.a], axis=1)
        red, pivots = _rref(aug, self.p)
        if any(c >= self.cols for c in pivots):
            raise ValueError("inconsistent linear system")
        x = np.zeros((self.cols, rhs.cols), dtype=np.int64)
        x[list(pivots)] = red[:len(pivots), self.cols:]
        return FpMatrix(self.p, x)


def subquotient_dim(kernel_of: FpMatrix, image_of: FpMatrix) -> int:
    """dim(ker A / im B) for composable A, B with A @ B = 0 (checked)."""
    if kernel_of.cols != image_of.rows:
        raise ValueError("shape mismatch")
    if not (kernel_of @ image_of).is_zero():
        raise ValueError("A @ B != 0: not a subquotient")
    return (kernel_of.cols - kernel_of.rank()) - image_of.rank()


def generalized_eigenspace(m: FpMatrix, lam: int) -> FpMatrix:
    """Basis of ker (M - lam I)^dim, the generalized eigenspace at lam."""
    if m.rows != m.cols:
        raise ValueError("needs a square matrix")
    n = m.rows
    shifted = m - (lam % m.p) * FpMatrix.identity(m.p, n)
    if shifted.rank() == n:  # lam is no eigenvalue: skip the power
        return FpMatrix.zeros(m.p, n, 0)
    return (shifted ** n).kernel_basis()


# -- weight-graded maps --------------------------------------------------------


class Grading:
    """The weight spaces of a basis with an integer weight per vector.

    values are the distinct weights in increasing order, and pos and slot
    give per vector the position of its weight and its place among the
    vectors of that weight.  Row k of index lists the vectors of weight
    values[k], padded with n to the widest weight space; the extra last row
    is all padding and stands for a weight that does not occur.
    """

    def __init__(self, weights):
        self.weights = np.array(weights, dtype=np.int64).reshape(-1)
        values, self.pos = np.unique(self.weights, return_inverse=True)
        self.values = values.tolist()
        n, counts = self.weights.size, np.bincount(self.pos, minlength=len(self.values))
        order = np.argsort(self.pos, kind="stable")
        self.slot = np.empty(n, dtype=np.int64)
        self.slot[order] = np.arange(n) - (np.cumsum(counts) - counts)[self.pos[order]]
        self.sizes = np.append(counts, 0)
        self.index = np.full((counts.size + 1, counts.max(initial=0)), n, dtype=np.int64)
        self.index[self.pos, self.slot] = np.arange(n)

    def find(self, weights) -> np.ndarray:
        """Per given weight, its index row; the padding row if it does not occur."""
        values, w = np.array(self.values, dtype=np.int64), np.asarray(weights, dtype=np.int64)
        t = np.searchsorted(values, w)
        return np.where(values[np.minimum(t, values.size - 1)] == w, t, values.size)

    def target(self, shift: int) -> np.ndarray:
        """Per weight position, the index row of that weight plus shift."""
        return self.find(np.array(self.values, dtype=np.int64) + shift)


class GradedMap:
    """A map on the basis of a Grading that moves every weight by shift.

    stack[k] is the dense block from the vectors of weight values[k] to those
    of weight values[k] + shift, in the order of the grading's index rows and
    padded with zeros.  Entries lie in [0, p).  Sums, products, powers and
    application to vectors or column sets act on the whole stack at once.
    """

    def __init__(self, p: int, grading: Grading, shift: int, stack: np.ndarray):
        self.p, self.grading, self.shift, self.stack = p, grading, shift, stack

    @classmethod
    def cut(cls, mat: FpMatrix, grading: Grading, shift: int) -> "GradedMap":
        """The blocks of a dense map; raises ValueError when an entry of mat
        joins two weights that do not differ by shift."""
        if mat.shape != (grading.weights.size,) * 2:
            raise ValueError("map does not match the grading")
        rows = grading.index[grading.target(shift)]
        stack = np.pad(mat.a, (0, 1))[rows[:, :, None], grading.index[:-1, None, :]]
        if np.count_nonzero(stack) != np.count_nonzero(mat.a):
            raise ValueError(f"map does not move weights by {shift}")
        return cls(mat.p, grading, shift, stack)

    @property
    def shape(self) -> tuple[int, int]:
        return self.grading.weights.size, self.grading.weights.size

    def dense(self) -> FpMatrix:
        g, n = self.grading, self.shape[0]
        out = np.zeros((n + 1, n + 1), dtype=np.int64)
        out[g.index[g.target(self.shift)][:, :, None], g.index[:-1, None, :]] = self.stack
        return FpMatrix(self.p, out[:n, :n])

    def blocks(self):
        """(weight, column indices, row indices, unpadded block) per source
        weight, by increasing weight."""
        g = self.grading
        for k, t in enumerate(g.target(self.shift).tolist()):
            rows, cols = g.index[t, :g.sizes[t]], g.index[k, :g.sizes[k]]
            yield g.values[k], cols, rows, FpMatrix(self.p, self.stack[k, :rows.size, :cols.size])

    def is_zero(self) -> bool:
        return not self.stack.any()

    def _with(self, other: "GradedMap", shift: int, stack: np.ndarray) -> "GradedMap":
        if self.grading is not other.grading or self.p != other.p:
            raise ValueError("maps on different spaces")
        return GradedMap(self.p, self.grading, shift, stack % self.p)

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
        g = self.grading
        if isinstance(other, GradedMap):
            t = g.target(other.shift)
            live = t < len(g.values)
            stack = np.zeros_like(other.stack)
            stack[live] = _matmul(self.stack[t[live]], other.stack[live], self.p)
            return self._with(other, self.shift + other.shift, stack)
        x = np.asarray(other, dtype=np.int64) % self.p
        if x.shape[0] != self.shape[1]:
            raise ValueError("shape mismatch")
        cols = np.pad(x[:, None] if x.ndim == 1 else x, ((0, 1), (0, 0)))
        out = np.zeros_like(cols)
        out[g.index[g.target(self.shift)]] = _matmul(self.stack, cols[g.index[:-1]], self.p)
        return out[:-1].reshape(x.shape)

    def __pow__(self, n: int) -> "GradedMap":
        if n < 1:
            raise ValueError("only positive powers are supported")
        return _power(self, n, GradedMap.__matmul__)


def _embed(n: int, p: int, pieces) -> FpMatrix:
    """Side by side, the columns of each (indices, block) piece placed at
    those indices of length-n vectors."""
    out = np.zeros((n, sum(b.shape[1] for _, b in pieces)), dtype=np.int64)
    k = 0
    for idx, b in pieces:
        out[idx, k:k + b.shape[1]] = b
        k += b.shape[1]
    return FpMatrix(p, out)


def graded_kernel(*maps: GradedMap) -> tuple[FpMatrix, list[int]]:
    """Basis of the joint kernel of weight-graded maps on one grading, per
    weight from the blocks of all maps at that weight, stacked.  Returns
    (weight-homogeneous basis columns, weight per column)."""
    g, p = maps[0].grading, maps[0].p
    if any(m.grading is not g or m.p != p for m in maps):
        raise ValueError("maps on different spaces")
    pieces, weights = [], []
    for parts in zip(*(m.blocks() for m in maps)):
        w, cols, _, _ = parts[0]
        kb = FpMatrix(p, np.concatenate([block.a for *_, block in parts])).kernel_basis()
        pieces.append((cols, kb.a))
        weights += [w] * kb.cols
    return _embed(g.weights.size, p, pieces), weights


def graded_image(mat: GradedMap) -> tuple[FpMatrix, list[int]]:
    """Greedy pivot columns of a weight-graded map, with the weight each
    one lands in."""
    pieces, out_weights = [], []
    for w, _, rows, block in mat.blocks():
        piv = list(block.rref()[1])
        if piv:
            pieces.append((rows, block.a[:, piv]))
            out_weights += [w + mat.shift] * len(piv)
    return _embed(mat.shape[0], mat.p, pieces), out_weights


def _column_blocks(grading: Grading, mat: FpMatrix, col_weights):
    """Per column weight by increasing weight: (column indices, row
    indices, block), the rows being the vectors of that weight in grading.
    Raises ValueError when a column has an entry outside those rows."""
    if mat.shape != (grading.weights.size, len(col_weights)):
        raise ValueError("weights do not match the matrix")
    cg = Grading(col_weights)
    out = []
    for k, t in enumerate(grading.find(cg.values).tolist()):
        cols, rows = cg.index[k, :cg.sizes[k]], grading.index[t, :grading.sizes[t]]
        out.append((cols, rows, FpMatrix(mat.p, mat.a[np.ix_(rows, cols)])))
    if sum(np.count_nonzero(b.a) for *_, b in out) != np.count_nonzero(mat.a):
        raise ValueError("a column has entries outside the rows of its weight")
    return out


def graded_complement(grading: Grading, span: FpMatrix, span_weights, vecs: FpMatrix,
                      vec_weights) -> list[int]:
    """Positions of the weight-homogeneous columns of vecs that are
    independent modulo span and the earlier columns of their weight, by
    increasing weight."""
    both = FpMatrix(vecs.p, np.concatenate([span.a, vecs.a], axis=1))
    picked = []
    for cols, _, block in _column_blocks(grading, both, [*span_weights, *vec_weights]):
        picked += [int(c) - span.cols for c in cols[list(block.rref()[1])]
                   if c >= span.cols]
    return picked


def graded_solve(grading: Grading, mat: FpMatrix, col_weights, rhs: FpMatrix) -> FpMatrix:
    """The solution X of mat @ X = rhs that FpMatrix.solve returns, found
    block by block on weight-homogeneous columns."""
    mat._same_field(rhs)
    if rhs.rows != mat.rows:
        raise ValueError("shape mismatch")
    x = np.zeros((mat.cols, rhs.cols), dtype=np.int64)
    reached = np.zeros(mat.rows, dtype=bool)
    for cols, rows, block in _column_blocks(grading, mat, col_weights):
        x[cols] = block.solve(FpMatrix(mat.p, rhs.a[rows])).a
        reached[rows] = True
    if rhs.a[~reached].any():
        raise ValueError("inconsistent linear system")
    return FpMatrix(mat.p, x)


def support_parts(mat: GradedMap) -> list[np.ndarray]:
    """The connected components of the support of a weight-preserving map,
    each inside one weight: the finest partition of the basis that no entry
    joins across, each part increasing, ordered by first index."""
    if mat.shift:
        raise ValueError("needs a weight-preserving map")
    k, i, j = np.nonzero(mat.stack)
    rows, cols = mat.grading.index[k, i], mat.grading.index[k, j]
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


def _eigenvectors(mat: GradedMap):
    """The generalized eigenvectors of a weight-preserving map, found on the
    components of its support (support_parts), each inside one weight.

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
        basis = np.zeros_like(red)  # column f of basis[s]: the kernel vector with a 1 at f
        s, c = np.nonzero(piv)
        basis[s, c] = -red[s, np.cumsum(piv, axis=1)[s, c] - 1] % p
        s, f = np.nonzero(~piv)
        basis[s, f, f] = 1
        yield idx, singular[s] // p, singular[s] % p, f, basis[s, :, f]


def graded_eigenspaces(mat: GradedMap) -> dict[int, tuple[FpMatrix, list[int]]]:
    """Generalized eigenspaces of a weight-preserving GradedMap.

    Maps each eigenvalue in F_p to (basis columns, weight per column), the
    columns weight-homogeneous, ordered by weight and then by the index of
    the free slot that carries their 1; per weight they are the columns
    generalized_eigenspace gives on that weight's block, whose eigenspaces
    split over the components of the map's support.  The dimensions add up
    to the size of mat exactly when its characteristic polynomial splits.
    """
    n = mat.shape[0]
    keys = [np.zeros((2, 0), dtype=np.int64)]  # per vector: eigenvalue, free index
    vecs = [np.zeros((n, 0), dtype=np.int64)]
    for idx, block, lam, f, entries in _eigenvectors(mat):
        keys.append(np.stack([lam, idx[block, f]]))
        vecs.append(np.zeros((n, lam.size), dtype=np.int64))
        vecs[-1][idx[block], np.arange(lam.size)[:, None]] = entries
    lam, free = np.concatenate(keys, axis=1)
    order = np.lexsort((free, mat.grading.weights[free], lam))
    out = np.concatenate(vecs, axis=1)[:, order]
    lams, starts = np.unique(lam[order], return_index=True)
    col_weights = mat.grading.weights[free[order]].tolist()
    ends = [*starts[1:].tolist(), order.size]
    return {lam_: (FpMatrix(mat.p, out[:, a:b]), col_weights[a:b])
            for lam_, a, b in zip(lams.tolist(), starts.tolist(), ends)}


def graded_projector(mat: GradedMap) -> GradedMap:
    """Projection onto the generalized 0-eigenspace of a weight-preserving
    map along its other generalized eigenspaces, which must span the space.

    On each component of the map's support it is B0 B^-1, for an eigenbasis
    B of the component and B0 its eigenvalue-0 columns with the rest zeroed;
    the inverses come from one stacked reduction of [B | I] per size.
    """
    p, g = mat.p, mat.grading
    stack = np.zeros_like(mat.stack)
    for idx, block, lam, _, entries in _eigenvectors(mat):
        if lam.size != idx.size:  # a component has no eigenbasis
            raise ValueError("characteristic polynomial does not split")
        k, order = idx.shape[1], np.lexsort((lam, block))
        b = entries[order].reshape(-1, k, k).transpose(0, 2, 1)
        eye = np.broadcast_to(np.eye(k, dtype=np.int64), b.shape)
        inv = _rref_stack(np.concatenate([b, eye], axis=2), p)[0][:, :, k:]
        zero = (lam[order] == 0).reshape(-1, 1, k)
        slot = g.slot[idx]
        stack[g.pos[idx[:, :1, None]], slot[:, :, None], slot[:, None, :]] = _matmul(
            b * zero, inv, p)
    return GradedMap(p, g, 0, stack)
