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

FpMatrix is the dense primitive.  The graded_* functions take a
weight-graded map, whose columns of one weight reach rows that no column
of another weight reaches, as every action matrix does (it maps weight w
to w + wt(x)).  _split, the one place that cuts a map by weight, raises
on any other map; the dense primitive then runs per weight block, and
greedy pivots, kernels and free-variables-zero solutions equal the dense
ones up to column order.  graded_eigenspaces instead stacks the weight
blocks of one size and row-reduces the whole stack at once (_rref_stack),
since a split map has many tiny blocks; _rref stays the reduction for
single matrices, on which the stacked one is slower.

Action matrices are also block-diagonal up to a permutation: the parts
(support_parts) are the connected components of their joint support, and
by_parts runs a product, power or matrix-vector map part by part and
scatters the blocks back, off which every such result is zero.
"""

from __future__ import annotations

from operator import matmul

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
    """a @ b mod p, for matrices or for stacks of them."""
    inner = a.shape[-1]
    if (p - 1) ** 2 * inner >= 2 ** 53:
        raise ValueError(f"a product over F_{p} with inner dimension {inner} "
                         "is not exact in float64")
    if inner == 0:
        return np.zeros((*a.shape[:-1], b.shape[-1]), dtype=np.int64)
    c = a.astype(np.float64) @ b.astype(np.float64)
    return (c % p).astype(np.int64)


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
        return _power(self, n, matmul)

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


def independent_columns(mat: FpMatrix) -> tuple[int, ...]:
    """Indices of a maximal independent column set, chosen left to right."""
    return mat.rref()[1]


# -- weight-graded maps --------------------------------------------------------


def _weight_labels(weights) -> tuple[list[int], np.ndarray]:
    """The distinct weights in increasing order, and per index the position
    of its weight among them."""
    values, labels = np.unique(np.asarray(weights, dtype=np.int64), return_inverse=True)
    return values.tolist(), labels


def _groups(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """Per label 0..k-1, the increasing indices that carry it."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=k)[:k]).tolist()
    return [order[a:b] for a, b in zip([0, *ends], ends)]


def _split(mat: FpMatrix, col_weights):
    """The per-weight blocks of a weight-graded map, by increasing weight.

    Yields (weight, column indices, row indices, block), where the block is
    the dense map from the columns of that weight to the rows they reach.
    """
    if mat.cols != len(col_weights):
        raise ValueError("weight list does not match column count")
    values, labels = _weight_labels(col_weights)
    k = len(values)
    nonzero = mat.a != 0
    low = np.where(nonzero, labels, k).min(axis=1, initial=k)
    high = np.where(nonzero, labels, -1).max(axis=1, initial=-1)
    reached = low < k
    if np.any(low[reached] != high[reached]):
        raise ValueError("map is not weight-graded")
    for w, cols, rows in zip(values, _groups(labels, k), _groups(low, k)):
        yield w, cols, rows, FpMatrix(mat.p, mat.a[rows][:, cols])


def _embed(n: int, p: int, pieces) -> FpMatrix:
    """Side by side, the columns of each (indices, block) piece placed at
    those indices of length-n vectors."""
    out = np.zeros((n, sum(b.shape[1] for _, b in pieces)), dtype=np.int64)
    k = 0
    for idx, b in pieces:
        out[idx, k:k + b.shape[1]] = b
        k += b.shape[1]
    return FpMatrix(p, out)


def graded_kernel(mat: FpMatrix, col_weights) -> tuple[FpMatrix, list[int]]:
    """Kernel basis of a weight-graded map, one block per column weight.

    Each basis vector is weight-homogeneous.  Returns (basis columns,
    weight per column).
    """
    pieces, weights = [], []
    for w, cols, _, block in _split(mat, col_weights):
        kb = block.kernel_basis()
        pieces.append((cols, kb.a))
        weights += [w] * kb.cols
    return _embed(mat.cols, mat.p, pieces), weights


def graded_image(mat: FpMatrix, weights) -> tuple[FpMatrix, list[int]]:
    """Greedy pivot columns of a weight-graded endomorphism (rows and
    columns carry the same weights), with the weight each one lands in."""
    picked, out_weights = [], []
    for _, cols, rows, block in _split(mat, weights):
        piv = cols[list(independent_columns(block))].tolist()
        if piv:
            picked += piv
            out_weights += [weights[rows[0]]] * len(piv)
    return FpMatrix(mat.p, mat.a[:, picked]), out_weights


def graded_complement(span: FpMatrix, span_weights, vecs: FpMatrix,
                      vec_weights) -> list[int]:
    """Positions of the weight-homogeneous columns of vecs that are
    independent modulo span and the earlier columns of their weight, by
    increasing weight."""
    both = FpMatrix(vecs.p, np.concatenate([span.a, vecs.a], axis=1))
    picked = []
    for _, cols, _, block in _split(both, [*span_weights, *vec_weights]):
        picked += [int(c) - span.cols for c in cols[list(independent_columns(block))]
                   if c >= span.cols]
    return picked


def graded_solve(mat: FpMatrix, col_weights, rhs: FpMatrix) -> FpMatrix:
    """The solution X of mat @ X = rhs that FpMatrix.solve returns, found
    block by block on a weight-graded map."""
    mat._same_field(rhs)
    if rhs.rows != mat.rows:
        raise ValueError("shape mismatch")
    x = np.zeros((mat.cols, rhs.cols), dtype=np.int64)
    reached = np.zeros(mat.rows, dtype=bool)
    for _, cols, rows, block in _split(mat, col_weights):
        x[cols] = block.solve(FpMatrix(mat.p, rhs.a[rows])).a
        reached[rows] = True
    if rhs.a[~reached].any():
        raise ValueError("inconsistent linear system")
    return FpMatrix(mat.p, x)


def graded_eigenspaces(mat: FpMatrix, weights) -> dict[int, tuple[FpMatrix, list[int]]]:
    """Generalized eigenspaces of a weight-preserving endomorphism.

    Maps each eigenvalue in F_p to (basis columns, weight per column), the
    columns weight-homogeneous and in increasing weight; per weight they are
    the columns generalized_eigenspace gives on that weight's block.  The
    dimensions add up to the size of mat exactly when its characteristic
    polynomial splits.

    The blocks of one size k are done together: one stacked reduction ranks
    every shift block - lam I, and one more reads the kernels of the k-th
    powers of the singular ones (k is at least the index).
    """
    p = mat.p
    values, labels = _weight_labels(weights)
    groups = _groups(labels, len(values))
    sizes = np.array([idx.size for idx in groups], dtype=np.int64)
    keys, vecs = [], []  # per kernel vector: (lam, weight position, free slot), entries
    for k in sorted(set(sizes.tolist())):
        pos = np.flatnonzero(sizes == k)
        idx = np.array([groups[j] for j in pos])
        blocks = mat.a[idx[:, :, None], idx[:, None, :]]
        eye = np.eye(k, dtype=np.int64)
        shifted = (blocks[:, None] - np.arange(p)[:, None, None] * eye) % p
        shifted = shifted.reshape(-1, k, k)  # block j, lam at slice j * p + lam
        singular = np.flatnonzero(_rref_stack(shifted, p)[1].sum(axis=1) < k)
        if not singular.size:
            continue
        power = _power(shifted[singular], k, lambda x, y: _matmul(x, y, p))
        red, piv = _rref_stack(power, p)
        # column f of basis[s] is the kernel vector with a 1 at free slot f
        basis = np.zeros_like(red)
        s, c = np.nonzero(piv)
        basis[s, c] = -red[s, np.cumsum(piv, axis=1)[s, c] - 1] % p
        s, f = np.nonzero(~piv)
        basis[s, f, f] = 1
        block = singular[s] // p
        keys.append(np.stack([singular[s] % p, pos[block], f]))
        vecs.append((idx[block], basis[s, :, f]))
    if not keys:
        return {}
    lam, wpos, free = np.concatenate(keys, axis=1)
    order = np.lexsort((free, wpos, lam))
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    out = np.zeros((mat.rows, order.size), dtype=np.int64)
    done = 0
    for rows, entries in vecs:
        out[rows, place[done:done + len(rows), None]] = entries
        done += len(rows)
    lams, starts = np.unique(lam[order], return_index=True)
    col_weights = np.asarray(values)[wpos[order]].tolist()
    ends = [*starts[1:].tolist(), order.size]
    return {lam_: (FpMatrix(p, out[:, a:b]), col_weights[a:b])
            for lam_, a, b in zip(lams.tolist(), starts.tolist(), ends)}


# -- block-diagonal maps -------------------------------------------------------


def support_parts(n: int, mats) -> list[np.ndarray]:
    """The finest partition of range(n) that no entry of the n x n matrices
    mats joins across: the connected components of their joint support,
    each increasing, ordered by first index."""
    rows, cols = np.nonzero(sum((m.a != 0 for m in mats), np.zeros((n, n), dtype=bool)))
    label = np.arange(n)
    while True:  # every index takes the least label it reaches
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def by_parts(parts, fn, *args):
    """fn run part by part, for square FpMatrix args that no entry joins
    across parts (support_parts), and the results scattered back.

    fn gets the part x part block of each FpMatrix and the rows at the part
    of every other (array) arg.  FpMatrix results fill the diagonal blocks
    of an n x n FpMatrix, array results the rows of an array; the rest is
    zero.  With one part fn runs on the args themselves."""
    if len(parts) == 1:
        return fn(*args)
    n = sum(idx.size for idx in parts)
    out = None
    for idx in parts:
        res = fn(*(FpMatrix(a.p, a.a[np.ix_(idx, idx)]) if isinstance(a, FpMatrix)
                   else np.asarray(a)[idx] for a in args))
        square = isinstance(res, FpMatrix)
        if out is None:
            out = np.zeros((n, n) if square else (n, *res.shape[1:]), dtype=np.int64)
        out[np.ix_(idx, idx) if square else idx] = res.a if square else res
    return FpMatrix(res.p, out) if square else out
