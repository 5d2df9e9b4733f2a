"""Cohomology of the height-one kernels U_1, B_1 and (through induction)
G_1, computed exactly with full torus-weight bookkeeping.

H^*(U_1, M) is the cohomology of the 2-periodic complex

    M --f--> M --f^(p-1)--> M --f--> M --> ...

coming from the minimal resolution of k over k[f]/f^p, with the n-th
cochain term twisted by tw(2i) = 2pi, tw(2i+1) = 2pi + 2 so that every
differential is weight-zero.  Taking the weights divisible by p
(T_1-invariants) gives H^*(B_1, M).  The Lie-algebra cohomology of the
one-dimensional u is the two-step kernel/cokernel of the f-action with
the cokernel shifted by the root; it feeds the two-line E_2 page

    E_2^{2i,j} = S^i(u*)^(1) (x) H^j(u, M)^(T_1),  j in {0, 1}.

Cocycle and coboundary bases are column sets: GradedMaps from the
weights of their columns into the module, one block per weight, so no
dense n x k basis is built; a representative is made dense one column
at a time.

Cup products are computed by lifting a diagonal approximation of the
periodic resolution: the chain map P -> P (x) P is solved degree by
degree as an exact linear system (deterministic pivoting), and the
product of cocycles is evaluated through it and the coefficient
algebra's multiplication.  G_1-level characters come from the Borel
route: untwist the B_1 answer and apply the weight-wise induction Euler
characteristic, flagging exactness via the dominance bound (all
weights >= -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .characters import LaurentCharacter, euler_induction
from .fpmatrix import (
    FpMatrix,
    GradedMap,
    column_set,
    graded_columns,
    graded_complement,
    graded_image,
    graded_kernel,
    graded_solve,
)
from .lie import borel, nilradical, sl2
from .wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    block_projection_principal,
    truncated_sym,
)


def cochain_twist(p: int, n: int) -> int:
    """Weight twist of the n-th cochain term of the periodic complex."""
    return 2 * p * (n // 2) + (2 if n % 2 else 0)


def t1_invariants(c: LaurentCharacter, p: int) -> LaurentCharacter:
    """Restriction of a character to the weights divisible by p."""
    return LaurentCharacter({w: m for w, m in c.coeffs.items() if w % p == 0})


class PeriodicCohomology:
    """H^*(U_1, M) for a module M with nilpotent f-action.

    Keeps weight-homogeneous cocycle representatives per degree, so
    classes can be identified, T_1-selected and multiplied.
    """

    def __init__(self, M: WeightModule):
        self.M = M
        p = M.p
        self.F = M.maps["f"]
        self.Fq = self.F ** (p - 1)
        # F @ Fq = Fq @ F = F^p: both differentials square to zero iff f^p = 0
        if not (self.F @ self.Fq).is_zero():
            raise ValueError("f-action is not p-nilpotent")
        self._cache: dict[str, tuple] = {}

    def d_out(self, n: int) -> GradedMap:
        return self.F if n % 2 == 0 else self.Fq

    def d_in(self, n: int) -> GradedMap:
        if n == 0:
            raise ValueError("no incoming differential in degree 0")
        return self.F if n % 2 else self.Fq

    def _data(self, n: int):
        """(cocycle basis, boundary basis, rep positions): two column sets,
        and the cocycle columns that complete the boundaries."""
        kind = "deg0" if n == 0 else ("odd" if n % 2 else "even")
        if kind in self._cache:
            return self._cache[kind]
        K = graded_kernel(self.d_out(n))
        B = column_set(self.M.p, self.M.grading, []) if n == 0 else graded_image(self.d_in(n))
        data = (K, B, tuple(graded_complement(B, K)))
        self._cache[kind] = data
        return data

    def is_cocycle(self, n: int, vec: np.ndarray) -> bool:
        return not (self.d_out(n) @ vec).any()

    def representatives(self, n: int) -> list[tuple[np.ndarray, int]]:
        """Cocycle representatives of H^n with their raw module weights."""
        if self.M.dim == 0:
            return []
        K, _, reps = self._data(n)
        return [(K.column(j), int(K.source.weights[j])) for j in reps]

    def character(self, n: int) -> LaurentCharacter:
        """Character of H^n(U_1, M), weights twisted per cochain degree."""
        tw = cochain_twist(self.M.p, n)
        return LaurentCharacter.from_weights(
            w + tw for _, w in self.representatives(n))

    def t1_representatives(self, n: int) -> list[tuple[np.ndarray, int]]:
        tw = cochain_twist(self.M.p, n)
        return [(v, w) for v, w in self.representatives(n)
                if (w + tw) % self.M.p == 0]

    def class_coordinates(self, n: int, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a cocycle's class over representatives(n)."""
        if not self.is_cocycle(n, vec):
            raise ValueError("not a cocycle")
        K, B, reps = self._data(n)
        if self.M.dim == 0:
            return np.zeros(0, dtype=np.int64)
        # B and the reps are the pivot columns of [B | K]; the others solve to 0
        coords = graded_solve(graded_columns(B, K), vec)
        return coords[B.shape[1] + np.array(reps, dtype=np.int64)]

    def is_coboundary(self, n: int, vec: np.ndarray) -> bool:
        return not self.class_coordinates(n, vec).any()


def u1_cohomology(M: WeightModule, n: int) -> LaurentCharacter:
    """Character of H^n(U_1, M) from the twisted periodic complex."""
    if n < 0:
        raise ValueError("negative cohomological degree")
    return PeriodicCohomology(M).character(n)


def u_cohomology(M: WeightModule, j: int) -> LaurentCharacter:
    """Lie-algebra cohomology of the one-dimensional u: H^0 = ker f,
    H^1 = coker f with weights shifted by the root, zero above.  Both come
    from the ranks of the weight blocks of f."""
    if j < 0:
        raise ValueError("negative cohomological degree")
    if j >= 2:
        return LaurentCharacter.zero()
    image = LaurentCharacter.from_weights(graded_image(M.maps["f"]).source.weights.tolist())
    root = LaurentCharacter.line(2)
    return M.character() - image * root if j == 0 else (M.character() - image) * root


def e2_page(M: WeightModule, i: int, j: int) -> LaurentCharacter:
    """E_2^{2i,j} of the two-line Borel spectral sequence (p >= 3): the
    weight-2pi shift of H^j(u, M)^{T_1}, zero for j >= 2."""
    if M.p == 2:
        raise ValueError("the two-line E2 page needs p >= 3")
    if i < 0 or j < 0:
        raise ValueError("negative bidegree")
    if j >= 2:
        return LaurentCharacter.zero()
    sel = t1_invariants(u_cohomology(M, j), M.p)
    return LaurentCharacter({w + 2 * M.p * i: m for w, m in sel.coeffs.items()})


@dataclass(frozen=True)
class CollapseRow:
    degree: int
    e2_total: int
    actual: int
    defect: int


def collapse_check(M: WeightModule, maxdeg: int) -> list[CollapseRow]:
    """Per degree: total E_2 dimension, the computed H^n(B_1, M), and the
    defect; defect 0 in a degree means collapse at E_2 there."""
    if M.p == 2:
        raise ValueError("collapse bookkeeping needs p >= 3")
    return _collapse_rows(PeriodicCohomology(M), maxdeg)


def _collapse_rows(engine: PeriodicCohomology, maxdeg: int) -> list[CollapseRow]:
    """collapse_check on the engine's module, read from the engine."""
    M = engine.M
    rows = []
    for n in range(maxdeg + 1):
        i, j = (n // 2, 0) if n % 2 == 0 else ((n - 1) // 2, 1)
        e2 = e2_page(M, i, j).dim()
        actual = t1_invariants(engine.character(n), M.p).dim()
        defect = e2 - actual
        if defect < 0:
            raise ValueError(f"E2 smaller than the abutment in degree {n}")
        rows.append(CollapseRow(n, e2, actual, defect))
    return rows


def ip_expected_dims(p: int, maxdeg: int) -> list[int]:
    """Per-total-degree dimension of the collapse ideal, enumerated from
    the bidegrees of its two generating families: the u-degree-one
    family S^i (x) y x^m (m = 0..(p-1)/2) in degrees 2i+1, and the
    positive-S family S^i_+ (x) x^j (j = (p-1)/2..p-1) in degrees 2i."""
    if p == 2:
        raise ValueError("the collapse ideal is defined for p >= 3")
    dims = [0] * (maxdeg + 1)
    y_count = (p - 1) // 2 + 1
    x_count = (p - 1) - (p - 1) // 2 + 1
    for i in range(maxdeg // 2 + 1):
        d = 2 * i + 1
        if d <= maxdeg:
            dims[d] += y_count
    for i in range(1, maxdeg // 2 + 1):
        dims[2 * i] += x_count
    return dims


# -- cup products -----------------------------------------------------------


class CupDiagonal:
    """Diagonal approximation P -> P (x) P of the periodic resolution,
    solved degree by degree as an exact linear system.

    Components are stored as sparse A (x) A coefficients: component(i, j)
    lists (s, t, c) meaning c * f^s (x) f^t on the generator pair
    g_i (x) g_j.  Weight homogeneity pins s + t to p - 2 when both
    degrees are odd and to 0 otherwise, which keeps the systems small.
    A perturbation seed adds a kernel element of the solved system at
    every degree; any two diagonals are chain homotopic, so cohomology
    classes must not change (used to validate well-definedness).
    """

    def __init__(self, p: int, perturb_seed=None):
        self.p = p
        self.rng = np.random.default_rng(perturb_seed) if perturb_seed is not None else None
        self.components: dict[int, dict[tuple[int, int], list[tuple[int, int, int]]]] = {
            0: {(0, 0): [(0, 0, 1)]}
        }

    def _c(self, m: int) -> int:
        # d(g_m) = f^{c(m)} g_{m-1}
        return 1 if m % 2 else self.p - 1

    def _allowed(self, i: int, j: int) -> list[tuple[int, int]]:
        if i % 2 and j % 2:
            return [(s, self.p - 2 - s) for s in range(self.p - 1)]
        return [(0, 0)]

    def _solve_degree(self, n: int) -> None:
        p = self.p
        prev = self.components[n - 1]
        comps = [(k, n - k) for k in range(n + 1)]
        slots: list[tuple[int, int, int, int]] = []  # (i, j, s, t) per unknown
        offsets = {}
        for (i, j) in comps:
            offsets[(i, j)] = len(slots)
            for (s, t) in self._allowed(i, j):
                slots.append((i, j, s, t))
        eq_comps = [(k, n - 1 - k) for k in range(n)]
        eq_offset = {c: idx * p * p for idx, c in enumerate(eq_comps)}
        nrows = len(eq_comps) * p * p
        mat = np.zeros((nrows, len(slots)), dtype=np.int64)
        rhs = np.zeros((nrows, 1), dtype=np.int64)
        for g, (i, j, s, t) in enumerate(slots):
            if i >= 1:
                c = self._c(i)
                if s + c < p:
                    row = eq_offset[(i - 1, j)] + (s + c) * p + t
                    mat[row, g] += 1
            if j >= 1:
                c = self._c(j)
                sign = -1 if i % 2 else 1
                if t + c < p:
                    row = eq_offset[(i, j - 1)] + s * p + (t + c)
                    mat[row, g] += sign
        cn = self._c(n)
        for (i, j), terms in prev.items():
            base = eq_offset[(i, j)]
            for (s, t, co) in terms:
                for k in range(cn + 1):
                    b = comb(cn, k) % p
                    if not b:
                        continue
                    ss, tt = s + k, t + cn - k
                    if ss < p and tt < p:
                        rhs[base + ss * p + tt, 0] += co * b
        system = FpMatrix(p, mat)
        sol = system.solve(FpMatrix(p, rhs)).a[:, 0]
        if self.rng is not None:
            kb = system.kernel_basis()
            if kb.cols:
                coeffs = self.rng.integers(0, p, size=kb.cols)
                sol = (sol + kb.a @ coeffs) % p
        out: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for g, (i, j, s, t) in enumerate(slots):
            co = int(sol[g]) % p
            if co:
                out.setdefault((i, j), []).append((s, t, co))
        for c in comps:
            out.setdefault(c, [])
        self.components[n] = out

    def component(self, i: int, j: int) -> list[tuple[int, int, int]]:
        n = i + j
        while max(self.components) < n:
            self._solve_degree(max(self.components) + 1)
        return self.components[n].get((i, j), [])


_diagonals: dict[int, CupDiagonal] = {}


def standard_diagonal(p: int) -> CupDiagonal:
    if p not in _diagonals:
        _diagonals[p] = CupDiagonal(p)
    return _diagonals[p]


def cup_product(engine: PeriodicCohomology, alg: TruncatedSymAlgebra,
                a_deg: int, a_vec: np.ndarray, b_deg: int, b_vec: np.ndarray,
                diagonal: CupDiagonal | None = None) -> np.ndarray:
    """Cocycle representing the cup product of two cocycles on the
    coefficient algebra.  Inputs are checked to be cocycles; the result
    lives in degree a_deg + b_deg."""
    if engine.M is not alg.module:
        raise ValueError("engine and coefficient algebra disagree")
    if not engine.is_cocycle(a_deg, a_vec) or not engine.is_cocycle(b_deg, b_vec):
        raise ValueError("cup product needs cocycle inputs")
    p = alg.p
    if diagonal is None:
        diagonal = standard_diagonal(p)
    terms = diagonal.component(a_deg, b_deg)
    left = _f_iterates(engine, a_vec, max((s for s, _, _ in terms), default=0))
    right = _f_iterates(engine, b_vec, max((t for _, t, _ in terms), default=0))
    out = np.zeros(alg.dim, dtype=np.int64)
    sign = -1 if (a_deg % 2 and b_deg % 2) else 1
    for (s, t, co) in terms:
        out = (out + co * alg.mult(left[s], right[t])) % p
    return (sign * out) % p


def _f_iterates(engine: PeriodicCohomology, vec: np.ndarray, k: int) -> list[np.ndarray]:
    """vec, F vec, ..., F^k vec."""
    out = [np.asarray(vec, dtype=np.int64) % engine.M.p]
    for _ in range(k):
        out.append(engine.F @ out[-1])
    return out


# -- the G_1 route and assembled tables -------------------------------------


def g1_cohomology_char(engine: PeriodicCohomology, n: int) -> tuple[LaurentCharacter, bool]:
    """Character of H^n(G_1, M), M the engine's module, via the Borel route:
    untwist the T_1-selected answer and apply the induction Euler char.
    The flag is True when all untwisted weights are >= -1, in which case
    higher derived induction vanishes and the character is exact."""
    if engine.M.dim == 0:
        return LaurentCharacter.zero(), True
    if n < 0:
        raise ValueError("negative cohomological degree")
    return euler_induction(t1_invariants(engine.character(n), engine.M.p).untwist(engine.M.p))


@dataclass
class CohomologyTable:
    """Per-(source, degree) characters with exactness flags."""

    target: str
    p: int
    maxdeg: int
    entries: list[tuple[str, int, LaurentCharacter, str]]

    def entry(self, source: str, degree: int) -> tuple[LaurentCharacter, str]:
        for s, d, c, f in self.entries:
            if s == source and d == degree:
                return c, f
        raise KeyError((source, degree))

    def degree_total(self, degree: int) -> int:
        return sum(c.dim() for s, d, c, _ in self.entries if d == degree)

    def to_tsv(self) -> str:
        lines = ["n\tdegree\tdim\tcharacter\tflag"]
        for s, d, c, f in self.entries:
            lines.append(f"{s}\t{d}\t{c.dim()}\t{c.serialize()}\t{f}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "p": self.p,
            "maxdeg": self.maxdeg,
            "rows": [
                {"n": s, "degree": d, "dim": c.dim(),
                 "character": c.serialize(), "flag": f}
                for s, d, c, f in self.entries
            ],
        }


def hh_table(target: str, p: int, maxdeg: int) -> CohomologyTable:
    """Assembled Hochschild cohomology tables.

    g1: one source row per graded piece of the truncated symmetric
    algebra of sl2 (principal-block projected), characters via the
    induction route.  b1/u1: the whole coefficient algebra as a single
    'total' source.
    """
    target = target.lower()
    entries: list[tuple[str, int, LaurentCharacter, str]] = []
    if target == "g1":
        g = sl2(p)
        for n in range(3 * (p - 1) + 1):
            engine = PeriodicCohomology(block_projection_principal(truncated_sym(g, n)))
            for d in range(maxdeg + 1):
                char, exact = g1_cohomology_char(engine, d)
                entries.append((str(n), d, char, "exact" if exact else "euler-only"))
    elif target in ("b1", "u1"):
        alg = borel(p) if target == "b1" else nilradical(p)
        engine = PeriodicCohomology(TruncatedSymAlgebra(alg).module)
        for d in range(maxdeg + 1):
            char = engine.character(d)
            if target == "b1":
                char = t1_invariants(char, p)
            entries.append(("total", d, char, "exact"))
    else:
        raise ValueError(f"unknown table target {target!r}")
    return CohomologyTable(target, p, maxdeg, entries)
