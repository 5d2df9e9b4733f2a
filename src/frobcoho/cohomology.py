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
cells of their columns into the module, one block per cell, so no
dense n x k basis is built; a representative is made dense one column
at a time.

Cup products are computed through the standard diagonal approximation
P -> P (x) P of the periodic resolution, in its closed form
(Cartan-Eilenberg, Homological Algebra, ch. XII): the product of
cocycles is evaluated through it and the coefficient algebra's
multiplication.  Any chain-homotopic diagonal gives the same classes.
G_1-level characters come from the Borel route: untwist the B_1 answer
and apply the weight-wise induction Euler characteristic, flagging
exactness via the dominance bound (all weights >= -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import LaurentCharacter, euler_induction
from .fpmatrix import (
    GradedMap,
    check_prime,
    frobenius_power,
    graded_columns,
    graded_complement,
    graded_kernel,
    graded_kernel_image,
    graded_solve,
)
from .lie import borel, casimir_operator, nilradical, sl2
from .wmodules import TruncatedSymAlgebra, WeightModule


def cochain_twist(p: int, n: int) -> int:
    """Weight twist of the n-th cochain term of the periodic complex."""
    return 2 * p * (n // 2) + (2 if n % 2 else 0)


def t1_invariants(c: LaurentCharacter, p: int) -> LaurentCharacter:
    """Restriction of a character to the weights divisible by p."""
    check_prime(p)
    return LaurentCharacter({w: m for w, m in c.coeffs.items() if w % p == 0})


class PeriodicCohomology:
    """H^*(U_1, M) for a weight module M, whose differentials square to
    zero (F Fq = Fq F = F^p = 0): validation checks f^p = f^[p], and the
    p-map sends f to 0 in sl2, b and u.  Keeps weight-homogeneous cocycle
    representatives per degree, so classes can be identified, T_1-selected
    and multiplied.  It is the one reader of its complex: every character
    of H^*(U_1, .) and H^*(u, .) comes from its cells, for the whole module
    or per degree of M (top is the largest).

    Each distinct differential (f^(p-1) is f at p = 2) is reduced once, on
    first read, into its kernel and image (graded_kernel_image); degree n
    takes its cocycles from ker d_out(n), its boundaries from im d_in(n),
    and degrees with the same (d_out, d_in) share one table of classes."""

    def __init__(self, M: WeightModule):
        self.M = M
        self.F = M.maps["f"]
        self.top = int(M.grading.degrees.max(initial=0))
        self._pairs, self._tables = {}, {}  # keyed by a differential, and by (d_out, d_in)

    @cached_property
    def Fq(self) -> GradedMap:
        return self.F ** (self.M.p - 1)

    def d_out(self, n: int) -> GradedMap:
        check_degree(n)
        return self.F if n % 2 == 0 else self.Fq

    def d_in(self, n: int) -> GradedMap:
        if n <= 0:
            raise ValueError(f"no incoming differential in degree {n}")
        return self.F if n % 2 else self.Fq

    def _pair(self, d: GradedMap) -> tuple[GradedMap, GradedMap]:
        """The kernel and the image of the differential d (maps compare by identity)."""
        if d not in self._pairs:
            self._pairs[d] = graded_kernel_image(d)
        return self._pairs[d]

    def _data(self, n: int) -> tuple[GradedMap, np.ndarray]:
        """[B | K] in degree n and the positions in it of the class columns,
        built once per (d_out, d_in): the cocycles K = ker d_out(n) that
        complete B = im d_in(n); in degree 0 no B, and all of K unreduced."""
        out, into = self.d_out(n), self.d_in(n) if n else None  # d_out checks n >= 0
        if (out, into) not in self._tables:
            K = self._pair(out)[0]
            if into is None:
                BK, cols = K, np.arange(K.shape[1])
            else:
                B = self._pair(into)[1]
                BK, b = graded_columns(B, K), B.shape[1]
                cols = b + np.array(graded_complement(BK, b), dtype=np.int64)
            self._tables[out, into] = BK, cols
        return self._tables[out, into]

    def is_cocycle(self, n: int, vec: np.ndarray) -> bool:
        return not (self.d_out(n) @ vec).any()

    def representatives(self, n: int) -> list[tuple[np.ndarray, int]]:
        """Cocycle representatives of H^n with their raw module weights."""
        BK, cols = self._data(n)
        return [(BK.column(j), int(BK.source.weights[j])) for j in cols]

    def _classes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The twisted weights and the degrees of the classes of H^n."""
        BK, cols = self._data(n)
        return BK.source.weights[cols] + cochain_twist(self.M.p, n), BK.source.degrees[cols]

    def character(self, n: int) -> LaurentCharacter:
        """Character of H^n(U_1, M), weights twisted per cochain degree."""
        return LaurentCharacter.from_weights(self._classes(n)[0].tolist())

    def characters(self, n: int) -> list[LaurentCharacter]:
        """Per degree of M, the character of H^n(U_1, .) of that part."""
        return degree_characters(*self._classes(n), self.top)

    def u_characters(self, j: int) -> list[LaurentCharacter]:
        """Per degree of M, the Lie-algebra cohomology H^j(u, .) of the
        one-dimensional u: H^0 = ker f, H^1 = coker f with weights shifted
        by the root, zero above; both from the image of f."""
        check_degree(j)
        if j >= 2:
            return [LaurentCharacter.zero()] * (self.top + 1)
        g, image, root = self.M.grading, self._pair(self.F)[1].source, LaurentCharacter.line(2)
        return [char - im * root if j == 0 else (char - im) * root
                for char, im in zip(degree_characters(g.weights, g.degrees, self.top),
                                    degree_characters(image.weights, image.degrees, self.top))]

    def t1_representatives(self, n: int) -> list[tuple[np.ndarray, int]]:
        """representatives(n) of twisted weight divisible by p (T_1-invariant)."""
        BK, cols = self._data(n)
        kept = cols[self._classes(n)[0] % self.M.p == 0]
        return [(BK.column(j), int(BK.source.weights[j])) for j in kept]

    def class_coordinates(self, n: int, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a cocycle's class over representatives(n)."""
        if not self.is_cocycle(n, vec):
            raise ValueError("not a cocycle")
        BK, cols = self._data(n)
        # B and the class columns are the pivot columns of [B | K]; the others solve to 0
        return graded_solve(BK, vec)[cols]

    def is_coboundary(self, n: int, vec: np.ndarray) -> bool:
        return not self.class_coordinates(n, vec).any()

    def collapse_rows(self, maxdeg: int) -> list[CollapseRow]:
        """Per degree: total E_2 dimension, the computed H^n(B_1, M), and
        the defect; defect 0 in a degree means collapse at E_2 there.  The
        E_2 total of degree n is that of E_2^{n-j,j}, j = n mod 2: shifting
        by 2pi keeps the dimension, so it is read once per j.  All are counts
        of weights divisible by p: of M, or M shifted by the root (j = 1),
        less f M shifted by the root; and of the classes of H^n(U_1, M)."""
        check_maxdeg(maxdeg)
        p = self.M.p
        if p == 2:
            raise ValueError("collapse bookkeeping needs p >= 3")
        w, image = self.M.grading.weights, self._pair(self.F)[1].source.weights + 2
        m0, m1, im = (np.count_nonzero(v % p == 0) for v in (w, w + 2, image))
        e2_dims, rows = [int(m0 - im), int(m1 - im)], []
        for n in range(maxdeg + 1):
            e2, actual = e2_dims[n % 2], int(np.count_nonzero(self._classes(n)[0] % p == 0))
            if e2 < actual:
                raise ValueError(f"E2 smaller than the abutment in degree {n}")
            rows.append(CollapseRow(n, e2, actual, e2 - actual))
        return rows


def degree_characters(weights: np.ndarray, degrees: np.ndarray, top: int) -> list[LaurentCharacter]:
    """Per degree 0..top, the character of the given weights of that degree."""
    return [LaurentCharacter.from_weights(weights[degrees == n].tolist()) for n in range(top + 1)]


def u1_cohomology(M: WeightModule, n: int) -> LaurentCharacter:
    """Character of H^n(U_1, M) from the twisted periodic complex."""
    return PeriodicCohomology(M).character(n)


def u_cohomology(M: WeightModule, j: int) -> LaurentCharacter:
    """Lie-algebra cohomology of the one-dimensional u: H^0 = ker f,
    H^1 = coker f with weights shifted by the root, zero above."""
    return sum(PeriodicCohomology(M).u_characters(j), LaurentCharacter.zero())


def e2_page(M: WeightModule, i: int, j: int) -> LaurentCharacter:
    """E_2^{2i,j} of the two-line Borel spectral sequence (p >= 3): the
    weight-2pi shift of H^j(u, M)^{T_1}, zero for j >= 2."""
    if M.p == 2:
        raise ValueError("the two-line E2 page needs p >= 3")
    if i < 0 or j < 0:
        raise ValueError("negative bidegree")
    sel = t1_invariants(u_cohomology(M, j), M.p)
    return LaurentCharacter({w + 2 * M.p * i: m for w, m in sel.coeffs.items()})


@dataclass(frozen=True)
class CollapseRow:
    degree: int
    e2_total: int
    actual: int
    defect: int


def collapse_check(M: WeightModule, maxdeg: int) -> list[CollapseRow]:
    """PeriodicCohomology(M).collapse_rows(maxdeg): per degree the E_2
    total, H^n(B_1, M) and the defect."""
    return PeriodicCohomology(M).collapse_rows(maxdeg)


def check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"negative cohomological degree {n}")


def check_maxdeg(maxdeg: int) -> None:
    if maxdeg < 0:
        raise ValueError(f"maxdeg must be >= 0, got maxdeg = {maxdeg}")


def ip_expected_dims(p: int, maxdeg: int) -> list[int]:
    """Per-total-degree dimension of the collapse ideal, enumerated from
    the bidegrees of its two generating families: the u-degree-one
    family S^i (x) y x^m (m = 0..(p-1)/2) in degrees 2i+1, and the
    positive-S family S^i_+ (x) x^j (j = (p-1)/2..p-1) in degrees 2i."""
    check_prime(p)
    if p == 2:
        raise ValueError("the collapse ideal is defined for p >= 3")
    check_maxdeg(maxdeg)
    y_count, x_count = (p - 1) // 2 + 1, (p - 1) - (p - 1) // 2 + 1
    return [y_count if n % 2 else (x_count if n else 0) for n in range(maxdeg + 1)]


# -- cup products -----------------------------------------------------------


class CupDiagonal:
    """The standard diagonal approximation P -> P (x) P of the periodic
    resolution of k over k[f]/f^p, in closed form (Cartan-Eilenberg,
    Homological Algebra, ch. XII).

    component(i, j) lists (s, t, c) meaning c * f^s (x) f^t on the
    generator pair g_i (x) g_j: 1 (x) 1 unless both degrees are odd, and
    the sum of (-1)^(s+1) f^s (x) f^(p-2-s) over s = 0..p-2 when both
    are.  Any two diagonals are chain homotopic, so any other one gives
    the same cohomology classes.
    """

    def __init__(self, p: int):
        check_prime(p)
        self.p = p

    def component(self, i: int, j: int) -> list[tuple[int, int, int]]:
        check_degree(min(i, j))
        p = self.p
        if i % 2 and j % 2:
            return [(s, p - 2 - s, 1 if s % 2 else p - 1) for s in range(p - 1)]
        return [(0, 0, 1)]


def cup_product(engine: PeriodicCohomology, alg: TruncatedSymAlgebra,
                a_deg: int, a_vec: np.ndarray, b_deg: int, b_vec: np.ndarray,
                diagonal: CupDiagonal | None = None) -> np.ndarray:
    """Cocycle representing the cup product of two cocycles on the
    coefficient algebra.  Inputs are checked to be cocycles; the result
    lives in degree a_deg + b_deg.  The diagonal defaults to the closed
    form of CupDiagonal; any object with a chain-homotopic component(i, j)
    may be passed instead, and gives the same class."""
    if engine.M is not alg.module:
        raise ValueError("engine and coefficient algebra disagree")
    square = a_vec is b_vec and a_deg == b_deg  # one cocycle check and one list of iterates
    if not engine.is_cocycle(a_deg, a_vec) or not (square or engine.is_cocycle(b_deg, b_vec)):
        raise ValueError("cup product needs cocycle inputs")
    p = alg.p
    if diagonal is None:
        diagonal = CupDiagonal(p)
    terms = diagonal.component(a_deg, b_deg)
    ks = [max((term[i] for term in terms), default=0) for i in (0, 1)]
    left = _f_iterates(engine, a_vec, max(ks) if square else ks[0])
    right = left if square else _f_iterates(engine, b_vec, ks[1])
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
    return _g1_char(engine.character(n), engine.M.p)


def _g1_char(char: LaurentCharacter, p: int) -> tuple[LaurentCharacter, bool]:
    """The induction route from the character of H^n(U_1, M)."""
    return euler_induction(t1_invariants(char, p).untwist(p))


class Sl2Pieces:
    """The pieces S^n, n <= 3(p-1), of the truncated symmetric algebra of
    sl2(p) as the degree-n cells of the whole algebra: one TruncatedSymAlgebra,
    the Frobenius power S of its Casimir, one engine on the principal block
    ker S (for p = 2 no S: the principal part is the module).  Every map keeps
    the degree, so every per-piece quantity is read off by cell degree."""

    def __init__(self, p: int):
        self.p, self.algebra = p, TruncatedSymAlgebra(sl2(p))
        self.top, self.module = self.algebra.top_degree, self.algebra.module
        M = self.module
        self.S = None if p == 2 else frobenius_power(casimir_operator(M))
        self.principal = None if p == 2 else graded_kernel(self.S)  # degree 0 makes 0 an eigenvalue
        self.engine = PeriodicCohomology(M if p == 2 else M.submodule(self.principal, prefix="blk"))

    @cached_property
    def _characters(self) -> list[LaurentCharacter]:
        g = self.module.grading
        return degree_characters(g.weights, g.degrees, self.top)

    def character(self, n: int) -> LaurentCharacter:
        """The character of piece n."""
        if not 0 <= n <= self.top:
            raise ValueError(f"degree {n} outside [0, {self.top}]")
        return self._characters[n]

    def g1_chars(self, d: int) -> list[tuple[LaurentCharacter, bool]]:
        """Per piece, g1_cohomology_char(., d) of its principal part; an
        empty part has no representatives and gives (0, exact)."""
        return [_g1_char(char, self.p) for char in self.engine.characters(d)]


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
    induction route, all read off one engine on the principal block of
    the whole algebra (Sl2Pieces).  b1/u1: the whole coefficient algebra
    as a single 'total' source.
    """
    check_maxdeg(maxdeg)
    target = target.lower()
    entries: list[tuple[str, int, LaurentCharacter, str]] = []
    if target == "g1":
        pieces = Sl2Pieces(p)
        by_degree = [pieces.g1_chars(d) for d in range(maxdeg + 1)]
        for n in range(pieces.top + 1):
            for d in range(maxdeg + 1):
                char, exact = by_degree[d][n]
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
