"""Finite-dimensional weight modules for the rank-one algebras.

A WeightModule is a labeled basis with an integer weight per basis
vector and one action per available Lie generator.  Every constructor
validates the four structural invariants exactly (the middle two by
lie._check_relations, the check the algebra runs on its adjoint maps):

  * each generator moves the weight-m subspace into weight m + wt(x),
  * action([x,y]) equals the commutator of the action matrices,
  * action(x)^p equals the action of x^[p],
  * h acts on a weight-m vector as the scalar m mod p.

So every module is restricted, and downstream code relies on three
consequences without checking them again:

  * the Casimir commutes with every action: the bracket relations hold,
    and c is central in U(sl2) for odd p;
  * it splits with roots among the (p+1)/2 values m(m+2)/2: x^p = x^[p],
    so the composition factors are the L(m), 0 <= m <= p-1 (Jantzen,
    Representations of Algebraic Groups, II.9);
  * f acts p-nilpotently: the p-map sends f to 0 in sl2, b and u.

Actions are kept only as GradedMaps, one dense block per cell from m to
m + wt(x): the cells are the weight spaces, and for a monomial module of
several degrees the (weight, degree) spaces, since the adjoint action
keeps the polynomial degree.  Only dense input is cut, and only
action(x) densifies; every construction scatters entries into blocks,
and a submodule solves all actions into blocks on its column set in one
stacked solve.  The principal block, that of the trivial module, is the
kernel of the Casimir's Frobenius power S (fpmatrix.frobenius_power) for
odd p and the whole module for p = 2.

Truncated symmetric powers carry the adjoint derivation action with
p-th powers killed; the graded pieces assemble into a genuine algebra
(TruncatedSymAlgebra) whose product feeds the cup products and the
duality pairing ranks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .characters import (
    DecompList,
    LaurentCharacter,
    _digits,
    decompose_simples,
    decompose_tilting_greedy,
    weyl_chi,
)
from .fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    cell_nullities,
    check_prime,
    frobenius_power,
    graded_eigenspaces,
    graded_kernel,
    graded_projector,
    graded_solve,
)
from .lie import RestrictedLieAlgebra, _check_relations, casimir_operator, sl2


class WeightModule:
    """Weighted module over a rank-one restricted Lie algebra; an action is
    a dense FpMatrix or a GradedMap on the Grading passed as weights.
    Construction validates the invariants of the module docstring and
    raises ValueError on the first failure, so every instance has their
    three consequences: a central, split Casimir and a p-nilpotent f.
    The tuples labels and weights are built on first read, from the labels
    given (a sequence, or inside the package a function building them) and
    the grading."""

    def __init__(self, algebra: RestrictedLieAlgebra, labels, weights, actions):
        self.algebra = algebra
        self.grading = weights if isinstance(weights, Grading) else Grading(weights)
        self._labels = labels if callable(labels) else tuple(labels)
        if not callable(labels) and len(self._labels) != self.dim:
            raise ValueError("need one label per weight")
        if set(actions) != set(algebra.generators):
            raise ValueError("need one action matrix per algebra generator")
        self.maps = {}  # generator -> its action as cell blocks
        for x in algebra.generators:
            m, shift = actions[x], algebra.weight(x)
            if not isinstance(m, GradedMap):
                if m.shape != (self.dim, self.dim) or m.p != algebra.p:
                    raise ValueError(f"action matrix for {x} has wrong shape or modulus")
                try:
                    m = GradedMap.cut(m, self.grading, shift)
                except ValueError:
                    raise ValueError(f"action of {x} is not weight-compatible") from None
            if (m.grading, m.source, m.p, m.shift) != (self.grading, self.grading, self.p, shift):
                raise ValueError(f"action of {x} is not a map on this grading")
            self.maps[x] = m
        self.validate()

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def dim(self) -> int:
        return self.grading.weights.size

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(_read(self._labels))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.grading.weights.tolist())

    def action(self, x: str) -> FpMatrix:
        """The action of x as a dense FpMatrix record, rebuilt from its cell
        blocks for the caller; the package itself computes on self.maps."""
        return self.maps[x].dense()

    def character(self) -> LaurentCharacter:
        return LaurentCharacter.from_weights(self.grading.weights.tolist())

    def validate(self) -> None:
        """The last three invariants; weight compatibility is checked when
        the actions are cut at construction."""
        _check_relations(self.algebra, self.maps, "bracket compatibility fails on ({x},{y})",
                         "restricted compatibility fails on {x}")
        if "h" in self.algebra.generators:
            rows, cols, vals = self.maps["h"].entries()
            scalars = self.grading.weights % self.p
            if not (np.array_equal(rows, cols) and np.array_equal(vals, scalars[rows])
                    and rows.size == np.count_nonzero(scalars)):
                raise ValueError("h does not act by the weight scalars")

    # -- derived modules -------------------------------------------------

    def tensor(self, other: "WeightModule") -> "WeightModule":
        """The tensor product, basis a*b in row-major order, graded by
        weight only; x acts by x (x) 1 + 1 (x) x, scattered from the
        entries of both factors' blocks."""
        if self.algebra is not other.algebra and (
            self.algebra.generators != other.algebra.generators or self.p != other.p
        ):
            raise ValueError("tensor factors live over different algebras")
        alg, n, m = self.algebra, self.dim, other.dim
        left, right = self._labels, other._labels
        grading = Grading(np.add.outer(self.grading.weights, other.grading.weights))
        actions = {x: GradedMap.scatter(alg.p, grading, alg.weight(x), *_tensor_entries(
            self.maps[x].entries(), other.maps[x].entries(), n, m)) for x in alg.generators}
        return WeightModule(alg, lambda: [f"{a}*{b}" for a in _read(left) for b in _read(right)],
                            grading, actions)

    def dual(self) -> "WeightModule":
        alg, grading, actions, labels = self.algebra, Grading(-self.grading.weights), {}, self._labels
        for x in alg.generators:
            rows, cols, vals = self.maps[x].entries()
            actions[x] = GradedMap.scatter(alg.p, grading, alg.weight(x), cols, rows, -vals)
        return WeightModule(alg, lambda: [f"{a}^" for a in _read(labels)], grading, actions)

    def frobenius_twist(self, r: int = 1) -> "WeightModule":
        """Weights scaled by p^r, infinitesimal action trivialized."""
        if r < 1:
            raise ValueError(f"Frobenius twist needs r >= 1, got r = {r}")
        labels = self._labels
        return _torus_module(self.algebra, lambda: [f"{a}({r})" for a in _read(labels)],
                             self.grading.weights * self.p ** r)

    def submodule(self, columns: GradedMap, prefix: str = "s") -> "WeightModule":
        """Restrict actions to the span of a column set into this module,
        all solved into blocks on the column grading in one stacked solve.

        Raises if the span is not stable under every generator, naming the
        first generator that leaves it.
        """
        if columns.grading is not self.grading or columns.shift:
            raise ValueError("columns do not lie in this module")
        gens, n = self.algebra.generators, columns.shape[1]
        images = [self.maps[x] @ columns for x in gens]
        try:
            actions = dict(zip(gens, graded_solve(columns, images)))
        except ValueError:  # name the first generator whose image leaves the span
            for x, image in zip(gens, images):
                try:
                    graded_solve(columns, image)
                except ValueError as exc:
                    raise ValueError(f"span is not stable under {x}") from exc
            raise
        return WeightModule(self.algebra, lambda: [f"{prefix}{k}" for k in range(n)],
                            columns.source, actions)


def _read(labels) -> tuple[str, ...] | list[str]:
    """Labels kept as a tuple, or built by the function kept in their place."""
    return labels() if callable(labels) else labels


def _tensor_entries(a, b, n: int, m: int):
    """Rows, columns and values of x (x) 1 + 1 (x) y on the basis a*b at
    i * m + j, from the entries a of x on n vectors and b of y on m."""
    (ra, ca, va), (rb, cb, vb) = a, b
    i, j = np.arange(n)[:, None], np.arange(m)[:, None]
    return (np.concatenate([(ra * m + j).ravel(), (i * m + rb).ravel()]),
            np.concatenate([(ca * m + j).ravel(), (i * m + cb).ravel()]),
            np.concatenate([np.tile(va, m), np.tile(vb, n)]))


# -- monomial constructions ----------------------------------------------


def _monomial_module(alg: RestrictedLieAlgebra, degrees, cap) -> WeightModule:
    """The monomials of the given increasing degrees, exponents at most cap
    (None = no cap), with the adjoint derivation action; graded by weight,
    and by degree too when there are several.  The basis (exponent rows kept
    as exponents) lists them degree by degree by ascending code, the
    exponents read as base-(cap+1) digits, first generator most significant."""
    gens, base = alg.generators, min(max(degrees), max(degrees) if cap is None else cap) + 1
    digit = base ** np.arange(alg.dim - 1, -1, -1)
    exps = np.arange(base ** alg.dim)[:, None] // digit % base
    total = exps.sum(axis=1)
    codes = np.flatnonzero(np.isin(total, degrees))
    codes = codes[np.argsort(total[codes], kind="stable")]
    at = np.empty_like(total)  # per code of the basis, its position
    at[codes] = np.arange(codes.size)
    exps, total = exps[codes], total[codes]
    grading = Grading(exps @ np.array(alg.weights, dtype=np.int64),
                      total if len(degrees) > 1 else None)
    # x acts by the Leibniz rule: g_i -> c z per [x, g_i] = c z, dropping an exponent past cap
    actions = {}
    for x in gens:
        terms = [(np.zeros(0, dtype=np.int64),) * 3]
        for i, g in enumerate(gens):
            for z, c in alg.bracket_coeffs(x, g).items():
                zi = gens.index(z)
                j = np.flatnonzero((exps[:, i] > 0) & (cap is None or exps[:, zi] + (zi != i) <= cap))
                terms.append((at[codes[j] - digit[i] + digit[zi]], j, exps[j, i] * c))
        actions[x] = GradedMap.scatter(alg.p, grading, alg.weight(x),
                                       *map(np.concatenate, zip(*terms)))

    def labels():  # g^a per nonzero exponent a, joined by *
        pieces = [np.array(["", g, *(f"{g}^{a}" for a in range(2, base))], dtype=object)[e]
                  for g, e in zip(gens, exps.T)]
        return ["*".join(filter(None, parts)) or "1" for parts in zip(*pieces)]

    mod = WeightModule(alg, labels, grading, actions)
    mod.exponents = exps
    return mod


def truncated_sym(alg: RestrictedLieAlgebra, n: int) -> WeightModule:
    """Degree-n piece of the truncated symmetric algebra, adjoint action."""
    top = (alg.p - 1) * alg.dim
    if n < 0 or n > top:
        raise ValueError(f"degree {n} outside [0, {top}]")
    return _monomial_module(alg, [n], alg.p - 1)


def sym_power(alg: RestrictedLieAlgebra, n: int) -> WeightModule:
    """Degree-n ordinary symmetric power, adjoint derivation action."""
    if n < 0:
        raise ValueError("negative degree")
    return _monomial_module(alg, [n], None)


class TruncatedSymAlgebra:
    """The whole truncated symmetric algebra as one weight module with
    its monomial product, graded by polynomial degree.

    Each monomial has a base-p code, its exponents read as digits with
    the first generator most significant; every code below p^dim is a
    monomial, since exponents stop at p-1.  Two monomials multiply to a
    nonzero monomial exactly when adding their codes carries no digit,
    i.e. when the code sum is below p^dim and its digit sum (the degree)
    is the sum of the two degrees; the product is the monomial of the
    code sum.  Per monomial only arrays are kept: the module's exponent rows
    and grading, the codes and each code's position (_codes, _at_code).
    exponents (tuples), degrees and index (a dict from exponent tuple to
    position) are built on first read; unit_index is the position of code 0."""

    def __init__(self, alg: RestrictedLieAlgebra):
        p = self.p = alg.p
        self.algebra, self.top_degree = alg, (p - 1) * alg.dim
        self.module = _monomial_module(alg, range(self.top_degree + 1), p - 1)
        self._codes = self.module.exponents @ p ** np.arange(alg.dim - 1, -1, -1)
        self._degree = self.module.grading.degrees
        self._at_code = np.argsort(self._codes)  # every code below p^dim is a monomial

    @property
    def dim(self) -> int:
        return self.module.dim

    @cached_property
    def exponents(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.module.exponents.tolist()))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self._degree.tolist())

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {e: k for k, e in enumerate(self.exponents)}

    @property
    def unit_index(self) -> int:
        return int(self._at_code[0])

    def unit_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.unit_index] = 1
        return v

    def _products(self, i1: np.ndarray, i2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per pair of basis monomials (broadcast), the index of their
        product and whether it is nonzero, by the code rule."""
        sums = self._codes[i1] + self._codes[i2]
        ok = sums < self.dim
        target = self._at_code[np.where(ok, sums, 0)]
        return target, ok & (self._degree[target] == self._degree[i1] + self._degree[i2])

    def mult(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """Bilinear product of coefficient vectors in the monomial basis."""
        v1, v2 = np.asarray(v1, dtype=np.int64), np.asarray(v2, dtype=np.int64)
        if v1.shape != (self.dim,) or v2.shape != (self.dim,):
            raise ValueError("shape mismatch")
        nz1, nz2 = np.flatnonzero(v1), np.flatnonzero(v2)
        target, ok = self._products(nz1[:, None], nz2)
        coeffs = v1[nz1, None] * v2[nz2]
        out = np.zeros(self.dim, dtype=np.int64)
        np.add.at(out, target[ok], coeffs[ok])
        return out % self.p

    def duality_ranks(self) -> list[int]:
        """Per degree i, the rank of the product pairing S^i x S^(top-i) -> top
        line (the top monomial, of code p^dim - 1), by the code rule of mult.
        Two codes add to p^dim - 1 only digit by digit, each digit pair to
        p - 1, so no such sum carries: a monomial meets the top line with
        exactly one partner, the monomial of the complement code, and the
        pairing is a monomial matrix.  Its rank in degree i is the number of
        degree-i monomials whose product with their partner, read through
        _products, is the top monomial.  Every partner must have weight
        wt(top) - w, or ValueError is raised."""
        g, top = self.module.grading, self._at_code[self.dim - 1]
        partner = self._at_code[self.dim - 1 - self._codes]
        if np.any(g.weights[partner] != g.weights[top] - g.weights):
            raise ValueError("the product pairs cells of unmatched weights")
        target, ok = self._products(np.arange(self.dim), partner)
        return np.bincount(self._degree[ok & (target == top)], minlength=self.top_degree + 1).tolist()


# -- standard small modules ----------------------------------------------


def _torus_module(alg: RestrictedLieAlgebra, labels, weights) -> WeightModule:
    """The module on the given weights where h acts by the weight scalars
    and every other generator by zero."""
    grading = Grading(weights)
    n, none = np.arange(grading.weights.size), np.zeros(0, dtype=np.int64)
    actions = {x: GradedMap.scatter(alg.p, grading, alg.weight(x),
                                    *((n, n, grading.weights) if x == "h" else (none,) * 3))
               for x in alg.generators}
    return WeightModule(alg, labels, grading, actions)


def weight_line(alg: RestrictedLieAlgebra, w: int) -> WeightModule:
    if "e" in alg.generators and w % alg.p:
        raise ValueError(f"h = [e, f] acts by zero on a line, so p must divide w; got w = {w}")
    return _torus_module(alg, (f"<{w}>",), [w])


def trivial_module(alg: RestrictedLieAlgebra) -> WeightModule:
    return weight_line(alg, 0)


def simple_model(lam: int, p: int) -> WeightModule:
    """The restricted simple sl2-module L(lam) for 0 <= lam <= p-1.

    Basis v_0..v_lam with h v_i = (lam-2i) v_i, f v_i = (i+1) v_{i+1},
    e v_i = (lam-i+1) v_{i-1}.
    """
    if not 0 <= lam <= p - 1:
        raise ValueError("simple_model needs a restricted weight")
    i = np.arange(lam + 1)
    grading = Grading(lam - 2 * i)
    actions = {"e": GradedMap.scatter(p, grading, 2, i[:-1], i[1:], lam - i[:-1]),
               "h": GradedMap.scatter(p, grading, 0, i, i, lam - 2 * i),
               "f": GradedMap.scatter(p, grading, -2, i[1:], i[:-1], i[1:])}
    return WeightModule(sl2(p), [f"v{k}" for k in i], grading, actions)


def simple_module(lam: int, p: int) -> WeightModule:
    """L(lam) for any lam >= 0 by Steinberg digits: restricted factors
    tensored with Frobenius twists."""
    check_prime(p)
    if lam < 0:
        raise ValueError("dominant weight required")
    first, *rest = _digits(lam, p)
    out = simple_model(first, p)
    for r, d in enumerate(rest, start=1):
        out = out.tensor(simple_model(d, p).frobenius_twist(r))
    return out


# -- Casimir blocks and projections ----------------------------------------


def casimir_blocks(M: WeightModule) -> dict[int, GradedMap]:
    """Generalized Casimir eigenspaces, column sets: the tests' reference (no package caller).

    graded_eigenspaces tries every value in F_p; on a WeightModule only the
    Casimir values give a nonzero space, and the dimensions add up to dim M.  The columns
    come cell by cell, by free index within a cell: on a basis listed degree
    by degree that is by weight, then by free index, as the eigenspaces of
    each whole weight block would give them.
    """
    return graded_eigenspaces(casimir_operator(M))


def casimir_nullities(S: GradedMap) -> np.ndarray:
    """Per Casimir value m(m+2)/2, increasing, the nullity of S - lam per cell
    of S, the Frobenius power of a module's Casimir: the weights of each
    Casimir class, counted without a kernel basis."""
    p, one = S.p, GradedMap.identity(S.p, S.grading)
    values = sorted({m * (m + 2) * pow(2, p - 2, p) % p for m in range(p)})
    return np.array([cell_nullities([S - lam * one]) for lam in values])


def block_projection_principal(M: WeightModule) -> WeightModule:
    """Projection onto the principal block: the generalized 0-eigenspace
    of the Casimir for p >= 3, the kernel of its Frobenius power; the
    identity for p = 2."""
    if M.p == 2 or M.dim == 0:
        return M
    return M.submodule(graded_kernel(frobenius_power(casimir_operator(M))), prefix="blk")


def principal_block_projector(M: WeightModule) -> GradedMap:
    """Idempotent map projecting onto the principal block along the other
    Casimir blocks (identity for p = 2): 1 - S^(p-1) for the Frobenius
    power S of the Casimir."""
    if M.p == 2:
        return GradedMap.identity(M.p, M.grading)
    return graded_projector(casimir_operator(M))


# -- Hom spaces, duality pairing, invariants -------------------------------


def module_hom_dim(M: WeightModule, N: WeightModule) -> int:
    """Dimension of weight-preserving module homomorphisms M -> N.

    Solutions are matrices Phi with Phi action_M(x) = action_N(x) Phi for
    every generator and Phi supported on equal-weight entry pairs, i.e.
    Hom in the weight-graded (G_1 T) sense.  These are the invariants of
    weight 0 in N (x) M^*: the nullity of the blocks of every generator on
    its weight-0 cell, stacked, in one reduction.  Only the entries from
    that cell are scattered, into the cells of weight wt(x).
    """
    if M.algebra.generators != N.algebra.generators or M.p != N.p:
        raise ValueError("hom spaces need modules over the same algebra")
    gens, w = M.algebra.generators, np.subtract.outer(N.grading.weights, M.grading.weights).ravel()
    src, dst = np.flatnonzero(w == 0), np.flatnonzero(np.isin(w, list(map(M.algebra.weight, gens))))
    source, grading, maps = Grading(w[src]), Grading(w[dst]), []
    for x in gens:
        rm, cm, vm = M.maps[x].entries()  # x^* has -v at (c, r) per entry (r, c, v) of x
        rows, cols, vals = _tensor_entries(N.maps[x].entries(), (cm, rm, -vm), N.dim, M.dim)
        at = w[cols] == 0
        rows, cols = np.searchsorted(dst, rows[at]), np.searchsorted(src, cols[at])
        maps.append(GradedMap.scatter(M.p, grading, M.algebra.weight(x), rows, cols, vals[at], source))
    return int(cell_nullities(maps).sum())


def duality_pairing_rank(alg: RestrictedLieAlgebra, i: int) -> int:
    """Rank of the multiplication pairing S^i x S^(N-i) -> S^N (top line),
    from the product of the whole algebra (TruncatedSymAlgebra.duality_ranks)."""
    top = (alg.p - 1) * alg.dim
    if i < 0 or i > top:
        raise ValueError(f"degree {i} outside [0, {top}]")
    return TruncatedSymAlgebra(alg).duality_ranks()[i]


def g1_invariants(M: WeightModule) -> WeightModule:
    """Joint kernel of all generator actions, as a weighted submodule."""
    return M.submodule(graded_kernel(*(M.maps[x] for x in M.algebra.generators)),
                       prefix="inv")


def tilting_t2p2_model(p: int) -> WeightModule:
    """A concrete model of T(2p-2): the principal-block part of the
    (p-1)-st truncated symmetric power of sl2 (p odd)."""
    if p == 2:
        raise ValueError("needs p >= 3")
    return block_projection_principal(truncated_sym(sl2(p), p - 1))


# -- summand fingerprinting -------------------------------------------------


def summand_labels(M: WeightModule) -> DecompList:
    """Label the indecomposable summands of a truncated-symmetric-power
    style module by characters within Casimir eigenvalue classes.

    Within each class the character is peeled greedily by tilting
    characters; if that goes negative the class is a sum of simples and
    is peeled by simple characters instead.  For p = 2 (no Casimir) the
    highest-weight-2 pieces are told apart by their invariant fingerprint
    (Delta(2) has a trivial submodule, Nabla(2) does not).
    """
    p = M.p
    if M.dim == 0:
        return DecompList([])
    if p == 2:
        char = M.character()
        try:
            return decompose_tilting_greedy(char, p)
        except ValueError:
            pass
        if char == weyl_chi(2):  # Hom(k, M): the invariants of weight 0
            maps = [M.maps[x] for x in M.algebra.generators]
            fam = "Delta" if cell_nullities(maps, M.grading.cell_weights == 0).any() else "Nabla"
            return DecompList([(fam, 2, 1)])
        raise ValueError("p=2 module outside the supported label patterns")
    return _class_labels(casimir_nullities(frobenius_power(casimir_operator(M))), M.grading, p)


def _class_labels(nullities, grading: Grading, p: int, cells=slice(None)) -> DecompList:
    """summand_labels for odd p, from the casimir_nullities on the cells of
    grading that cells selects (all by default); empty classes are skipped."""
    entries = []
    for counts in filter(np.any, nullities[:, cells]):
        char = LaurentCharacter.from_weights(np.repeat(grading.cell_weights[cells], counts).tolist())
        try:
            dec = decompose_tilting_greedy(char, p)
        except ValueError:
            dec = decompose_simples(char, p)
            if dec.virtual or not dec.remainder.is_zero():
                raise ValueError("eigenvalue class is neither tilting nor simple")
        entries.extend(dec.entries)
    simples = sorted([e for e in entries if e[0] == "L"], key=lambda t: t[1])
    tilts = sorted([e for e in entries if e[0] == "T"], key=lambda t: -t[1])
    return DecompList(simples + tilts)
