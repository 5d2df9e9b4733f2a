"""Finite-dimensional weight modules for the rank-one algebras.

A WeightModule is a labeled basis with an integer weight per basis
vector and one action per available Lie generator.  Validation enforces
the four structural invariants exactly:

  * each generator moves the weight-m subspace into weight m + wt(x),
  * action([x,y]) equals the commutator of the action matrices,
  * action(x)^p equals the action of x^[p],
  * h acts on a weight-m vector as the scalar m mod p.

Actions are kept only as GradedMaps, one dense block per weight from m
to m + wt(x): monomial modules scatter their entries into the blocks,
small modules cut dense matrices once, and a submodule solves each action
into blocks on its column set, which is weight blocks too.  The Casimir's
eigenspaces and the principal-block projector come from the finer
components of the Casimir's own support.

Truncated symmetric powers carry the adjoint derivation action with
p-th powers killed; the graded pieces assemble into a genuine algebra
(TruncatedSymAlgebra) whose product feeds the cup-product machinery.
The principal-block projection is the generalized 0-eigenspace of the
Casimir element, which for odd p cuts out exactly the block of the
trivial module; for p = 2 the projection is the identity.
"""

from __future__ import annotations

import numpy as np

from .characters import (
    DecompList,
    LaurentCharacter,
    decompose_simples,
    decompose_tilting_greedy,
    weyl_chi,
)
from .fpmatrix import (
    FpMatrix,
    GradedMap,
    Grading,
    column_set,
    graded_eigenspaces,
    graded_kernel,
    graded_projector,
    graded_solve,
)
from .lie import RestrictedLieAlgebra, casimir_operator, sl2


class WeightModule:
    """Weighted module over a rank-one restricted Lie algebra; an action is
    a dense FpMatrix or a GradedMap on the Grading passed as weights."""

    def __init__(self, algebra: RestrictedLieAlgebra, labels, weights, actions,
                 validate: bool = True):
        self.algebra = algebra
        self.labels = tuple(labels)
        self.grading = weights if isinstance(weights, Grading) else Grading(weights)
        self.weights = tuple(self.grading.weights.tolist())
        if set(actions) != set(algebra.generators):
            raise ValueError("need one action matrix per algebra generator")
        self.maps = {}  # generator -> its action as weight blocks
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
        if validate:
            self.validate()

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def dim(self) -> int:
        return len(self.labels)

    def action(self, x: str) -> FpMatrix:
        """The dense action matrix of x, rebuilt from its weight blocks."""
        return self.maps[x].dense()

    def character(self) -> LaurentCharacter:
        return LaurentCharacter.from_weights(self.weights)

    def validate(self) -> None:
        """The last three invariants; weight compatibility is checked when
        the actions are cut at construction."""
        p, alg, maps = self.p, self.algebra, self.maps
        for i, x in enumerate(alg.generators):
            for y in alg.generators[i + 1:]:
                diff = maps[x] @ maps[y] - maps[y] @ maps[x]
                for z, c in alg.bracket_coeffs(x, y).items():
                    diff = diff - c * maps[z]
                if not diff.is_zero():
                    raise ValueError(f"bracket compatibility fails on ({x},{y})")
        for x in alg.generators:
            diff = maps[x] ** p
            for z, c in alg.p_power.get(x, {}).items():
                diff = diff - c * maps[z]
            if not diff.is_zero():
                raise ValueError(f"restricted compatibility fails on {x}")
        if "h" in alg.generators:
            g, expected = self.grading, np.zeros_like(maps["h"].stack)
            expected[g.pos, g.slot, g.slot] = g.weights % p
            if not np.array_equal(maps["h"].stack, expected):
                raise ValueError("h does not act by the weight scalars")

    # -- derived modules -------------------------------------------------

    def tensor(self, other: "WeightModule") -> "WeightModule":
        if self.algebra is not other.algebra and (
            self.algebra.generators != other.algebra.generators or self.p != other.p
        ):
            raise ValueError("tensor factors live over different algebras")
        labels = [f"{a}*{b}" for a in self.labels for b in other.labels]
        weights = [wa + wb for wa in self.weights for wb in other.weights]
        eyeL = np.eye(self.dim, dtype=np.int64)
        eyeR = np.eye(other.dim, dtype=np.int64)
        actions = {}
        for x in self.algebra.generators:
            m = np.kron(self.action(x).a, eyeR) + np.kron(eyeL, other.action(x).a)
            actions[x] = FpMatrix(self.p, m)
        return WeightModule(self.algebra, labels, weights, actions)

    def dual(self) -> "WeightModule":
        labels = [f"{a}^" for a in self.labels]
        weights = [-w for w in self.weights]
        actions = {x: -self.action(x).T for x in self.algebra.generators}
        return WeightModule(self.algebra, labels, weights, actions)

    def frobenius_twist(self, r: int = 1) -> "WeightModule":
        """Weights scaled by p^r, infinitesimal action trivialized."""
        scale = self.p ** r
        actions = {x: FpMatrix.zeros(self.p, self.dim, self.dim)
                   for x in self.algebra.generators}
        labels = [f"{a}({r})" for a in self.labels]
        return WeightModule(self.algebra, labels,
                            [w * scale for w in self.weights], actions)

    def frobenius_untwist_weights(self) -> "WeightModule":
        """Divide all weights by p on a module with trivial infinitesimal
        action.  The result is torus-weighted data: h picks up the new
        weight scalars, the nilpotent actions stay zero, and the full Lie
        invariants are only rechecked when they can hold (new weights
        still divisible by p)."""
        p = self.p
        if any(w % p for w in self.weights):
            raise ValueError("untwist needs all weights divisible by p")
        for x in self.algebra.generators:
            if x != "h" and not self.maps[x].is_zero():
                raise ValueError("untwist needs a trivial nilpotent action")
        new_weights = [w // p for w in self.weights]
        actions = {x: FpMatrix.zeros(p, self.dim, self.dim)
                   for x in self.algebra.generators}
        if "h" in self.algebra.generators:
            actions["h"] = FpMatrix(p, np.diag(
                np.array(new_weights, dtype=np.int64) % p))
        full = all(w % p == 0 for w in new_weights)
        return WeightModule(self.algebra, self.labels, new_weights, actions,
                            validate=full)

    def submodule(self, columns: GradedMap, prefix: str = "s") -> "WeightModule":
        """Restrict actions to the span of a column set into this module,
        each solved into blocks on the column grading.

        Raises if the span is not stable under every generator.
        """
        if columns.grading is not self.grading or columns.shift:
            raise ValueError("columns do not lie in this module")
        labels = [f"{prefix}{k}" for k in range(columns.shape[1])]
        actions = {}
        for x in self.algebra.generators:
            try:
                actions[x] = graded_solve(columns, self.maps[x] @ columns)
            except ValueError as exc:
                raise ValueError(f"span is not stable under {x}") from exc
        return WeightModule(self.algebra, labels, columns.source, actions)


# -- monomial constructions ----------------------------------------------


def _monomials(ngens: int, degree: int, cap):
    """Exponent tuples of the given total degree in lex order, first
    generator most significant; cap limits each exponent (None = no cap)."""
    if ngens == 1:
        if cap is None or degree <= cap:
            yield (degree,)
        return
    top = degree if cap is None else min(cap, degree)
    for a in range(top + 1):
        for rest in _monomials(ngens - 1, degree - a, cap):
            yield (a,) + rest


def monomial_label(exps, generators) -> str:
    parts = []
    for g, a in zip(generators, exps):
        if a == 1:
            parts.append(g)
        elif a > 1:
            parts.append(f"{g}^{a}")
    return "*".join(parts) if parts else "1"


def _derivation(alg: RestrictedLieAlgebra, exps: np.ndarray, grading: Grading, x: str,
                cap) -> GradedMap:
    """Adjoint action of x on the monomials with exponent rows exps by the
    Leibniz rule, scattered into weight blocks; a monomial is found by its
    exponents read as digits.  Terms whose exponent reaches cap+1 are
    dropped (the p-th power ideal)."""
    gens, unit = alg.generators, np.eye(alg.dim, dtype=np.int64)
    digit = (exps.max(initial=0) + 2) ** np.arange(alg.dim - 1, -1, -1)
    codes = exps @ digit
    order, terms = np.argsort(codes), [(np.zeros(0, dtype=np.int64),) * 3]
    for i, g in enumerate(gens):
        for z, c in alg.bracket_coeffs(x, g).items():
            new, zi = exps - unit[i] + unit[gens.index(z)], gens.index(z)
            j = np.flatnonzero((exps[:, i] > 0) & (cap is None or new[:, zi] <= cap))
            terms.append((order[np.searchsorted(codes, new[j] @ digit, sorter=order)],
                          j, exps[j, i] * c))
    return GradedMap.scatter(alg.p, grading, alg.weight(x), *map(np.concatenate, zip(*terms)))


def _monomial_module(alg: RestrictedLieAlgebra, degrees, cap) -> WeightModule:
    """The monomials of the given degrees, degree by degree, with the
    adjoint derivation action."""
    basis = [e for n in degrees for e in _monomials(alg.dim, n, cap)]
    exps = np.array(basis, dtype=np.int64).reshape(len(basis), alg.dim)
    grading = Grading(exps @ np.array(alg.weights, dtype=np.int64))
    labels = [monomial_label(e, alg.generators) for e in basis]
    actions = {x: _derivation(alg, exps, grading, x, cap) for x in alg.generators}
    mod = WeightModule(alg, labels, grading, actions)
    mod.exponents = basis
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
    code sum."""

    def __init__(self, alg: RestrictedLieAlgebra):
        p = alg.p
        cap = p - 1
        self.algebra = alg
        self.p = p
        self.top_degree = cap * alg.dim
        self.module = _monomial_module(alg, range(self.top_degree + 1), cap)
        basis = self.exponents = self.module.exponents
        self.degrees = tuple(sum(e) for e in basis)
        self.index = {e: k for k, e in enumerate(basis)}
        self.unit_index = self.index[(0,) * alg.dim]
        self._codes = np.array(basis, dtype=np.int64) @ (
            p ** np.arange(alg.dim - 1, -1, -1, dtype=np.int64))
        self._at_code = np.empty(len(basis), dtype=np.int64)
        self._at_code[self._codes] = np.arange(len(basis))
        self._degree = np.array(self.degrees, dtype=np.int64)

    @property
    def dim(self) -> int:
        return self.module.dim

    def unit_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.unit_index] = 1
        return v

    def mult(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """Bilinear product of coefficient vectors in the monomial basis."""
        nz1 = np.nonzero(v1)[0]
        nz2 = np.nonzero(v2)[0]
        sums = self._codes[nz1, None] + self._codes[nz2]
        ok = sums < self.dim
        target = self._at_code[np.where(ok, sums, 0)]
        ok &= self._degree[target] == self._degree[nz1, None] + self._degree[nz2]
        coeffs = v1[nz1, None] * v2[nz2]
        out = np.zeros(self.dim, dtype=np.int64)
        np.add.at(out, target[ok], coeffs[ok])
        return out % self.p


# -- standard small modules ----------------------------------------------


def weight_line(alg: RestrictedLieAlgebra, w: int) -> WeightModule:
    actions = {x: FpMatrix.zeros(alg.p, 1, 1) for x in alg.generators}
    if "h" in alg.generators:
        actions["h"] = FpMatrix(alg.p, [[w % alg.p]])
    return WeightModule(alg, (f"<{w}>",), (w,), actions)


def trivial_module(alg: RestrictedLieAlgebra) -> WeightModule:
    return weight_line(alg, 0)


def simple_model(lam: int, p: int) -> WeightModule:
    """The restricted simple sl2-module L(lam) for 0 <= lam <= p-1.

    Basis v_0..v_lam with h v_i = (lam-2i) v_i, f v_i = (i+1) v_{i+1},
    e v_i = (lam-i+1) v_{i-1}.
    """
    if not 0 <= lam <= p - 1:
        raise ValueError("simple_model needs a restricted weight")
    alg = sl2(p)
    n = lam + 1
    e = np.zeros((n, n), dtype=np.int64)
    f = np.zeros((n, n), dtype=np.int64)
    h = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        h[i, i] = (lam - 2 * i) % p
        if i + 1 < n:
            f[i + 1, i] = i + 1
            e[i, i + 1] = lam - i
    labels = [f"v{i}" for i in range(n)]
    weights = [lam - 2 * i for i in range(n)]
    actions = {"e": FpMatrix(p, e), "h": FpMatrix(p, h), "f": FpMatrix(p, f)}
    return WeightModule(alg, labels, weights, actions)


def simple_module(lam: int, p: int) -> WeightModule:
    """L(lam) for any lam >= 0 by Steinberg digits: restricted factors
    tensored with Frobenius twists."""
    if lam < 0:
        raise ValueError("dominant weight required")
    digits = []
    m = lam
    while True:
        digits.append(m % p)
        m //= p
        if m == 0:
            break
    out = simple_model(digits[0], p)
    for r, d in enumerate(digits[1:], start=1):
        out = out.tensor(simple_model(d, p).frobenius_twist(r))
    return out


# -- Casimir blocks and projections ----------------------------------------


def _checked_casimir(M: WeightModule) -> GradedMap:
    c = casimir_operator(M)
    for x in M.algebra.generators:
        if not (c @ M.maps[x] - M.maps[x] @ c).is_zero():
            raise ValueError(f"Casimir does not commute with the action of {x}")
    return c


def casimir_blocks(M: WeightModule) -> dict[int, GradedMap]:
    """Generalized eigenspace of the Casimir per eigenvalue, a column set.

    The character polynomial must split over F_p (weights are rational),
    so the eigenspace dimensions add up to dim M; otherwise this raises.
    The columns come by weight, then by free index, as the eigenspaces of
    each whole weight block would give them.
    """
    blocks = graded_eigenspaces(_checked_casimir(M))
    if sum(cols.shape[1] for cols in blocks.values()) != M.dim:
        raise ValueError("Casimir characteristic polynomial does not split")
    return blocks


def block_projection_principal(M: WeightModule) -> WeightModule:
    """Projection onto the principal block: the generalized 0-eigenspace
    of the Casimir for p >= 3; the identity for p = 2."""
    if M.p == 2 or M.dim == 0:
        return M
    return _principal_part(M, casimir_blocks(M))


def _principal_part(M: WeightModule, blocks) -> WeightModule:
    """The submodule on the 0-block of M's Casimir blocks."""
    cols = blocks[0] if 0 in blocks else column_set(M.p, M.grading, [])
    return M.submodule(cols, prefix="blk")


def principal_block_projector(M: WeightModule) -> GradedMap:
    """Idempotent map projecting onto the principal block along the other
    Casimir blocks (identity for p = 2).  It does not depend on the basis,
    so it is built on each component of the Casimir's support."""
    if M.p == 2:
        return GradedMap.cut(FpMatrix.identity(M.p, M.dim), M.grading, 0)
    return graded_projector(_checked_casimir(M))


# -- Hom spaces, duality pairing, invariants -------------------------------


def module_hom_dim(M: WeightModule, N: WeightModule) -> int:
    """Dimension of weight-preserving module homomorphisms M -> N.

    Solutions are matrices Phi with Phi action_M(x) = action_N(x) Phi for
    every generator and Phi supported on equal-weight entry pairs, i.e.
    Hom in the weight-graded (G_1 T) sense.
    """
    if M.algebra.generators != N.algebra.generators or M.p != N.p:
        raise ValueError("hom spaces need modules over the same algebra")
    p = M.p
    if M.dim == 0 or N.dim == 0:
        return 0
    allowed = [(i, j) for i in range(N.dim) for j in range(M.dim)
               if N.weights[i] == M.weights[j]]
    if not allowed:
        return 0
    cols = [i * M.dim + j for i, j in allowed]
    eyeN = np.eye(N.dim, dtype=np.int64)
    eyeM = np.eye(M.dim, dtype=np.int64)
    stacks = []
    for x in M.algebra.generators:
        a = N.action(x).a
        b = M.action(x).a
        sys = np.kron(a, eyeM) - np.kron(eyeN, b.T)
        stacks.append(sys[:, cols])
    big = FpMatrix(p, np.concatenate(stacks, axis=0))
    return len(allowed) - big.rank()


def duality_pairing_rank(alg: RestrictedLieAlgebra, i: int) -> int:
    """Rank of the multiplication pairing S^i x S^(N-i) -> S^N (top line)."""
    p = alg.p
    cap = p - 1
    top = cap * alg.dim
    if i < 0 or i > top:
        raise ValueError(f"degree {i} outside [0, {top}]")
    left = list(_monomials(alg.dim, i, cap))
    right = list(_monomials(alg.dim, top - i, cap))
    target = tuple(cap for _ in range(alg.dim))
    m = np.zeros((len(left), len(right)), dtype=np.int64)
    for a, ea in enumerate(left):
        for b, eb in enumerate(right):
            if tuple(x + y for x, y in zip(ea, eb)) == target:
                m[a, b] = 1
    return FpMatrix(p, m).rank()


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
        if char == weyl_chi(2):
            alg = M.algebra
            fam = "Delta" if module_hom_dim(trivial_module(alg), M) else "Nabla"
            return DecompList([(fam, 2, 1)])
        raise ValueError("p=2 module outside the supported label patterns")
    return _class_labels(casimir_blocks(M), p)


def _class_labels(blocks, p: int) -> DecompList:
    """summand_labels for odd p, read off the Casimir blocks."""
    entries = []
    for lam, cols in sorted(blocks.items()):
        char = LaurentCharacter.from_weights(cols.source.weights.tolist())
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
