"""Weight modules: constructions, projections, Hom spaces, fingerprints."""

from functools import lru_cache
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoho.characters import (
    LaurentCharacter,
    simple_char,
    tilting_char,
    weyl_chi,
)
from frobcoho.fpmatrix import FpMatrix, GradedMap, Grading, frobenius_power
from frobcoho.lie import borel, casimir_operator, nilradical, sl2
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    _monomial_module,
    block_projection_principal,
    casimir_blocks,
    duality_pairing_rank,
    g1_invariants,
    module_hom_dim,
    principal_block_projector,
    simple_model,
    simple_module,
    summand_labels,
    sym_power,
    tilting_t2p2_model,
    trivial_module,
    truncated_sym,
    weight_line,
)
from frobcoho.verify import verify_propositions
from oracles import (
    assert_same_module,
    dense_dual,
    dense_simple_model,
    dense_tensor,
    dense_twist,
    dense_weight_line,
    kronecker_hom_dim,
    rank,
    reference_monomials,
    reference_mult,
    solve,
)

PRIMES = (2, 3, 5, 7)


def brute_monomial_count(dim, degree, cap):
    return sum(1 for exps in cartesian(range(cap + 1), repeat=dim)
               if sum(exps) == degree)


def test_truncated_sym_dimensions():
    assert truncated_sym(sl2(5), 6).dim == 19
    assert truncated_sym(sl2(5), 6).dim == brute_monomial_count(3, 6, 4)
    for p in PRIMES:
        total = sum(truncated_sym(sl2(p), n).dim for n in range(3 * (p - 1) + 1))
        assert total == p ** 3
        assert sum(truncated_sym(borel(p), n).dim
                   for n in range(2 * (p - 1) + 1)) == p ** 2
    with pytest.raises(ValueError):
        truncated_sym(sl2(3), 7)


def test_truncated_sym_row_character_p3():
    piece = truncated_sym(sl2(3), 3)
    assert piece.dim == 7
    assert piece.character() == simple_char(4, 3) + tilting_char(2, 3)


def test_sym_power_characters():
    assert sym_power(sl2(5), 3).dim == 10
    assert sym_power(sl2(7), 3).character() == weyl_chi(6) + weyl_chi(2)
    s0 = sym_power(sl2(3), 0)
    assert s0.dim == 1 and s0.weights == (0,)


def test_derivation_leibniz_on_sampled_pairs():
    for p in (3, 5):
        alg = TruncatedSymAlgebra(sl2(p))
        M = alg.module
        rng = np.random.default_rng(p)
        for x in ("e", "h", "f"):
            a = M.action(x).a
            for _ in range(6):
                i, j = rng.integers(0, alg.dim, size=2)
                vi = np.zeros(alg.dim, dtype=np.int64)
                vj = np.zeros(alg.dim, dtype=np.int64)
                vi[i] = 1
                vj[j] = 1
                lhs = (a @ alg.mult(vi, vj)) % p
                rhs = (alg.mult((a @ vi) % p, vj) + alg.mult(vi, (a @ vj) % p)) % p
                assert np.array_equal(lhs, rhs)


def test_tensor_dual_untwist():
    p = 5
    L1 = simple_model(1, p)
    sq = L1.tensor(L1)
    assert sq.character() == LaurentCharacter({2: 1, 0: 2, -2: 1})
    M = truncated_sym(sl2(3), 2)
    assert M.dual().dual().character() == M.character()


def test_frobenius_twist_roundtrip():
    p = 3
    L1 = simple_model(1, p)
    tw = L1.frobenius_twist()
    assert tw.weights == (3, -3)
    assert not any(tw.action(x).a.any() for x in ("e", "h", "f"))
    assert tw.character().untwist(p) == L1.character()


@pytest.mark.parametrize("r", [0, -1])
def test_frobenius_twist_needs_positive_exponent(r):
    for M in (truncated_sym(borel(3), 1), simple_model(1, 3)):
        with pytest.raises(ValueError, match=f"r = {r}"):
            M.frobenius_twist(r)


def test_validate_rejects_h_off_the_weight_scalars():
    """Bracket and restricted relations hold, but h does not act by the
    weights: a zero action on weight 2, and the natural representation
    placed on weights 0, -2 (h acts by 1, -1, not by 0, -2)."""
    p, alg = 3, sl2(3)
    zero = {x: FpMatrix(p, [[0]]) for x in alg.generators}
    with pytest.raises(ValueError, match="h does not act by the weight scalars"):
        WeightModule(alg, ["v"], [2], zero)
    natural = {x: simple_model(1, p).action(x) for x in alg.generators}
    with pytest.raises(ValueError, match="h does not act by the weight scalars"):
        WeightModule(alg, ["v0", "v1"], [0, -2], natural)
    assert WeightModule(alg, ["v0", "v1"], [4, 2], natural).weights == (4, 2)


def test_block_projection_examples():
    # Steinberg row is outside the principal block
    assert block_projection_principal(truncated_sym(sl2(3), 1)).dim == 0
    triv = trivial_module(sl2(5))
    assert block_projection_principal(triv).dim == 1
    # p=5, n=6: only T(8) is principal (L(6) and T(4) are cut)
    M0 = block_projection_principal(truncated_sym(sl2(5), 6))
    assert M0.dim == 10
    assert M0.character() == tilting_char(8, 5)
    # p=2: identity
    M = truncated_sym(sl2(2), 1)
    assert block_projection_principal(M) is M


def test_block_decomposition_is_exhaustive_and_stable():
    for p in (3, 5):
        for n in (2, 3, p + 1):
            M = truncated_sym(sl2(p), n)
            blocks = casimir_blocks(M)
            assert sum(cols.shape[1] for cols in blocks.values()) == M.dim
            char_sum = LaurentCharacter.zero()
            for cols in blocks.values():
                char_sum = char_sum + LaurentCharacter.from_weights(cols.source.weights.tolist())
            assert char_sum == M.character()
            M0 = block_projection_principal(M)
            M0.validate()
            again = block_projection_principal(M)
            assert again.character() == M0.character()
            # idempotence: the projected module is entirely principal
            if M0.dim:
                assert block_projection_principal(M0).dim == M0.dim


def test_principal_block_projector_idempotent():
    for p in (3, 5):
        M = truncated_sym(sl2(p), p - 1)
        proj = principal_block_projector(M)
        assert (proj @ proj).dense() == proj.dense()
        assert rank(proj.dense().a, p) == block_projection_principal(M).dim


def test_module_hom_dim_basics():
    g3 = sl2(3)
    k = trivial_module(g3)
    assert module_hom_dim(k, k) == 1
    assert module_hom_dim(k, truncated_sym(g3, 3)) == 0


def test_module_hom_dim_socle_of_projective_cover():
    for p in (3, 5):
        q0 = tilting_t2p2_model(p)
        assert q0.dim == 2 * p
        g = sl2(p)
        assert module_hom_dim(trivial_module(g), q0) == 1
        for tau in (-p, 0, p):
            st2 = simple_model(p - 2, p)
            if tau:
                st2 = st2.tensor(weight_line(g, tau))
            assert module_hom_dim(st2, q0) == 0


def test_duality_pairing_rank():
    assert duality_pairing_rank(sl2(3), 0) == 1
    assert duality_pairing_rank(sl2(3), 3) == 7
    b5 = borel(5)
    for i in range(2 * 4 + 1):
        assert duality_pairing_rank(b5, i) == truncated_sym(b5, i).dim


def _break_top_code(alg):
    alg._at_code[alg.dim - 1] = alg.unit_index  # the top code, every digit p-1


def _break_code(alg):
    alg._codes[alg.degrees.index(1)] += 1


def _break_code_across_weights(alg):  # sl2 and b: two monomials of degree one
    alg._codes[alg.degrees.index(1)] = alg._codes[len(alg.degrees) - 1 - alg.degrees[::-1].index(1)]


BREAKS = {"sl2": (_break_top_code, _break_code, _break_code_across_weights),
          "b": (_break_top_code, _break_code, _break_code_across_weights),
          "u": (_break_top_code, _break_code)}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name, make", [("sl2", sl2), ("b", borel), ("u", nilradical)])
def test_duality_ranks_fail_on_a_broken_product(p, name, make):
    """A broken product either loses rank or pairs unmatched weights."""
    dims = [truncated_sym(make(p), i).dim for i in range((p - 1) * make(p).dim + 1)]
    assert TruncatedSymAlgebra(make(p)).duality_ranks() == dims
    for brk in BREAKS[name]:
        alg = TruncatedSymAlgebra(make(p))
        brk(alg)
        try:
            assert alg.duality_ranks() != dims, brk.__name__
        except ValueError as exc:
            assert "unmatched weights" in str(exc)


def test_duality_ranks_reject_products_across_weights():
    alg = TruncatedSymAlgebra(sl2(3))
    _break_code_across_weights(alg)  # f takes the code of e
    with pytest.raises(ValueError, match="unmatched weights"):
        alg.duality_ranks()


def test_duality_check_reads_each_complement_product(monkeypatch):
    """A product that refuses only the pair (unit, top monomial) costs the
    degree-0 rank: each complement product is read, not assumed."""
    products = TruncatedSymAlgebra._products

    def refusing(self, i1, i2):
        target, ok = products(self, i1, i2)
        return target, ok & ~((i1 == self.unit_index) & (i2 == self._at_code[self.dim - 1]))

    monkeypatch.setattr(TruncatedSymAlgebra, "_products", refusing)
    assert TruncatedSymAlgebra(sl2(3)).duality_ranks() == [0, 3, 6, 7, 6, 3, 1]
    failed = {c.name for c in verify_propositions(3).checks if c.status == "fail"}
    assert failed == {"duality-full-rank-sl2", "duality-full-rank-b", "duality-full-rank-u"}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name, first, brk", [
    (name, first, brk) for name, first in (("sl2", "e"), ("b", "h"), ("u", "f"))
    for brk in BREAKS[name]])
def test_duality_check_fails_on_a_broken_product(p, name, first, brk, monkeypatch):
    build = TruncatedSymAlgebra.__init__

    def broken(self, alg):
        build(self, alg)
        if alg.generators[0] == first:
            brk(self)

    monkeypatch.setattr(TruncatedSymAlgebra, "__init__", broken)
    failed = [c.name for c in verify_propositions(p).checks if c.status == "fail"]
    assert f"duality-full-rank-{name}" in failed


def test_duality_character_with_top_twist():
    for p in (2, 3, 5):
        for alg in (sl2(p), borel(p), nilradical(p)):
            top = (p - 1) * alg.dim
            top_weight = (p - 1) * sum(alg.weights)
            for i in range(top + 1):
                lhs = truncated_sym(alg, i).character()
                rhs = truncated_sym(alg, top - i).dual().character() * \
                    LaurentCharacter.line(top_weight)
                assert lhs == rhs


def test_g1_invariants():
    g3 = sl2(3)
    k = trivial_module(g3)
    assert g1_invariants(k).dim == 1
    assert g1_invariants(simple_model(1, 3)).dim == 0
    total = sum(g1_invariants(truncated_sym(g3, n)).dim for n in range(7))
    assert total == 4
    inv = g1_invariants(truncated_sym(g3, 2))
    assert inv.dim == 1 and inv.weights == (0,)


def test_simple_model_and_module():
    for p in (2, 3, 5, 7):
        for lam in range(p):
            L = simple_model(lam, p)
            assert L.dim == lam + 1
            assert sorted(L.weights) == list(range(-lam, lam + 1, 2))
    assert simple_module(4, 3).character() == simple_char(4, 3)
    assert simple_module(12, 7).character() == simple_char(12, 7)
    with pytest.raises(ValueError):
        simple_model(5, 3)
    for p in (0, 1, 4):  # unchecked, p = 1 would never end
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            simple_module(3, p)


def test_validation_rejects_broken_action():
    g3 = sl2(3)
    M = truncated_sym(g3, 1)
    bad = {x: M.action(x) for x in g3.generators}
    from frobcoho.fpmatrix import FpMatrix

    bad["e"] = FpMatrix(3, np.eye(3, dtype=np.int64))  # not weight-compatible
    with pytest.raises(ValueError):
        WeightModule(g3, M.labels, M.weights, bad)


def test_scattered_small_modules_equal_the_dense_ones():
    for p in (2, 3, 5, 7, 11, 13):
        for lam in range(p):
            assert_same_module(simple_model(lam, p), dense_simple_model(lam, p))
        for alg, ws in ((sl2(p), (-p, 0, 2 * p)), (borel(p), range(-p, p + 1)),
                        (nilradical(p), (-2, 0, 1))):
            for w in ws:
                assert_same_module(weight_line(alg, w), dense_weight_line(alg, w))
        if p > 2:  # h acts on an sl2 line by its weight, so only multiples of p pass
            with pytest.raises(ValueError, match=r"bracket compatibility fails on \(e,f\)"):
                dense_weight_line(sl2(p), 1)
            with pytest.raises(ValueError, match="got w = 1"):
                weight_line(sl2(p), 1)


def test_weight_line_constraints():
    assert weight_line(sl2(5), 10).weights == (10,)
    for p, w in ((5, 3), (5, -1), (2, 1), (3, 4)):
        with pytest.raises(ValueError, match=f"got w = {w}$"):
            weight_line(sl2(p), w)  # h-scalar forces w = 0 mod p for sl2
    assert weight_line(borel(5), 3).weights == (3,)  # fine on the Borel


def test_summand_labels_against_fixture_rows():
    from frobcoho.verify import load_fixture

    for p in PRIMES:
        fx = load_fixture(p)
        g = sl2(p)
        for row in fx.rows:
            dec = summand_labels(truncated_sym(g, row.n))
            got = {}
            for fam, w, m in dec.entries:
                key = ("T", w) if fam in ("T", "L") and w <= p - 1 else (fam, w)
                got[key] = got.get(key, 0) + m
            want = {}
            for fam, w in row.summands:
                key = ("T", w) if fam in ("T", "L") and w <= p - 1 else (fam, w)
                want[key] = want.get(key, 0) + 1
            assert got == want, (p, row.n, dec.format())


def test_truncated_algebra_product():
    alg = TruncatedSymAlgebra(sl2(3))
    unit = alg.unit_vector()
    v = np.zeros(alg.dim, dtype=np.int64)
    v[alg.index[(1, 0, 0)]] = 1  # the element e
    assert np.array_equal(alg.mult(unit, v), v)
    sq = alg.mult(v, v)
    assert sq[alg.index[(2, 0, 0)]] == 1
    cube = alg.mult(sq, v)
    assert not cube.any()  # e^3 = 0 after truncation


@lru_cache(maxsize=None)
def _algebra(name, p):
    return TruncatedSymAlgebra({"sl2": sl2, "b": borel, "u": nilradical}[name](p))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("sl2", "b", "u")), st.sampled_from((2, 3, 5)), st.data())
def test_mult_matches_exponent_addition(name, p, data):
    alg = _algebra(name, p)

    def sparse_vector():
        entries = data.draw(st.dictionaries(st.integers(0, alg.dim - 1),
                                            st.integers(1, p - 1), max_size=8))
        v = np.zeros(alg.dim, dtype=np.int64)
        v[list(entries)] = list(entries.values())
        return v

    v1, v2 = sparse_vector(), sparse_vector()
    assert alg.mult(v1, v2).tolist() == reference_mult(alg, v1, v2)


def test_mult_takes_two_vectors_of_the_algebra_dimension():
    alg = TruncatedSymAlgebra(sl2(3))
    unit, long = alg.unit_vector(), np.append(alg.unit_vector(), 0)
    for v1, v2 in ((unit[:5], unit[:5]), (long, unit), (unit, long)):
        with pytest.raises(ValueError, match="shape mismatch"):
            alg.mult(v1, v2)
    assert alg.mult(unit.tolist(), unit.tolist()).tolist() == unit.tolist()

def test_submodule_rejects_unstable_span():
    M = truncated_sym(sl2(3), 1)
    e_line = np.zeros((M.dim, 1), dtype=np.int64)
    e_line[M.labels.index("e")] = 1
    # e and h keep the line of e; f sends e to -h
    with pytest.raises(ValueError, match="span is not stable under f"):
        M.submodule(GradedMap.cut(FpMatrix(3, e_line), M.grading, 0, Grading([2])))


def test_submodule_actions_equal_dense_solve():
    p = 5
    for n in range(3 * (p - 1) + 1):
        M = truncated_sym(sl2(p), n)
        blocks = casimir_blocks(M)
        if 0 not in blocks:
            continue
        sub = M.submodule(blocks[0])
        cols = blocks[0].dense()
        for x in M.algebra.generators:
            assert sub.action(x) == FpMatrix(p, solve(cols.a, (M.action(x) @ cols).a, p)), (n, x)


def test_submodule_solves_every_generator_at_once(monkeypatch):
    """One stacked solve for all generators; when several leave the span,
    the error names the first in generator order."""
    from frobcoho import fpmatrix

    M, calls = truncated_sym(sl2(5), 2), []
    reduce = fpmatrix._rref_stack

    def counted(a, p):
        calls.append(a.shape)
        return reduce(a, p)

    blocks = casimir_blocks(M)
    monkeypatch.setattr(fpmatrix, "_rref_stack", counted)
    M.submodule(blocks[0])
    assert len(calls) == 1
    ef_line = np.zeros((M.dim, 1), dtype=np.int64)
    ef_line[M.labels.index("e*f")] = 1  # e and f both move e*f off its line
    with pytest.raises(ValueError, match="span is not stable under e"):
        M.submodule(GradedMap.cut(FpMatrix(5, ef_line), M.grading, 0, Grading([0])))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("make", [sl2, borel, nilradical], ids=["sl2", "b", "u"])
def test_basis_data_built_on_first_read_equals_the_eager_reference(p, make):
    g = make(p)
    alg, ref = TruncatedSymAlgebra(g), reference_monomials(g)
    n = min(2, alg.top_degree)  # u at p = 2 stops at degree 1
    M, one, two = alg.module, truncated_sym(g, 1), truncated_sym(g, n)
    # derived modules are built before any label is read
    derived = [(one.tensor(two.dual()), [f"{a}*{b}^" for a in _piece(ref, 1) for b in _piece(ref, n)]),
               (one.frobenius_twist(2), [f"{a}(2)" for a in _piece(ref, 1)]),
               (M.submodule(GradedMap.identity(p, M.grading), prefix="t"),
                [f"t{k}" for k in range(alg.dim)])]
    for mod, want in derived:
        assert mod.labels == tuple(want)
    assert (M.labels, M.weights) == (ref["labels"], ref["weights"])
    assert (alg.exponents, alg.degrees, alg.index, alg.unit_index) == (
        ref["exponents"], ref["degrees"], ref["index"], ref["unit_index"])
    assert two.labels == tuple(_piece(ref, n))
    with pytest.raises(ValueError, match="one label per weight"):
        WeightModule(g, one.labels[1:], one.grading, one.maps)


def _piece(ref: dict, n: int) -> list[str]:
    return [label for label, d in zip(ref["labels"], ref["degrees"]) if d == n]


# -- the constructions against their dense routes ---------------------------
#
# Each oracle (tests/oracles.py) builds its module from dense FpMatrix
# actions, with np.kron and transposes, and lets WeightModule cut them;
# the library scatters the entries of the factors' blocks instead.


ALGEBRAS = {"sl2": sl2, "b": borel, "u": nilradical}


def _base_modules(alg):
    """Small modules over alg: truncated and ordinary symmetric powers, a
    monomial module of two degrees (graded by weight and degree), weight
    lines and, over sl2, simple modules up to lam = p + 1."""
    p = alg.p
    mods = [truncated_sym(alg, n) for n in range(min(4, (p - 1) * alg.dim) + 1)]
    mods += [sym_power(alg, n) for n in range(3)] + [_monomial_module(alg, range(2), p - 1)]
    if alg.dim == 3:
        mods += [simple_module(lam, p) for lam in range(p + 2)]
        mods += [weight_line(alg, w) for w in (-p, 0, 2 * p)]
    else:
        mods += [weight_line(alg, w) for w in (-3, 0, 1, 2 * p)]
    return [M for M in mods if M.dim <= 10]


@st.composite
def weight_modules(draw, alg=None):
    """A small module over sl2, b or u, possibly in a new basis: a random
    change of basis within each weight space, then a shuffle of the basis,
    applied to the dense actions."""
    if alg is None:
        alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))](draw(st.sampled_from(PRIMES)))
    M = draw(st.sampled_from(_base_modules(alg)))
    if not draw(st.booleans()):
        return M
    p, n = alg.p, M.dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.array(M.weights, dtype=np.int64)
    q = np.eye(n, dtype=np.int64)
    for weight in set(M.weights):  # unit lower times unit upper: invertible
        idx = np.flatnonzero(w == weight)
        one, k = np.eye(idx.size, dtype=np.int64), (idx.size, idx.size)
        lower = np.tril(rng.integers(0, p, size=k), -1) + one
        upper = np.triu(rng.integers(0, p, size=k), 1) + one
        q[np.ix_(idx, idx)] = lower @ upper % p
    perm = rng.permutation(n)
    basis = FpMatrix(p, q[:, perm])
    inverse = FpMatrix(p, solve(basis.a, np.eye(n, dtype=np.int64), p))
    actions = {x: inverse @ M.action(x) @ basis for x in alg.generators}
    return WeightModule(alg, [M.labels[k] for k in perm], [M.weights[k] for k in perm], actions)


@st.composite
def module_pairs(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))](draw(st.sampled_from(PRIMES)))
    return draw(weight_modules(alg)), draw(weight_modules(alg))


@st.composite
def odd_sl2_modules(draw):
    """A small sl2-module for odd p: a random module, its dual, or its
    tensor product with a second one."""
    alg = sl2(draw(st.sampled_from([p for p in PRIMES if p > 2])))
    M = draw(weight_modules(alg))
    kind = draw(st.sampled_from(("module", "dual", "tensor")))
    if kind == "dual":
        return M.dual()
    return M.tensor(draw(weight_modules(alg))) if kind == "tensor" else M


ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


@ORACLE_SETTINGS
@given(module_pairs())
def test_tensor_matches_the_kronecker_product(pair):
    A, B = pair
    assert_same_module(A.tensor(B), dense_tensor(A, B))


@ORACLE_SETTINGS
@given(weight_modules(), st.integers(1, 2))
def test_dual_and_twists_match_the_dense_ones(M, r):
    assert_same_module(M.dual(), dense_dual(M))
    assert_same_module(M.dual().dual(), dense_dual(dense_dual(M)))
    twisted = M.frobenius_twist(r)
    assert_same_module(twisted, dense_twist(M, r))


@ORACLE_SETTINGS
@given(odd_sl2_modules())
def test_every_sl2_module_has_a_central_split_casimir(M):
    """What validation proves, so the Casimir code no longer checks it: the
    Casimir commutes with every action, its eigenspaces at the Casimir
    values fill the module, its Frobenius power S has S^p = S, and the
    principal block is the eigenvalue-0 block."""
    c = casimir_operator(M)
    for x in M.algebra.generators:
        assert (c @ M.maps[x] - M.maps[x] @ c).is_zero(), x
    blocks = casimir_blocks(M)
    assert sum(cols.shape[1] for cols in blocks.values()) == M.dim
    s = frobenius_power(c)
    assert (s ** M.p - s).is_zero()
    principal = block_projection_principal(M)
    if 0 in blocks:
        assert_same_module(principal, M.submodule(blocks[0], prefix="blk"))
    else:
        assert principal.dim == 0


@ORACLE_SETTINGS
@given(module_pairs())
def test_module_hom_dim_matches_the_kronecker_rank(pair):
    A, B = pair
    assert module_hom_dim(A, B) == kronecker_hom_dim(A, B)
    assert module_hom_dim(B, A) == kronecker_hom_dim(B, A)
    assert module_hom_dim(A, A) == kronecker_hom_dim(A, A)


def test_simple_module_matches_dense_tensor_of_twists():
    for p in (2, 3, 5, 7):
        for lam in range(p * p + 2):
            digits, m = [], lam
            while True:
                digits.append(m % p)
                m //= p
                if not m:
                    break
            want = dense_simple_model(digits[0], p)
            for r, d in enumerate(digits[1:], start=1):
                want = dense_tensor(want, dense_twist(dense_simple_model(d, p), r))
            assert_same_module(simple_module(lam, p), want)


def test_hom_from_twisted_simples_into_truncated_pieces():
    # L(lam) (x) <tau> against every truncated piece, both ways, p <= 5
    for p in (2, 3, 5):
        g = sl2(p)
        pieces = [truncated_sym(g, n) for n in range(3 * (p - 1) + 1)]
        for lam in range(p):
            for tau in (-p, 0, p):
                L = simple_model(lam, p).tensor(weight_line(g, tau))
                for T in pieces:
                    assert module_hom_dim(L, T) == kronecker_hom_dim(L, T), (p, lam, tau)
                    assert module_hom_dim(T, L) == kronecker_hom_dim(T, L), (p, lam, tau)


def test_constructions_and_algebra_checks_stay_off_dense_matrices(monkeypatch):
    """tensor, dual, both twists, module_hom_dim and the Lie algebras' own
    validation build no FpMatrix, cut no dense map and densify none."""
    p = 5
    A, B = simple_model(3, p), truncated_sym(sl2(p), 2)
    counts = {"FpMatrix": 0, "cut": 0, "dense": 0}
    init, reduced = FpMatrix.__init__, FpMatrix.__dict__["_reduced"].__func__
    cut, dense = GradedMap.__dict__["cut"].__func__, GradedMap.dense

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FpMatrix, "__init__", counting("FpMatrix", init))
    monkeypatch.setattr(FpMatrix, "_reduced", classmethod(counting("FpMatrix", reduced)))
    monkeypatch.setattr(GradedMap, "cut", classmethod(counting("cut", cut)))
    monkeypatch.setattr(GradedMap, "dense", counting("dense", dense))
    A.tensor(B)
    B.dual()
    A.frobenius_twist(1)
    A.frobenius_twist(2)
    module_hom_dim(A, B.tensor(A))
    module_hom_dim(trivial_module(sl2(p)), B)
    for make in (sl2, borel, nilradical):
        for q in (2, 3, 7):
            make.__wrapped__(q).validate()
    assert counts == {"FpMatrix": 0, "cut": 0, "dense": 0}
    FpMatrix(p, [[0]])  # the counters see a dense construction
    assert counts["FpMatrix"] == 1


@pytest.mark.parametrize("read", [casimir_operator, summand_labels, block_projection_principal,
                                  casimir_blocks, principal_block_projector])
def test_casimir_readers_name_the_missing_generators(read):
    # a b- or u-module has no e (a u-module no h): ValueError, not KeyError
    with pytest.raises(ValueError, match="missing e$"):
        read(truncated_sym(borel(5), 2))
    with pytest.raises(ValueError, match="missing e, h$"):
        read(truncated_sym(nilradical(5), 2))
