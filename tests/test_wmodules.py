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
from frobcoho.fpmatrix import FpMatrix, GradedMap, Grading
from frobcoho.lie import borel, nilradical, sl2
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
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
    line = weight_line(sl2(p), 2 * p)
    assert line.frobenius_untwist_weights().weights == (2,)
    with pytest.raises(ValueError):
        weight_line(sl2(p), p).tensor(simple_model(1, p)).frobenius_untwist_weights()
    with pytest.raises(ValueError):
        simple_model(1, p).frobenius_untwist_weights()


def test_frobenius_twist_roundtrip():
    p = 3
    L1 = simple_model(1, p)
    tw = L1.frobenius_twist()
    assert tw.weights == (3, -3)
    assert all(tw.action(x).is_zero() for x in ("e", "h", "f"))
    assert tw.frobenius_untwist_weights().character() == L1.character()


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
        assert proj.dense().rank() == block_projection_principal(M).dim


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


def test_validation_rejects_broken_action():
    g3 = sl2(3)
    M = truncated_sym(g3, 1)
    bad = {x: M.action(x) for x in g3.generators}
    from frobcoho.fpmatrix import FpMatrix

    bad["e"] = FpMatrix(3, np.eye(3, dtype=np.int64))  # not weight-compatible
    with pytest.raises(ValueError):
        WeightModule(g3, M.labels, M.weights, bad)


def test_weight_line_constraints():
    assert weight_line(sl2(5), 10).weights == (10,)
    with pytest.raises(ValueError):
        weight_line(sl2(5), 3)  # h-scalar forces w = 0 mod p for sl2
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


def _reference_mult(alg, v1, v2):
    """Add exponent tuples; drop any product with an exponent above p-1."""
    out = [0] * alg.dim
    for i in np.flatnonzero(v1):
        for j in np.flatnonzero(v2):
            s = tuple(a + b for a, b in zip(alg.exponents[i], alg.exponents[j]))
            if max(s) <= alg.p - 1:
                out[alg.index[s]] += int(v1[i]) * int(v2[j])
    return [c % alg.p for c in out]


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
    assert alg.mult(v1, v2).tolist() == _reference_mult(alg, v1, v2)


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
            assert sub.action(x) == cols.solve(M.action(x) @ cols), (n, x)
