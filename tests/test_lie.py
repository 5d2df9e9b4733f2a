"""Rank-one restricted Lie algebras and the Casimir."""

import pytest

from frobcoho.lie import (
    borel,
    casimir_operator,
    nilradical,
    sl2,
)
from frobcoho.wmodules import simple_model, trivial_module, truncated_sym

PRIMES = (2, 3, 5, 7, 11, 13)


def test_defining_relation_e_f():
    g = sl2(5)
    assert g.bracket_coeffs("e", "f") == {"h": 1}
    assert g.bracket_coeffs("f", "e") == {"h": 4}  # antisymmetry mod 5


def test_ad_e_is_nilpotent_of_order_p():
    g = sl2(3)
    ade = g.ad("e")
    assert not (ade ** 3).stack.any()


def test_p_power_of_h_matches_ad_power():
    g = sl2(7)
    adh = g.ad("h")
    assert (adh ** 7 - adh).is_zero()  # h^[7] = h, and 2^7 = 2 mod 7


def test_validation_sweep():
    for p in PRIMES:
        for alg in (sl2(p), borel(p), nilradical(p)):
            alg.validate()  # raises on a Jacobi or restrictedness failure


def test_borel_and_nilradical_shapes():
    b = borel(3)
    assert b.dim == 2 and b.weights == (0, -2)
    u = nilradical(5)
    assert u.dim == 1 and u.bracket_coeffs("f", "f") == {}
    assert u.p_power == {"f": {}}


def test_borel_bracket_dies_mod_2():
    b = borel(2)
    assert b.bracket_coeffs("h", "f") == {}
    assert b.ad("h").is_zero()


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        sl2(9)


def test_casimir_trivial_module_is_zero():
    for p in (3, 5, 7):
        assert casimir_operator(trivial_module(sl2(p))).is_zero()


def test_casimir_eigenvalue_on_highest_weight():
    # adjoint module = first truncated power; highest weight 2
    p = 5
    adj = truncated_sym(sl2(p), 1)
    c = casimir_operator(adj)
    hw = adj.weights.index(2)
    col = c.dense().a[:, hw]
    assert col[hw] == (2 * 4 * pow(2, p - 2, p)) % p == 4
    # L(p-2) sits in the principal block: eigenvalue 0
    for p in (3, 5, 7):
        st = simple_model(p - 2, p)
        cm = casimir_operator(st)
        assert cm.is_zero() or all(cm.dense().a[i, i] == 0 for i in range(st.dim))


def test_casimir_commutes_with_all_actions():
    for p in (3, 5):
        m = truncated_sym(sl2(p), 3)
        c = casimir_operator(m)
        for x in ("e", "h", "f"):
            a = m.maps[x]
            assert (c @ a - a @ c).is_zero()
            assert c.dense() @ m.action(x) == m.action(x) @ c.dense()


def test_casimir_needs_odd_p():
    with pytest.raises(ValueError):
        casimir_operator(trivial_module(sl2(2)))


def test_weight_additivity_is_enforced():
    # a bracket violating weight additivity must be rejected
    from frobcoho.lie import RestrictedLieAlgebra

    with pytest.raises(ValueError):
        RestrictedLieAlgebra(
            p=3, generators=("h", "f"),
            bracket={("h", "f"): {"h": 1}},  # weight(-2) target weight 0
            p_power={"h": {"h": 1}, "f": {}},
        )
