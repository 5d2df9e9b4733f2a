"""Periodic-complex cohomology, E2 pages, collapse bookkeeping, induction."""

import numpy as np
import pytest

from frobcoho.characters import LaurentCharacter, weyl_chi
from frobcoho.cohomology import (
    PeriodicCohomology,
    cochain_twist,
    collapse_check,
    e2_page,
    g1_cohomology_char,
    hh_table,
    ip_expected_dims,
    t1_invariants,
    u1_cohomology,
    u_cohomology,
)
from frobcoho.fpmatrix import FpMatrix
from frobcoho.lie import borel, nilradical, sl2
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    WeightModule,
    block_projection_principal,
    simple_model,
    tilting_t2p2_model,
    trivial_module,
    truncated_sym,
)


def line(w, m=1):
    return LaurentCharacter({w: m})


def regular_module(p):
    """k[f]/f^p with f acting by multiplication, graded by weight -2i."""
    u = nilradical(p)
    f = np.zeros((p, p), dtype=np.int64)
    for i in range(p - 1):
        f[i + 1, i] = 1
    return WeightModule(u, [f"f^{i}" for i in range(p)],
                        [-2 * i for i in range(p)], {"f": FpMatrix(p, f)})


def test_twists():
    assert [cochain_twist(3, n) for n in range(5)] == [0, 2, 6, 8, 12]
    assert [cochain_twist(2, n) for n in range(5)] == [0, 2, 4, 6, 8]


def test_u_cohomology_kostant_sweep():
    for p in (3, 5, 7, 11):
        for lam in range(p):
            L = simple_model(lam, p)
            assert u_cohomology(L, 0) == line(-lam)
            assert u_cohomology(L, 1) == line(lam + 2)
            assert u_cohomology(L, 2).is_zero()


def test_u_cohomology_trivial_and_borel_total():
    p = 5
    assert u_cohomology(trivial_module(sl2(p)), 0) == line(0)
    total = TruncatedSymAlgebra(borel(p)).module
    sel = t1_invariants(u_cohomology(total, 0), p)
    assert sel == line(0)


def test_u1_trivial_coefficients_weights():
    for p in (2, 3, 5):
        k = trivial_module(sl2(p))
        for n in range(7):
            c = u1_cohomology(k, n)
            assert c == line(cochain_twist(p, n))


def test_u1_free_module_has_top_invariants_only():
    for p in (2, 3, 5, 7):
        reg = regular_module(p)
        assert u1_cohomology(reg, 0) == line(-2 * (p - 1))
        for n in range(1, 5):
            assert u1_cohomology(reg, n).is_zero()


def test_u1_trivial_action_dist_module():
    for p in (2, 3, 5, 7):
        M = TruncatedSymAlgebra(nilradical(p)).module
        for n in range(6):
            assert u1_cohomology(M, n).dim() == p


def test_b1_dimensions():
    for p in (3, 5, 7):
        total = TruncatedSymAlgebra(borel(p)).module
        dims = [t1_invariants(u1_cohomology(total, n), p).dim() for n in range(11)]
        assert dims == [1] * 11
    total2 = TruncatedSymAlgebra(borel(2)).module
    assert [t1_invariants(u1_cohomology(total2, n), 2).dim() for n in range(11)] == [4] * 11


def test_b1_trivial_coefficients():
    p = 5
    k = trivial_module(sl2(p))
    dims = [t1_invariants(u1_cohomology(k, n), p).dim() for n in range(6)]
    assert dims == [1, 0, 1, 0, 1, 0]


def test_t1_invariants_examples():
    c = LaurentCharacter({2: 1, 3: 1, -3: 1})
    assert t1_invariants(c, 3) == LaurentCharacter({3: 1, -3: 1})
    even = LaurentCharacter({-2: 1, 0: 2, 4: 1})
    assert t1_invariants(even, 2) == even
    assert t1_invariants(weyl_chi(2), 5) == line(0)
    for p in (0, 1, 4):  # unchecked, p = 0 divides by zero and p = 1, 4 answer
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            t1_invariants(weyl_chi(4), p)


def test_e2_page_basics():
    p = 5
    k = trivial_module(sl2(p))
    assert e2_page(k, 0, 0) == line(0)
    assert e2_page(k, 1, 0) == line(2 * p)
    assert e2_page(k, 0, 1).is_zero()  # weight 2 is not divisible by p
    assert e2_page(k, 3, 2).is_zero()
    with pytest.raises(ValueError):
        e2_page(trivial_module(sl2(2)), 0, 0)


def test_negative_degrees_are_rejected():
    M = truncated_sym(sl2(5), 4)
    eng = PeriodicCohomology(M)
    for read in (lambda: u1_cohomology(M, -1), lambda: u_cohomology(M, -1),
                 lambda: eng.character(-1), lambda: eng.characters(-2),
                 lambda: eng.u_characters(-1), lambda: g1_cohomology_char(eng, -1)):
        with pytest.raises(ValueError, match="negative cohomological degree"):
            read()
    with pytest.raises(ValueError, match="negative bidegree"):
        e2_page(M, 0, -1)


def test_e2_matches_b1_for_borel_coefficients():
    for p in (3, 5):
        total = TruncatedSymAlgebra(borel(p)).module
        for n in range(11):
            i, j = (n // 2, 0) if n % 2 == 0 else ((n - 1) // 2, 1)
            assert e2_page(total, i, j).dim() == t1_invariants(u1_cohomology(total, n), p).dim()


def test_collapse_trivial_and_projective():
    p = 3
    rows = collapse_check(trivial_module(sl2(p)), 8)
    assert all(r.defect == 0 for r in rows)
    q0 = tilting_t2p2_model(p)
    rows = collapse_check(q0, 6)
    assert [r.actual for r in rows] == [1, 0, 0, 0, 0, 0, 0]
    assert [r.defect for r in rows] == [0, 1, 1, 1, 1, 1, 1]


def test_collapse_defect_equals_ideal_dims():
    for p in (3, 5):
        total0 = block_projection_principal(TruncatedSymAlgebra(sl2(p)).module)
        rows = collapse_check(total0, 8)
        assert [r.defect for r in rows] == ip_expected_dims(p, 8)
        assert rows[0].defect == 0


def test_collapse_check_takes_the_image_of_f_once(monkeypatch):
    """The E2 totals read the image of f from the engine's odd-degree
    boundaries, so collapse_check computes it once per module."""
    from frobcoho import cohomology

    M, seen = truncated_sym(sl2(5), 3), []

    def counted(mat):
        seen.append(mat)
        return image_of(mat)

    image_of = cohomology.graded_image
    monkeypatch.setattr(cohomology, "graded_image", counted)
    rows = collapse_check(M, 8)
    assert sum(mat is M.maps["f"] for mat in seen) == 1
    assert [r.e2_total for r in rows] == [
        e2_page(M, (n - n % 2) // 2, n % 2).dim() for n in range(9)]


def test_collapse_check_reduces_each_differential_once(monkeypatch):
    """The kernel and the image of f come from one row reduction of its
    blocks, and those of f^(p-1) from one of theirs."""
    from frobcoho import fpmatrix

    M, stacks = truncated_sym(sl2(5), 3), []
    F = M.maps["f"]
    Fq = F ** 4
    reduce = fpmatrix._rref_stack

    def counted(a, p):
        stacks.append(np.array(a))
        return reduce(a, p)

    monkeypatch.setattr(fpmatrix, "_rref_stack", counted)
    collapse_check(M, 8)
    assert [sum(a.shape == d.stack.shape and np.array_equal(a, d.stack) for a in stacks)
            for d in (F, Fq)] == [1, 1]


def test_degree0_classes_take_no_complement(monkeypatch):
    """With no boundaries, the classes of H^0 are the columns of the kernel
    basis: the reduction of f's blocks is the only one."""
    from frobcoho import fpmatrix

    M, calls = truncated_sym(sl2(5), 3), []
    reduce = fpmatrix._rref_stack

    def counted(a, p):
        calls.append(a.shape)
        return reduce(a, p)

    monkeypatch.setattr(fpmatrix, "_rref_stack", counted)
    PeriodicCohomology(M).character(0)
    assert len(calls) == 1


def test_ip_expected_dims_shape():
    assert ip_expected_dims(3, 6) == [0, 2, 2, 2, 2, 2, 2]
    assert ip_expected_dims(5, 5) == [0, 3, 3, 3, 3, 3]
    assert ip_expected_dims(7, 4) == [0, 4, 4, 4, 4]
    with pytest.raises(ValueError):
        ip_expected_dims(2, 4)


def test_ip_expected_dims_needs_a_prime():
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        ip_expected_dims(4, 3)
    with pytest.raises(ValueError, match="p >= 3"):
        ip_expected_dims(2, 3)


def test_periodic_complex_structure_checks():
    p = 5
    M = TruncatedSymAlgebra(borel(p)).module
    eng = PeriodicCohomology(M)
    assert (eng.F @ eng.Fq).is_zero() and (eng.Fq @ eng.F).is_zero()
    # twisted differentials are weight-zero: raw shift of d plus the twist
    # step must cancel in both parities
    for n in range(6):
        shift = -2 if n % 2 == 0 else -2 * (p - 1)
        assert shift + cochain_twist(p, n + 1) - cochain_twist(p, n) == 0
    bad = regular_module(3)  # fine
    PeriodicCohomology(bad)
    with pytest.raises(ValueError, match="not weight-compatible"):
        WeightModule(nilradical(2), ("a",), (0,), {"f": FpMatrix(2, [[1]])})
    # weight-compatible, but f^2 != 0 over F_2: no such module is built
    with pytest.raises(ValueError, match="restricted compatibility fails on f"):
        WeightModule(nilradical(2), ("a", "b", "c"), (0, -2, -4),
                     {"f": FpMatrix(2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])})


def test_f_is_p_nilpotent_on_the_truncated_algebras():
    # what PeriodicCohomology relies on: validation proves f^p = f^[p] = 0
    for p in (2, 3, 5, 7):
        for alg in (sl2(p), borel(p), nilradical(p)):
            assert (TruncatedSymAlgebra(alg).module.maps["f"] ** p).is_zero(), (p, alg.generators)


def test_negative_maxdeg_is_rejected():
    with pytest.raises(ValueError, match="maxdeg = -1"):
        hh_table("g1", 3, -1)
    with pytest.raises(ValueError, match="maxdeg = -1"):
        collapse_check(trivial_module(sl2(3)), -1)
    with pytest.raises(ValueError, match="maxdeg = -1"):
        ip_expected_dims(3, -1)
    assert len(collapse_check(trivial_module(sl2(3)), 0)) == 1
    assert ip_expected_dims(3, 0) == [0]


def test_periodicity_of_dimensions():
    # beyond degree 0 the complex repeats with period two, so untwisted
    # dimensions are constant along each parity class
    for p in (2, 3, 5):
        for M in (TruncatedSymAlgebra(borel(p)).module,
                  truncated_sym(sl2(p), p),
                  tilting_t2p2_model(p) if p > 2 else trivial_module(sl2(2))):
            eng = PeriodicCohomology(M)
            evens = {len(eng.representatives(2 * i)) for i in range(1, 4)}
            odds = {len(eng.representatives(2 * i + 1)) for i in range(0, 4)}
            assert len(evens) == 1 and len(odds) == 1


def test_g1_route_examples():
    # trivial coefficients in degree 2: the first graded piece of the
    # nilpotent cone coordinate ring (dimension 3)
    p = 3
    k = trivial_module(sl2(p))
    char, exact = g1_cohomology_char(PeriodicCohomology(k), 2)
    assert exact and char == weyl_chi(2)
    # the odd row at p=3, degree 1: dimension 4 = ind of weights {2, 0}
    M0 = block_projection_principal(truncated_sym(sl2(3), 3))
    char, exact = g1_cohomology_char(PeriodicCohomology(M0), 1)
    assert exact and char == weyl_chi(2) + weyl_chi(0) and char.dim() == 4
    # the projective-cover model contributes only in degree zero
    q0 = tilting_t2p2_model(3)
    char, exact = g1_cohomology_char(PeriodicCohomology(q0), 0)
    assert exact and char == weyl_chi(0)
    for n in (1, 2, 3):
        char, exact = g1_cohomology_char(PeriodicCohomology(q0), n)
        assert exact and char.is_zero()


def test_hh_table_shapes_and_totals():
    t = hh_table("b1", 3, 10)
    assert all(t.degree_total(d) == 1 for d in range(11))
    t = hh_table("u1", 5, 6)
    assert all(t.degree_total(d) == 5 for d in range(7))
    t = hh_table("g1", 3, 8)
    assert t.degree_total(0) == 4
    assert t.degree_total(1) == 4
    assert t.degree_total(2) == 2 * 3  # two nilpotent-cone rows
    assert t.entry("3", 1)[0].dim() == 4
    assert t.entry("1", 5)[0].is_zero()
    with pytest.raises(ValueError):
        hh_table("t1", 3, 2)


def test_hh_table_tsv_stable():
    a = hh_table("b1", 2, 4).to_tsv()
    b = hh_table("b1", 2, 4).to_tsv()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "n\tdegree\tdim\tcharacter\tflag"
    assert len(lines) == 6  # header + 5 data rows
    for row in lines[1:]:
        assert row.split("\t")[2] == "4"


def test_g1_table_matches_invariant_oracle():
    from frobcoho.wmodules import g1_invariants

    for p in (2, 3, 5):
        table = hh_table("g1", p, 0)
        inv = sum(g1_invariants(truncated_sym(sl2(p), n)).dim
                  for n in range(3 * (p - 1) + 1))
        assert table.degree_total(0) == inv
