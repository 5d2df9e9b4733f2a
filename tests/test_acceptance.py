"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
line per criterion.  Tolerances are exact throughout: every comparison
is an equality of integers or of Laurent characters over Z.
"""

from frobcoho.characters import LaurentCharacter
from frobcoho.cohomology import (
    PeriodicCohomology,
    collapse_check,
    cup_product,
    g1_cohomology_char,
    hh_table,
    ip_expected_dims,
    t1_invariants,
    u1_cohomology,
    u_cohomology,
)
from frobcoho.lie import borel, nilradical, sl2
from frobcoho.verify import verify_appendix, verify_propositions
from frobcoho.wmodules import (
    TruncatedSymAlgebra,
    block_projection_principal,
    duality_pairing_rank,
    g1_invariants,
    simple_model,
    trivial_module,
    truncated_sym,
)

FIXTURE_PRIMES = (2, 3, 5, 7)


def _criterion(name: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_appendix_reproduction():
    ok = True
    for p in FIXTURE_PRIMES:
        report = verify_appendix(p, maxdeg=8)
        fails = [c.name for c in report.checks if c.status == "fail"]
        ok = ok and not fails
        total = sum(1 for c in report.checks if c.name == "fixture-dimension-audit"
                    and c.computed == str(p ** 3))
        ok = ok and total == 1
    # pinned spot values
    row3 = block_projection_principal(truncated_sym(sl2(3), 3))
    dims3 = [g1_cohomology_char(PeriodicCohomology(row3), d)[0].dim() for d in range(6)]
    ok = ok and dims3 == [0, 4, 0, 8, 0, 12]
    row0 = block_projection_principal(truncated_sym(sl2(3), 0))
    row6 = block_projection_principal(truncated_sym(sl2(3), 6))
    for row in (row0, row6):
        dims = [g1_cohomology_char(PeriodicCohomology(row), d)[0].dim() for d in range(6)]
        ok = ok and dims == [1, 0, 3, 0, 5, 0]
    p2row2 = block_projection_principal(truncated_sym(sl2(2), 2))
    char, exact = g1_cohomology_char(PeriodicCohomology(p2row2), 0)
    ok = ok and exact and char.dim() == 2
    _criterion("criterion-1 appendix reproduction (p=2,3,5,7, degrees <= 8)", ok)


def test_criterion_2_taft_theorem():
    ok = True
    for p in (3, 5, 7):
        alg = TruncatedSymAlgebra(borel(p))
        eng = PeriodicCohomology(alg.module)
        dims = [t1_invariants(eng.character(d), p).dim() for d in range(11)]
        ok = ok and dims == [1] * 11
        char1 = t1_invariants(eng.character(1), p)
        ok = ok and char1 == LaurentCharacter({0: 1})
        x1 = eng.t1_representatives(1)[0][0]
        ok = ok and eng.is_coboundary(2, cup_product(eng, alg, 1, x1, 1, x1))
        unit = alg.unit_vector()
        power = unit
        for k in range(1, 6):
            power = cup_product(eng, alg, 2 * (k - 1), power, 2, unit)
            ok = ok and bool(eng.class_coordinates(2 * k, power).any())
    alg2 = TruncatedSymAlgebra(borel(2))
    eng2 = PeriodicCohomology(alg2.module)
    dims2 = [t1_invariants(eng2.character(d), 2).dim() for d in range(11)]
    ok = ok and dims2 == [4] * 11
    _criterion("criterion-2 Borel Hochschild ring (dims, weight, square, powers)", ok)


def test_criterion_3_unipotent_dimensions():
    ok = True
    for p in FIXTURE_PRIMES:
        M = TruncatedSymAlgebra(nilradical(p)).module
        dims = [u1_cohomology(M, d).dim() for d in range(9)]
        ok = ok and dims == [p] * 9
    _criterion("criterion-3 unipotent Hochschild dimension p per degree", ok)


def test_criterion_4_kostant_sweep():
    ok = True
    for p in (3, 5, 7, 11):
        for lam in range(p):
            L = simple_model(lam, p)
            ok = ok and u_cohomology(L, 0) == LaurentCharacter({-lam: 1})
            ok = ok and u_cohomology(L, 1) == LaurentCharacter({lam + 2: 1})
    _criterion("criterion-4 Kostant weights for all restricted weights", ok)


def test_criterion_5_duality_pairing():
    ok = True
    for p in FIXTURE_PRIMES:
        for alg in (sl2(p), borel(p), nilradical(p)):
            top = (p - 1) * alg.dim
            for i in range(top + 1):
                ok = ok and duality_pairing_rank(alg, i) == truncated_sym(alg, i).dim
    _criterion("criterion-5 multiplication pairing nondegenerate everywhere", ok)


def test_criterion_6_collapse_dichotomy():
    ok = True
    for p in (3, 5, 7):
        rows = collapse_check(trivial_module(sl2(p)), 8)
        ok = ok and all(r.defect == 0 for r in rows)
        total0 = block_projection_principal(TruncatedSymAlgebra(sl2(p)).module)
        rows0 = collapse_check(total0, 8)
        ok = ok and [r.defect for r in rows0] == ip_expected_dims(p, 8)
    _criterion("criterion-6 collapse defect matches the ideal dimension count", ok)


def test_criterion_7_degree_zero_oracle():
    ok = True
    flagged_ok = True
    for p in FIXTURE_PRIMES:
        inv = sum(g1_invariants(truncated_sym(sl2(p), n)).dim
                  for n in range(3 * (p - 1) + 1))
        table = hh_table("g1", p, 0)
        ok = ok and inv == table.degree_total(0)
        report = verify_propositions(p)
        statuses = {c.name: c.status for c in report.checks}
        if p >= 3:
            # the closed-form count (p-1)/2 disagrees with the computation;
            # it must be reported as a flagged discrepancy, never a failure
            flagged_ok = flagged_ok and statuses["hh0-vs-theorem-count"] == "flagged"
        else:
            flagged_ok = flagged_ok and statuses["hh0-vs-theorem-count"] == "pass"
        ok = ok and all(c.status != "fail" for c in report.checks)
    _criterion("criterion-7 degree-zero invariants oracle (mismatch flagged)",
               ok and flagged_ok)


def test_criterion_8_structural_invariants():
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for alg in (sl2(p), borel(p), nilradical(p)):
            alg.validate()  # raises on a Jacobi or restrictedness failure
    for p in FIXTURE_PRIMES:
        g = sl2(p)
        for n in range(3 * (p - 1) + 1):
            piece = truncated_sym(g, n)  # validates all four invariants
            piece.validate()
            projected = block_projection_principal(piece)
            projected.validate()
            eng = PeriodicCohomology(piece)  # complex property checks
            ok = ok and (eng.F @ eng.Fq).is_zero()
        total = TruncatedSymAlgebra(borel(p)).module
        total.validate()
        # twisted differentials are weight-zero in both parities
        from frobcoho.cohomology import cochain_twist

        for n in range(6):
            shift = -2 if n % 2 == 0 else -2 * (p - 1)
            ok = ok and shift + cochain_twist(p, n + 1) - cochain_twist(p, n) == 0
    _criterion("criterion-8 structural invariants on every constructed object", ok)
