"""One argument contract at the public boundary.

Every name in frobcoho.__all__ that takes a prime, a degree or maxdeg, or
a Frobenius twist exponent r raises ValueError on an invalid one and
answers a valid one as it always has.  Each case below gives the name,
the integers drawn, which of them are valid, a call with the drawn
integer, and the result a valid call gives, from a closed form or from
another public name.
"""

from functools import cache
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobcoho
from frobcoho import (
    CupDiagonal,
    FpMatrix,
    LaurentCharacter,
    PeriodicCohomology,
    TruncatedSymAlgebra,
    borel,
    collapse_check,
    cup_product,
    decompose_simples,
    decompose_tilting_greedy,
    duality_pairing_rank,
    e2_page,
    g1_cohomology_char,
    hh_table,
    ip_expected_dims,
    load_fixture,
    nilradical,
    simple_char,
    simple_model,
    simple_module,
    sl2,
    sym_power,
    t1_invariants,
    tilting_char,
    tilting_t2p2_model,
    trivial_module,
    truncated_sym,
    u1_cohomology,
    u_cohomology,
    verify_appendix,
    verify_propositions,
    weyl_chi,
)


def _prime(v: int) -> bool:
    return v > 1 and all(v % d for d in range(2, v))


def _odd_prime(v: int) -> bool:
    return _prime(v) and v > 2


def _nonnegative(v: int) -> bool:
    return v >= 0


def _line(w: int) -> LaurentCharacter:
    return LaurentCharacter({w: 1})


def _digits(m: int, p: int) -> list[int]:
    return [m // p ** k % p for k in range(m.bit_length())]


def _monomials(p: int, dims: int, n: int) -> int:
    """The number of monomials of degree n in dims variables, exponents below p."""
    return sum(1 for e in product(range(p), repeat=dims) if sum(e) == n)


def _failed(report) -> list[str]:
    return [c.name for c in report.checks if c.status == "fail"]


def _ip_dims(p: int, maxdeg: int) -> list[int]:
    y, x = (p - 1) // 2 + 1, (p - 1) - (p - 1) // 2 + 1
    return [y if n % 2 else (x if n else 0) for n in range(maxdeg + 1)]


def _diagonal(p: int, i: int, j: int) -> list[tuple[int, int, int]]:
    if i % 2 and j % 2:
        return [(s, p - 2 - s, (-1) ** (s + 1) % p) for s in range(p - 1)]
    return [(0, 0, 1)]


@cache
def _trivial(p: int):
    return trivial_module(sl2(p))


@cache
def _whole(p: int):
    alg = TruncatedSymAlgebra(sl2(p))
    return alg, PeriodicCohomology(alg.module), alg.unit_vector()


def _cup_unit(n: int):
    alg, engine, unit = _whole(3)
    return cup_product(engine, alg, n, unit, 0, unit).tolist()


SMALL = (-4, 13)  # primes 2 to 13 and every kind of non-prime
CHEAP = (-4, 5)  # for the whole suites and tables: primes 2, 3 and 5
DEGREES = (-4, 8)

# (name in __all__, range of the integers drawn, valid, call, result of a valid call)
CASES = [
    ("sl2", SMALL, _prime, lambda p: (sl2(p).p, sl2(p).generators),
     lambda p: (p, ("e", "h", "f"))),
    ("borel", SMALL, _prime, lambda p: borel(p).generators, lambda p: ("h", "f")),
    ("nilradical", SMALL, _prime, lambda p: nilradical(p).generators, lambda p: ("f",)),
    ("FpMatrix", SMALL, _prime, lambda p: FpMatrix(p, [[p + 1, -1]]).a.tolist(),
     lambda p: [[1, p - 1]]),
    ("CupDiagonal", SMALL, _prime, lambda p: CupDiagonal(p).component(1, 1),
     lambda p: _diagonal(p, 1, 1)),
    ("CupDiagonal", DEGREES, _nonnegative, lambda i: CupDiagonal(3).component(i, 1),
     lambda i: _diagonal(3, i, 1)),
    ("t1_invariants", SMALL, _prime, lambda p: t1_invariants(weyl_chi(4), p),
     lambda p: LaurentCharacter({w: 1 for w in range(-4, 5, 2) if w % p == 0})),
    ("simple_char", SMALL, _prime, lambda p: simple_char(5, p).dim(),
     lambda p: prod(d + 1 for d in _digits(5, p))),
    ("tilting_char", SMALL, _prime, lambda p: tilting_char(1, p), lambda p: weyl_chi(1)),
    ("simple_model", SMALL, _prime, lambda p: simple_model(1, p).character(),
     lambda p: weyl_chi(1)),
    ("simple_module", SMALL, _prime, lambda p: simple_module(5, p).character(),
     lambda p: simple_char(5, p)),
    ("decompose_simples", SMALL, _prime,
     lambda p: decompose_simples(simple_char(5, p), p).entries, lambda p: [("L", 5, 1)]),
    ("decompose_tilting_greedy", SMALL, _prime,
     lambda p: decompose_tilting_greedy(weyl_chi(1), p).entries, lambda p: [("T", 1, 1)]),
    ("tilting_t2p2_model", SMALL, _odd_prime, lambda p: tilting_t2p2_model(p).dim,
     lambda p: 2 * p),
    ("ip_expected_dims", SMALL, _odd_prime, lambda p: ip_expected_dims(p, 3),
     lambda p: _ip_dims(p, 3)),
    ("ip_expected_dims", DEGREES, _nonnegative, lambda m: ip_expected_dims(5, m),
     lambda m: _ip_dims(5, m)),
    ("load_fixture", (-4, 7), _prime, lambda p: load_fixture(p).p, lambda p: p),
    ("hh_table", CHEAP, _prime, lambda p: (hh_table("g1", p, 2).p, hh_table("g1", p, 2).maxdeg),
     lambda p: (p, 2)),
    ("hh_table", DEGREES, _nonnegative,
     lambda m: sorted({n for _, n, _, _ in hh_table("u1", 3, m).entries}),
     lambda m: list(range(m + 1))),
    ("verify_propositions", CHEAP, _prime, lambda p: _failed(verify_propositions(p)),
     lambda p: []),
    ("verify_appendix", (-4, 7), _prime, lambda p: _failed(verify_appendix(p, 2)),
     lambda p: []),
    ("verify_appendix", (-4, 3), _nonnegative,
     lambda m: _failed(verify_appendix(3, m)), lambda m: []),
    ("collapse_check", DEGREES, _nonnegative,
     lambda m: [row.degree for row in collapse_check(truncated_sym(sl2(3), 2), m)],
     lambda m: list(range(m + 1))),
    ("truncated_sym", DEGREES, lambda n: 0 <= n <= 6, lambda n: truncated_sym(sl2(3), n).dim,
     lambda n: _monomials(3, 3, n)),
    ("duality_pairing_rank", DEGREES, lambda n: 0 <= n <= 6,
     lambda n: duality_pairing_rank(sl2(3), n), lambda n: _monomials(3, 3, n)),
    ("sym_power", DEGREES, _nonnegative, lambda n: sym_power(sl2(3), n).dim,
     lambda n: comb(n + 2, 2)),
    ("e2_page", DEGREES, _nonnegative, lambda i: e2_page(_trivial(5), i, 0),
     lambda i: _line(10 * i)),
    ("e2_page", DEGREES, _nonnegative, lambda j: e2_page(_trivial(5), 0, j),
     lambda j: _line(0) if j == 0 else LaurentCharacter.zero()),
    ("u1_cohomology", DEGREES, _nonnegative, lambda n: u1_cohomology(_trivial(5), n),
     lambda n: _line(10 * (n // 2) + 2 * (n % 2))),
    ("u_cohomology", DEGREES, _nonnegative, lambda j: u_cohomology(_trivial(5), j),
     lambda j: _line(2 * j) if j < 2 else LaurentCharacter.zero()),
    ("g1_cohomology_char", DEGREES, _nonnegative,
     lambda n: g1_cohomology_char(PeriodicCohomology(_trivial(5)), n),
     lambda n: (weyl_chi(n) if n % 2 == 0 else LaurentCharacter.zero(), True)),
    ("cup_product", DEGREES, _nonnegative, _cup_unit, lambda n: _whole(3)[2].tolist()),
    ("WeightModule", DEGREES, lambda r: r >= 1,
     lambda r: simple_model(1, 3).frobenius_twist(r).weights, lambda r: (3 ** r, -3 ** r)),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_public_integer_arguments(data):
    """An invalid integer raises ValueError; a valid one gives the result."""
    name, (lo, hi), valid, call, want = data.draw(st.sampled_from(CASES))
    assert name in frobcoho.__all__
    v = data.draw(st.integers(lo, hi), label=name)
    if valid(v):
        assert call(v) == want(v)
    else:
        with pytest.raises(ValueError):
            call(v)

