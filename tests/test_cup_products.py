"""Cup products through the closed-form diagonal approximation, with the
diagonal solved degree by degree as its second route."""

from collections import Counter
from math import comb

import numpy as np
import pytest

from frobcoho.cohomology import (
    CupDiagonal,
    PeriodicCohomology,
    cup_product,
)
from frobcoho.fpmatrix import FpMatrix
from frobcoho.lie import borel, sl2
from frobcoho.wmodules import TruncatedSymAlgebra

DIAGONAL_PRIMES = (2, 3, 5, 7, 11, 13)
DIAGONAL_TOP = 16  # every degree the engine reaches: the taft powers stop at 10


def taft_setup(p):
    alg = TruncatedSymAlgebra(borel(p))
    return alg, PeriodicCohomology(alg.module)


def c_exp(p, m):
    """d(g_m) = f^c(m) g_(m-1) in the periodic resolution."""
    return 1 if m % 2 else p - 1


class SolvedDiagonal:
    """The diagonal P -> P (x) P solved degree by degree as an exact F_p
    system, in the (s, t, c) terms of CupDiagonal.component.  Weight
    homogeneity pins s + t to p - 2 when both degrees are odd and to 0
    otherwise, and each degree's system then has a single solution; so a
    perturbation seed drops that constraint and adds a random kernel
    element of each degree's system: another diagonal, chain homotopic
    to the first."""

    def __init__(self, p, perturb_seed=None):
        self.p = p
        self.rng = None if perturb_seed is None else np.random.default_rng(perturb_seed)
        self.components = {0: {(0, 0): [(0, 0, 1)]}}

    def _allowed(self, i, j):
        if self.rng is not None:
            return [(s, t) for s in range(self.p) for t in range(self.p)]
        if i % 2 and j % 2:
            return [(s, self.p - 2 - s) for s in range(self.p - 1)]
        return [(0, 0)]

    def _solve_degree(self, n):
        p = self.p
        slots = [(i, n - i, s, t) for i in range(n + 1) for s, t in self._allowed(i, n - i)]
        eq_offset = {(k, n - 1 - k): k * p * p for k in range(n)}
        mat = np.zeros((n * p * p, len(slots)), dtype=np.int64)
        rhs = np.zeros((n * p * p, 1), dtype=np.int64)
        for g, (i, j, s, t) in enumerate(slots):
            if i >= 1 and s + c_exp(p, i) < p:
                mat[eq_offset[(i - 1, j)] + (s + c_exp(p, i)) * p + t, g] += 1
            if j >= 1 and t + c_exp(p, j) < p:
                mat[eq_offset[(i, j - 1)] + s * p + t + c_exp(p, j), g] += -1 if i % 2 else 1
        cn = c_exp(p, n)
        for (i, j), terms in self.components[n - 1].items():
            for s, t, co in terms:
                for k in range(cn + 1):
                    if s + k < p and t + cn - k < p:
                        rhs[eq_offset[(i, j)] + (s + k) * p + t + cn - k, 0] += co * comb(cn, k)
        system = FpMatrix(p, mat)
        sol = system.solve(FpMatrix(p, rhs)).a[:, 0]
        if self.rng is not None:
            kb = system.kernel_basis()
            sol = (sol + kb.a @ self.rng.integers(0, p, size=kb.cols)) % p
        out = {}
        for g, (i, j, s, t) in enumerate(slots):
            if sol[g] % p:
                out.setdefault((i, j), []).append((s, t, int(sol[g]) % p))
        self.components[n] = out

    def component(self, i, j):
        while max(self.components) < i + j:
            self._solve_degree(max(self.components) + 1)
        return self.components[i + j].get((i, j), [])


def assert_chain_map(diag, p, top):
    """d(Delta(g_n)) = Delta(d g_n) component by component, n <= top."""

    def as_array(terms):
        out = np.zeros((p, p), dtype=np.int64)
        for s, t, c in terms:
            out[s, t] = (out[s, t] + c) % p
        return out

    def times_monomial(arr, a, b):
        out = np.zeros((p, p), dtype=np.int64)
        out[a:, b:] = arr[:p - a, :p - b]
        return out

    assert diag.component(0, 0) == [(0, 0, 1)]  # lifts the augmentation
    for n in range(1, top + 1):
        for i in range(n):
            j = n - 1 - i
            d1 = as_array(diag.component(i + 1, j))
            d2 = as_array(diag.component(i, j + 1))
            sign = -1 if i % 2 else 1
            lhs = (times_monomial(d1, c_exp(p, i + 1), 0)
                   + sign * times_monomial(d2, 0, c_exp(p, j + 1))) % p
            dprev = as_array(diag.component(i, j))
            cn = c_exp(p, n)
            rhs = np.zeros((p, p), dtype=np.int64)
            for k in range(cn + 1):
                b = comb(cn, k) % p
                if b:
                    rhs = (rhs + b * times_monomial(dprev, k, cn - k)) % p
            assert np.array_equal(lhs, rhs), (p, n, i, j)


def test_diagonal_chain_map_identity():
    for p in DIAGONAL_PRIMES:
        assert_chain_map(CupDiagonal(p), p, DIAGONAL_TOP)


@pytest.mark.parametrize("p", DIAGONAL_PRIMES)
def test_closed_form_diagonal_matches_solved_diagonal(p):
    closed, solved = CupDiagonal(p), SolvedDiagonal(p)
    for n in range(DIAGONAL_TOP + 1):
        for i in range(n + 1):
            assert (Counter(closed.component(i, n - i))
                    == Counter(solved.component(i, n - i))), (p, i, n - i)


def test_diagonal_rejects_composite_modulus():
    with pytest.raises(ValueError, match="modulus 6 is not prime"):
        CupDiagonal(6)
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        CupDiagonal(4)


def test_diagonal_rejects_negative_degrees():
    diag = CupDiagonal(5)
    for i, j in ((-1, 2), (2, -1), (-1, -1), (-3, 1)):
        with pytest.raises(ValueError, match="negative cohomological degree"):
            diag.component(i, j)


def test_unit_law():
    for p in (2, 3, 5):
        alg, eng = taft_setup(p)
        unit = alg.unit_vector()
        for n in range(4):
            for vec, _ in eng.representatives(n):
                left = cup_product(eng, alg, 0, unit, n, vec)
                right = cup_product(eng, alg, n, vec, 0, unit)
                assert eng.is_coboundary(n, (left - vec) % p)
                assert eng.is_coboundary(n, (right - vec) % p)


def test_degree_one_class_squares_to_zero():
    for p in (3, 5, 7):
        alg, eng = taft_setup(p)
        reps = eng.t1_representatives(1)
        assert len(reps) == 1
        x1, w = reps[0]
        assert (w + 2) % (2 * p) == 0 or w + 2 == 0  # twisted weight 0
        sq = cup_product(eng, alg, 1, x1, 1, x1)
        assert eng.is_coboundary(2, sq)


def test_degree_two_class_is_polynomial():
    for p in (2, 3, 5):
        alg, eng = taft_setup(p)
        step = 1 if p == 2 else 2
        unit = alg.unit_vector()
        power = unit
        for k in range(1, 6):
            power = cup_product(eng, alg, step * (k - 1), power, step, unit)
            assert eng.class_coordinates(step * k, power).any()


def test_classes_independent_of_diagonal_choice():
    for p in (3, 5):
        alg, eng = taft_setup(p)
        base = CupDiagonal(p)
        pert = SolvedDiagonal(p, perturb_seed=99)
        assert_chain_map(pert, p, 4)
        assert Counter(pert.component(1, 1)) != Counter(base.component(1, 1))
        x1 = eng.t1_representatives(1)[0][0]
        unit = alg.unit_vector()
        pairs = [(1, x1, 1, x1), (2, unit, 1, x1), (2, unit, 2, unit)]
        for da, va, db, vb in pairs:
            c1 = cup_product(eng, alg, da, va, db, vb, diagonal=base)
            c2 = cup_product(eng, alg, da, va, db, vb, diagonal=pert)
            assert eng.is_coboundary(da + db, (c1 - c2) % p)


def test_graded_commutativity_samples():
    p = 5
    alg, eng = taft_setup(p)
    unit = alg.unit_vector()
    x1 = eng.t1_representatives(1)[0][0]
    # even with odd commutes
    a = cup_product(eng, alg, 2, unit, 1, x1)
    b = cup_product(eng, alg, 1, x1, 2, unit)
    assert eng.is_coboundary(3, (a - b) % p)
    # odd with odd anticommutes
    degree1 = [v for v, _ in eng.representatives(1)]
    for v in degree1[:2]:
        ab = cup_product(eng, alg, 1, x1, 1, v)
        ba = cup_product(eng, alg, 1, v, 1, x1)
        assert eng.is_coboundary(2, (ab + ba) % p)


def test_non_cocycle_rejected():
    p = 3
    alg, eng = taft_setup(p)
    vec = np.zeros(alg.dim, dtype=np.int64)
    vec[alg.index[(2, 0)]] = 1  # h^2: not in ker(ad f)^2? pick degree-1 check
    # h is not a cocycle in degree 0 (ad_f h = 2f != 0)
    h = np.zeros(alg.dim, dtype=np.int64)
    h[alg.index[(1, 0)]] = 1
    with pytest.raises(ValueError):
        cup_product(eng, alg, 0, h, 0, alg.unit_vector())


def test_mixed_odd_product_hits_the_top_line():
    # the two surviving odd classes at p=3 multiply onto the class of the
    # top monomial (a genuine filtration drop, verified by hand:
    # cup(e^2 h, h^2 f) = +- e^2 h^2 f^2), while their squares vanish
    p = 3
    total = TruncatedSymAlgebra(sl2(p))
    eng = PeriodicCohomology(total.module)
    reps = {w: v for v, w in eng.t1_representatives(1)}
    z, zp = reps[2 * p - 2], reps[-2]
    prod = cup_product(eng, total, 1, z, 1, zp)
    coords = eng.class_coordinates(2, prod)
    assert coords.any()
    top_coeff = prod[total.index[(2, 2, 2)]]
    assert top_coeff != 0
    top = np.zeros(total.dim, dtype=np.int64)
    top[total.index[(2, 2, 2)]] = top_coeff
    assert eng.is_coboundary(2, (prod - top) % p)
    for v in (z, zp):
        assert eng.is_coboundary(2, cup_product(eng, total, 1, v, 1, v))
