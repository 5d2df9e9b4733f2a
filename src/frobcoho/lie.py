"""Restricted Lie algebras of rank one: sl2, its Borel b, and the
nilradical u, over F_p.

Weight convention, fixed once for the whole package: the positive root
is 2 on the weight lattice Z, and

    weight(e) = +2,  weight(h) = 0,  weight(f) = -2.

The Borel is the NEGATIVE one, so b = span{h, f} and u = span{f}; the
lowering operator f is the one whose powers drive every periodic
complex downstream.

Structure constants of sl2: [h,e] = 2e, [h,f] = -2f, [e,f] = h; the
p-power map sends e, f to 0 and fixes h.  Constructors validate weight
additivity of the bracket, then the Jacobi identity and restrictedness
(ad(x^[p]) = (ad x)^p) on the adjoint GradedMaps, by the check that
module validation runs too (_check_relations).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .fpmatrix import GradedMap, Grading, check_prime

GENERATOR_WEIGHTS = {"e": 2, "h": 0, "f": -2}


@dataclass(frozen=True)
class RestrictedLieAlgebra:
    """Basis labels, bracket structure constants mod p, p-power map, weights.

    bracket[(x, y)] maps basis labels to coefficients of [x, y]; only
    pairs with x before y in `generators` are stored, the rest follow by
    antisymmetry.  p_power[x] maps basis labels to coefficients of x^[p].
    """

    p: int
    generators: tuple[str, ...]
    bracket: dict
    p_power: dict

    def __post_init__(self):
        check_prime(self.p)
        self.validate()

    @property
    def dim(self) -> int:
        return len(self.generators)

    def weight(self, x: str) -> int:
        return GENERATOR_WEIGHTS[x]

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(GENERATOR_WEIGHTS[x] for x in self.generators)

    def bracket_coeffs(self, x: str, y: str) -> dict:
        if x == y:
            return {}
        ix, iy = self.generators.index(x), self.generators.index(y)
        if ix < iy:
            raw = self.bracket.get((x, y), {})
        else:
            raw = {z: -c for z, c in self.bracket.get((y, x), {}).items()}
        return {z: c % self.p for z, c in raw.items() if c % self.p}

    @cached_property
    def _ads(self) -> dict:
        """ad(x) for every generator x, on one Grading of the generators."""
        grading, gens = Grading(self.weights), self.generators
        ads = {}
        for x in gens:
            terms = [(gens.index(z), j, c) for j, y in enumerate(gens)
                     for z, c in self.bracket_coeffs(x, y).items()]
            rows, cols, vals = np.array(terms, dtype=np.int64).reshape(-1, 3).T
            ads[x] = GradedMap.scatter(self.p, grading, self.weight(x), rows, cols, vals)
        return ads

    def ad(self, x: str) -> GradedMap:
        """ad(x) = [x, -] on the generator basis, graded by weight."""
        return self._ads[x]

    def validate(self) -> None:
        for x in self.generators:
            for y in self.generators:
                for z in self.bracket_coeffs(x, y):
                    if self.weight(z) != self.weight(x) + self.weight(y):
                        raise ValueError(f"bracket [{x},{y}] is not weight-additive")
        # Jacobi in ad form, ad([x,y]) = [ad x, ad y], and ad(x^[p]) = (ad x)^p
        _check_relations(self, self._ads, "Jacobi identity fails on ({x},{y})",
                         "restrictedness fails on {x}")


def _check_relations(alg: RestrictedLieAlgebra, maps: dict, bracket_error: str,
                     power_error: str) -> None:
    """Check that maps, a GradedMap per generator on one grading, respect the
    bracket (pairs x before y) and the p-power map of alg; the first failure
    raises ValueError with bracket_error or power_error, formatted with x, y."""
    for i, x in enumerate(alg.generators):
        for y in alg.generators[i + 1:]:
            diff = maps[x] @ maps[y] - maps[y] @ maps[x]
            for z, c in alg.bracket_coeffs(x, y).items():
                diff = diff - c * maps[z]
            if not diff.is_zero():
                raise ValueError(bracket_error.format(x=x, y=y))
    for x in alg.generators:
        diff = maps[x] ** alg.p
        for z, c in alg.p_power.get(x, {}).items():
            diff = diff - c * maps[z]
        if not diff.is_zero():
            raise ValueError(power_error.format(x=x))


# one instance per prime (the dataclass is frozen): construction validates
@cache
def sl2(p: int) -> RestrictedLieAlgebra:
    check_prime(p)  # before -2 % p
    return RestrictedLieAlgebra(
        p=p,
        generators=("e", "h", "f"),
        bracket={("e", "h"): {"e": -2 % p}, ("e", "f"): {"h": 1}, ("h", "f"): {"f": -2 % p}},
        p_power={"e": {}, "h": {"h": 1}, "f": {}},
    )


@cache
def borel(p: int) -> RestrictedLieAlgebra:
    """The negative Borel subalgebra b = span{h, f} of sl2."""
    check_prime(p)  # before -2 % p
    return RestrictedLieAlgebra(
        p=p,
        generators=("h", "f"),
        bracket={("h", "f"): {"f": -2 % p}},
        p_power={"h": {"h": 1}, "f": {}},
    )


@cache
def nilradical(p: int) -> RestrictedLieAlgebra:
    """The one-dimensional abelian u = span{f} with trivial p-power map."""
    return RestrictedLieAlgebra(p=p, generators=("f",), bracket={}, p_power={"f": {}})


def casimir_operator(module) -> GradedMap:
    """The map c = ef + fe + h^2/2 on a module with full sl2-action.

    Central for odd p.  On a highest-weight vector of weight m it acts by
    m(m+2)/2 mod p, which vanishes exactly on the principal block
    {0, p-2}; on a WeightModule these (p+1)/2 values (m and p-2-m give
    the same one) are its only eigenvalues (see wmodules).
    """
    p = module.p
    if p == 2:
        raise ValueError("Casimir normalization needs p >= 3")
    if missing := [x for x in ("e", "h", "f") if x not in module.maps]:
        raise ValueError(f"the Casimir needs e, h and f; missing {', '.join(missing)}")
    e, h, f = module.maps["e"], module.maps["h"], module.maps["f"]
    return e @ f + f @ e + pow(2, p - 2, p) * (h @ h)
