"""Character ring of SL2 on the weight lattice Z (fundamental weight = 1).

A character is a finitely supported integer-valued function on Z,
written in the variable q: the natural module has character q + q^-1.
Euler characteristics chi(m) follow the rank-one Weyl/Bott rules

    chi(m) = q^m + q^(m-2) + ... + q^-m   for m >= 0,
    chi(-1) = 0,   chi(m) = -chi(-m-2)    for m <= -2,

so chi(m) for m >= 0 is the character of the costandard module
Nabla(m).  Simple characters come from Steinberg factorization over the
base-p digits, tilting characters T(m) for m <= 2p-2 from the two-step
good filtration chi(m) + chi(2p-2-m) in the upper range.  All
decompositions peel greedily from the highest weight, which is
well-defined because each family is unitriangular against the weight
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class LaurentCharacter:
    """Finitely supported map weight -> integer multiplicity."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for w, m in dict(coeffs).items():
                if m:
                    c[int(w)] = int(m)
        self.coeffs = c

    @classmethod
    def zero(cls) -> "LaurentCharacter":
        return cls()

    @classmethod
    def line(cls, weight: int, mult: int = 1) -> "LaurentCharacter":
        return cls({weight: mult})

    @classmethod
    def from_weights(cls, weights) -> "LaurentCharacter":
        c = {}
        for w in weights:
            c[w] = c.get(w, 0) + 1
        return cls(c)

    def coeff(self, w: int) -> int:
        return self.coeffs.get(w, 0)

    def dim(self) -> int:
        return sum(self.coeffs.values())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_symmetric(self) -> bool:
        return all(self.coeff(-w) == m for w, m in self.coeffs.items())

    def max_weight(self) -> int:
        if not self.coeffs:
            raise ValueError("zero character has no top weight")
        return max(self.coeffs)

    def __add__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        c = dict(self.coeffs)
        for w, m in other.coeffs.items():
            c[w] = c.get(w, 0) + m
        return LaurentCharacter(c)

    def __sub__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        c = dict(self.coeffs)
        for w, m in other.coeffs.items():
            c[w] = c.get(w, 0) - m
        return LaurentCharacter(c)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentCharacter({w: m * other for w, m in self.coeffs.items()})
        c = {}
        for w1, m1 in self.coeffs.items():
            for w2, m2 in other.coeffs.items():
                w = w1 + w2
                c[w] = c.get(w, 0) + m1 * m2
        return LaurentCharacter(c)

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentCharacter":
        return self * (-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentCharacter) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def scale_weights(self, k: int) -> "LaurentCharacter":
        """Substitute q -> q^k (Frobenius twist on characters for k = p)."""
        return LaurentCharacter({w * k: m for w, m in self.coeffs.items()})

    def untwist(self, p: int) -> "LaurentCharacter":
        """Every weight divided by p >= 1; raises ValueError unless p divides each."""
        if p < 1:
            raise ValueError(f"untwist needs p >= 1, got p = {p}")
        if any(w % p for w in self.coeffs):
            raise ValueError("weights not divisible by p; cannot untwist")
        return LaurentCharacter({w // p: m for w, m in self.coeffs.items()})

    def dual(self) -> "LaurentCharacter":
        return LaurentCharacter({-w: m for w, m in self.coeffs.items()})

    def serialize(self) -> str:
        """Stable text form 'w1:m1,w2:m2' sorted by weight ('-' if zero)."""
        if not self.coeffs:
            return "-"
        return ",".join(f"{w}:{self.coeffs[w]}" for w in sorted(self.coeffs))

    def __repr__(self) -> str:
        return f"LaurentCharacter({self.serialize()!r})"


def weyl_chi(m: int) -> LaurentCharacter:
    """Rank-one Euler characteristic chi(m); chi(-1) = 0, chi(m) = -chi(-m-2)."""
    if m >= 0:
        return LaurentCharacter({w: 1 for w in range(-m, m + 1, 2)})
    if m == -1:
        return LaurentCharacter.zero()
    return -weyl_chi(-m - 2)


def _digits(n: int, p: int) -> list[int]:
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def simple_char(m: int, p: int) -> LaurentCharacter:
    """Character of the simple module L(m) via base-p digit factorization."""
    check_prime(p)
    if m < 0:
        raise ValueError("simple characters need a dominant weight")
    out = LaurentCharacter.line(0)
    for i, d in enumerate(_digits(m, p)):
        out = out * weyl_chi(d).scale_weights(p ** i)
    return out


def tilting_char(m: int, p: int) -> LaurentCharacter:
    """Character of the indecomposable tilting T(m), supported for m <= 2p-2."""
    check_prime(p)
    if m < 0 or m > 2 * p - 2:
        raise ValueError(f"tilting character T({m}) unsupported for p={p}")
    if m <= p - 1:
        return weyl_chi(m)
    return weyl_chi(m) + weyl_chi(2 * p - 2 - m)


@dataclass
class DecompList:
    """Labeled decomposition with multiplicities, highest weight first.

    entries are (family, weight, multiplicity) with family one of
    'Nabla', 'L', 'T' ('Delta' occurs only in fixtures).  virtual is set
    when a peel produced a negative multiplicity or left a remainder.
    """

    entries: list[tuple[str, int, int]] = field(default_factory=list)
    virtual: bool = False
    remainder: LaurentCharacter = field(default_factory=LaurentCharacter.zero)

    def format(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for fam, w, m in self.entries:
            label = f"{fam}({w})"
            parts.append(label if m == 1 else f"{m}*{label}")
        return "+".join(parts)


def _greedy_peel(c: LaurentCharacter, family: str, expand) -> DecompList:
    entries = []
    virtual = False
    rem = LaurentCharacter(c.coeffs)
    while not rem.is_zero():
        top = rem.max_weight()
        if top < 0:
            virtual = True
            break
        mult = rem.coeff(top)
        if mult < 0:
            virtual = True
        rem = rem - mult * expand(top)
        entries.append((family, top, mult))
    return DecompList(entries, virtual, rem)


def decompose_nabla(c: LaurentCharacter) -> DecompList:
    """Peel chi's from the top; exact for characters of modules with a
    good filtration, virtual multiplicities otherwise (flagged)."""
    return _greedy_peel(c, "Nabla", weyl_chi)


def decompose_simples(c: LaurentCharacter, p: int) -> DecompList:
    """Composition-factor counting by triangular peel of simple characters."""
    check_prime(p)
    return _greedy_peel(c, "L", lambda w: simple_char(w, p))


def decompose_tilting_greedy(c: LaurentCharacter, p: int) -> DecompList:
    """Greedy tilting decomposition; raises unless it is exact and nonnegative.

    Ties cannot occur: there is a single highest weight at every step.
    """
    check_prime(p)
    if not c.is_zero() and max(abs(w) for w in c.coeffs) > 2 * p - 2:
        raise ValueError("weight outside the supported tilting range [-(2p-2), 2p-2]")
    dec = _greedy_peel(c, "T", lambda w: tilting_char(w, p))
    if dec.virtual or not dec.remainder.is_zero() or any(m < 0 for _, _, m in dec.entries):
        raise ValueError("character has no nonnegative tilting decomposition")
    return dec


def euler_induction(c: LaurentCharacter) -> tuple[LaurentCharacter, bool]:
    """Weight-wise induction Euler characteristic sum_mu c(mu) chi(mu).

    The returned flag is True when every weight of c is >= -1; in that
    regime higher derived induction vanishes (Kempf), so the Euler
    character is the character of an actual module.
    """
    out = LaurentCharacter.zero()
    for w, m in c.coeffs.items():
        out = out + m * weyl_chi(w)
    dominant_ok = all(w >= -1 for w in c.coeffs)
    return out, dominant_ok
