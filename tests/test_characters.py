"""Character calculus for rank one."""

import pytest

from frobcoho.characters import (
    LaurentCharacter,
    decompose_nabla,
    decompose_simples,
    decompose_tilting_greedy,
    euler_induction,
    simple_char,
    tilting_char,
    weyl_chi,
)

PRIMES = (2, 3, 5, 7)


def q(w, m=1):
    return LaurentCharacter({w: m})


def test_weyl_chi_small():
    assert weyl_chi(2) == q(2) + q(0) + q(-2)
    assert weyl_chi(-1).is_zero()
    assert weyl_chi(-4) == -weyl_chi(2)
    assert weyl_chi(0) == q(0)


def test_weyl_chi_dims():
    for lam in range(12):
        assert weyl_chi(lam).dim() == lam + 1


def test_pieri_rule_including_degenerate_point():
    natural = weyl_chi(1)
    for lam in range(-6, 9):
        lhs = weyl_chi(lam) * natural
        assert lhs == weyl_chi(lam + 1) + weyl_chi(lam - 1)


def test_simple_char_restricted_range_and_steinberg():
    for p in PRIMES:
        for lam in range(p):
            assert simple_char(lam, p) == weyl_chi(lam)
        two_digit = simple_char(2 * p - 2, p)
        assert two_digit == weyl_chi(p - 2) * weyl_chi(1).scale_weights(p)
        assert two_digit.dim() == 2 * (p - 1)


def test_simple_char_digit_dimension_product():
    assert simple_char(4, 3).dim() == 4  # digits (1, 1)
    for p in PRIMES:
        for lam in range(3 * p):
            digits = []
            m = lam
            while True:
                digits.append(m % p)
                m //= p
                if m == 0:
                    break
            expected = 1
            for d in digits:
                expected *= d + 1
            assert simple_char(lam, p).dim() == expected


@pytest.mark.parametrize("p", [0, 1, 4])
def test_character_functions_reject_a_modulus_that_is_not_prime(p):
    # unchecked, p = 1 would never end (_digits divides by 1), p = 0 would
    # divide by zero and p = 4 would be answered as if prime
    for call in (lambda: simple_char(3, p), lambda: tilting_char(3, p),
                 lambda: decompose_simples(weyl_chi(2), p),
                 lambda: decompose_tilting_greedy(weyl_chi(2), p)):
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            call()


def test_tilting_char_ranges():
    for p in PRIMES:
        assert tilting_char(2 * p - 2, p).dim() == 2 * p
        for m in range(p):
            assert tilting_char(m, p) == weyl_chi(m)
        for m in range(p, 2 * p - 1):
            assert tilting_char(m, p) == weyl_chi(m) + weyl_chi(2 * p - 2 - m)
    assert tilting_char(4, 5) == weyl_chi(4)
    assert tilting_char(8, 5).dim() == 10
    with pytest.raises(ValueError):
        tilting_char(2 * 5 - 1, 5)


def test_decompose_nabla_examples():
    assert decompose_nabla(weyl_chi(0)).entries == [("Nabla", 0, 1)]
    c = weyl_chi(6) + weyl_chi(2)
    dec = decompose_nabla(c)
    assert dec.entries == [("Nabla", 6, 1), ("Nabla", 2, 1)]
    assert not dec.virtual


def test_decompose_nabla_truncated_piece():
    from frobcoho.lie import sl2
    from frobcoho.wmodules import truncated_sym

    dec = decompose_nabla(truncated_sym(sl2(5), 4).character())
    assert dec.entries == [("Nabla", 8, 1), ("Nabla", 4, 1), ("Nabla", 0, 1)]


def test_decompose_nabla_roundtrip():
    for p in PRIMES:
        for m in range(0, 2 * p):
            c = tilting_char(min(m, 2 * p - 2), p) + simple_char(m, p)
            dec = decompose_nabla(c)
            back = LaurentCharacter.zero()
            for _, w, mult in dec.entries:
                back = back + mult * weyl_chi(w)
            assert back == c and not dec.virtual


def test_decompose_tilting_examples():
    assert decompose_tilting_greedy(weyl_chi(0), 3).entries == [("T", 0, 1)]
    c5 = weyl_chi(8) + weyl_chi(4) + weyl_chi(0)  # S^4(sl2), p = 5
    assert decompose_tilting_greedy(c5, 5).entries == [("T", 8, 1), ("T", 4, 1)]
    with pytest.raises(ValueError):
        decompose_tilting_greedy(weyl_chi(9), 5)  # outside [-(2p-2), 2p-2]
    with pytest.raises(ValueError):
        decompose_tilting_greedy(simple_char(8, 5), 5)  # L(8) is not tilting


def test_decompose_simples_peel_is_the_oracle():
    # T(4) at p=3 peels to L(4) + 2 L(0): chi(4) = [L(4)] + [L(0)] and
    # chi(0) = [L(0)], so the multiset is forced
    dec = decompose_simples(tilting_char(4, 3), 3)
    assert dec.entries == [("L", 4, 1), ("L", 0, 2)]
    assert decompose_simples(weyl_chi(1), 7).entries == [("L", 1, 1)]
    for p in PRIMES:
        dec = decompose_simples(simple_char(2 * p - 2, p), p)
        assert dec.entries == [("L", 2 * p - 2, 1)]


def test_euler_induction_examples():
    out, ok = euler_induction(q(-1))
    assert out.is_zero() and ok
    out, ok = euler_induction(q(2) + q(0))
    assert out == weyl_chi(2) + weyl_chi(0) and out.dim() == 4 and ok
    for m in range(4):
        c = q(2 * m + 2) + q(2 * m)
        out, ok = euler_induction(c)
        assert out.dim() == 2 * (2 * m + 2) and ok
    _, ok = euler_induction(q(-2))
    assert not ok


def test_nilpotent_cone_graded_dims():
    for i in range(8):
        assert weyl_chi(2 * i).dim() == 2 * i + 1


def test_character_algebra_and_serialization():
    c = weyl_chi(1) * weyl_chi(1)
    assert c == q(2) + q(0, 2) + q(-2)
    assert c.serialize() == "-2:1,0:2,2:1"
    assert LaurentCharacter.zero().serialize() == "-"
    assert c.dual() == c
    assert c.is_symmetric()
    assert (q(3) - q(3)).is_zero()
    assert q(4).untwist(2) == q(2)
    with pytest.raises(ValueError):
        q(3).untwist(2)


def test_untwist_needs_a_positive_modulus():
    for n in (0, -1, -3):  # 0 divided by zero; -3 answered silently
        with pytest.raises(ValueError, match=f"p = {n}"):
            q(6).untwist(n)
    assert q(6).untwist(1) == q(6) and q(8).untwist(4) == q(2)
