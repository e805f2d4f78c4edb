import random

import pytest

from _vectors import x_vector_right_mul, y_vector_act, y_vector_left_mul
from braidmoves.homology import (
    GroupRingElement,
    HomologyClassX,
    ProvenanceError,
    evaluate_x,
    evaluate_y,
    fox_x,
    fox_y,
    left_action,
    left_action_y,
    star_x_components,
    star_x_to_y,
    star_y_to_x,
    tau_components_x,
    tau_components_y,
)
from braidmoves.krammer import tau_plus_act
from braidmoves.magnus import tau
from braidmoves.words import BraidWord, FreeWord, y_basis_word


def gre(text, n, coeff=1):
    return GroupRingElement.from_word(FreeWord.parse(text, n), coeff)


def rand_free(rng, n, max_len=6):
    k = rng.randrange(0, max_len + 1)
    return FreeWord(n, tuple((rng.randrange(1, n + 1), rng.choice([1, -1])) for _ in range(k)))


def rand_braid(rng, n, max_len=6):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k)))


# -- group ring --------------------------------------------------------------


def test_group_ring_basics():
    a = gre("x1", 3) + gre("x2", 3, 2)
    b = gre("x2^-1", 3)
    assert (a - a).is_zero()
    assert a * b == gre("x1 x2^-1", 3) + GroupRingElement.one(3).scale(2)
    assert a.augmentation() == 3
    assert (a * b).star() == gre("x2 x1^-1", 3) + GroupRingElement.one(3).scale(2)


def test_group_ring_star_is_anti_involution():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.choice([2, 3])
        a = GroupRingElement.from_word(rand_free(rng, n)) + GroupRingElement.from_word(
            rand_free(rng, n), rng.choice([-2, -1, 1, 2])
        )
        b = GroupRingElement.from_word(rand_free(rng, n))
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


# -- the derivation d ----------------------------------------------------------


def test_fox_x_golden_conjugate():
    v = fox_x(FreeWord.parse("x2 x4 x2^-1", 4))
    assert v.coefficient(2) == gre("x4 x2^-1", 4) - gre("x2^-1", 4)
    assert v.coefficient(4) == gre("x2^-1", 4)
    assert v.coefficient(1).is_zero() and v.coefficient(3).is_zero()


def test_fox_x_golden_long():
    v = fox_x(FreeWord.parse("x1 x2 x3 x2^-1 x1^-1", 4))
    assert v.coefficient(1) == gre("x2 x3 x2^-1 x1^-1", 4) - gre("x1^-1", 4)
    assert v.coefficient(2) == gre("x3 x2^-1 x1^-1", 4) - gre("x2^-1 x1^-1", 4)
    assert v.coefficient(3) == gre("x2^-1 x1^-1", 4)
    assert v.coefficient(4).is_zero()


def test_fox_x_empty():
    assert fox_x(FreeWord.identity(3)).is_zero()


def test_fox_x_split_independence():
    # d(uv) = d(u) v + d(v), checked against the direct computation at
    # every split point
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 8)
        full = fox_x(w)
        for k in range(len(w.letters) + 1):
            u = FreeWord(n, w.letters[:k])
            v = FreeWord(n, w.letters[k:])
            combined = fox_x(u).right_mul(GroupRingElement.from_word(v)) + fox_x(v)
            assert combined.coeffs == full.coeffs


def test_fox_x_augmentation():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 8)
        v = fox_x(w)
        for i in range(1, n + 1):
            assert v.coefficient(i).augmentation() == w.exponent_sum(i)


# -- the derivation e ----------------------------------------------------------


def test_fox_y_basis_cases():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            cls = fox_y(y_basis_word(i, n))
            for k in range(1, n + 1):
                expected = GroupRingElement.one(n) if k == i else GroupRingElement.zero(n)
                assert cls.coefficient(k) == expected


def test_fox_y_x1_inverse():
    cls = fox_y(FreeWord.parse("x1^-1", 4))
    assert cls.coefficient(1) == GroupRingElement.one(4)
    assert all(cls.coefficient(k).is_zero() for k in (2, 3, 4))


def test_fox_y_x3_inverse():
    # x3^-1 = y1 y2 y3 y2^-1 y1^-1; the f3 term is y1 y2 = x2^-1 x1^-1
    cls = fox_y(FreeWord.parse("x3^-1", 4))
    assert cls.coefficient(3) == gre("x2^-1 x1^-1", 4)
    assert cls.coefficient(1) == GroupRingElement.one(4) - gre("x3^-1", 4)
    assert cls.coefficient(2) == gre("x1^-1", 4) - gre("x3^-1 x1^-1", 4)


# -- star ------------------------------------------------------------------------


def test_star_basis_formula():
    # e_i^* = e(x_i^-1)
    for i in (1, 2, 3):
        ei = fox_x(FreeWord.generator(3, i))
        assert star_x_to_y(ei).coeffs == fox_y(FreeWord.generator(3, i, -1)).coeffs


def test_star_x1():
    v = star_x_to_y(fox_x(FreeWord.generator(4, 1)))
    assert v.coefficient(1) == GroupRingElement.one(4)
    assert all(v.coefficient(k).is_zero() for k in (2, 3, 4))


def test_star_second_exchange_witness():
    v = fox_x(FreeWord.parse("x1 x2 x3 x4 x3^-1 x2^-1 x1^-1", 4))
    s = star_x_to_y(v)
    # the star is exactly the basis class f_4
    assert s.coefficient(4) == GroupRingElement.one(4)
    assert all(s.coefficient(k).is_zero() for k in (1, 2, 3))


def test_star_requires_provenance():
    bare = HomologyClassX(3, fox_x(FreeWord.generator(3, 1)).coeffs)
    with pytest.raises(ProvenanceError):
        star_x_to_y(bare)


def test_star_dual_routes_agree():
    # provenance route vs basis-expansion route
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 7)
        assert star_x_components(fox_x(w.inverse())).coeffs == fox_y(w).coeffs


def test_star_semilinear():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.choice([2, 3])
        w = rand_free(rng, n, 5)
        r = GroupRingElement.from_word(rand_free(rng, n, 4), rng.choice([1, -1, 2]))
        v = fox_x(w)
        lhs = star_x_components(v.right_mul(r))
        rhs = star_x_components(v).left_mul(r.star())
        assert lhs.coeffs == rhs.coeffs


def test_star_y_to_x_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 6)
        assert star_y_to_x(star_x_to_y(fox_x(w))).coeffs == fox_x(w).coeffs


# -- the braid action --------------------------------------------------------------


def test_left_action_golden():
    b2 = BraidWord.parse("-2 -2 -1 -2 -3 2 2 2 1 2 3", 4)
    e3 = fox_x(FreeWord.generator(4, 3))
    acted = left_action(b2, e3)
    assert acted.loop == FreeWord.generator(4, 1)
    assert acted.coeffs == fox_x(FreeWord.generator(4, 1)).coeffs


def test_left_action_identity():
    v = fox_x(FreeWord.parse("x1 x2^-1", 3))
    assert left_action(BraidWord.identity(3), v).coeffs == v.coeffs


def test_left_action_morton_golden():
    beta = BraidWord.parse("-2 -2 1 -2 3 2 2 2 -1 2 -3", 4)
    w = fox_x(FreeWord.parse("x2 x4 x2^-1", 4))
    acted = left_action(beta, w)
    assert acted.coefficient(2) == (
        gre("x3 x2 x3^-1 x2^-1", 4) + gre("x3^-1 x2^-1", 4) - gre("x2^-1", 4)
    )
    assert acted.coefficient(3) == gre("x2 x3^-1 x2^-1", 4) - gre("x3^-1 x2^-1", 4)
    assert acted.coefficient(1).is_zero() and acted.coefficient(4).is_zero()


# -- matrix-level equivariance (the two routes agree) --------------------------------


def test_equivariance_x():
    # tau of components of [beta(w)]_x equals the generator-action route
    # applied to tau of components of [w]_x, times tau(beta)^-1
    rng = random.Random(8)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        beta = rand_braid(rng, n, 6)
        w = rand_free(rng, n, 6)
        lhs = evaluate_x(fox_x(beta(w)))
        vec = tau_plus_act(beta, evaluate_x(fox_x(w)))
        rhs = x_vector_right_mul(vec, tau(beta.inverse()))
        assert lhs == rhs


def test_equivariance_y():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        beta = rand_braid(rng, n, 6)
        w = rand_free(rng, n, 6)
        lhs = evaluate_y(fox_y(beta(w)))
        vec = y_vector_act(evaluate_y(fox_y(w)), beta.inverse())
        rhs = y_vector_left_mul(tau(beta), vec)
        assert lhs == rhs


def test_fast_component_sweeps_match():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 8)
        assert tau_components_x(w) == evaluate_x(fox_x(w))
        assert tau_components_y(w) == evaluate_y(fox_y(w))


def test_left_action_y_golden():
    b = BraidWord.parse("1", 3)
    f = fox_y(y_basis_word(1, 3))
    acted = left_action_y(b, f)
    assert acted.loop == b(y_basis_word(1, 3))


def test_class_text_form():
    v = fox_x(FreeWord.parse("x2 x4 x2^-1", 4))
    assert str(v) == "e2*(-x2^-1 + x4 x2^-1) + e4*(x2^-1)"
