import random
from functools import partial

import pytest

from _vectors import x_vector_right_mul, y_vector_act, y_vector_left_mul
from braidmoves.homology import (
    GroupRingElement,
    HomologyClassX,
    HomologyClassY,
    ProvenanceError,
    evaluate_x,
    evaluate_y,
    fold_x,
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
from braidmoves.words import BraidWord, FreeWord, WordError, y_basis_word


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


def test_fold_x_in_the_group_ring():
    # the fold gives sum_i r_i m_i over the components m_i of [w]_x without
    # forming them; in ZF_n the products are exact words
    rng = random.Random(14)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        w = rand_free(rng, n, 10)
        rs = tuple(GroupRingElement.from_word(rand_free(rng, n, 3)) for _ in range(n))
        zero = GroupRingElement.zero(n)
        expected = zero
        for r, m in zip(rs, fox_x(w).coeffs):
            expected = expected + r * m
        assert fold_x(w, rs, zero, partial(FreeWord.generator, n)) == expected


def test_left_action_y_golden():
    b = BraidWord.parse("1", 3)
    f = fox_y(y_basis_word(1, 3))
    acted = left_action_y(b, f)
    assert acted.loop == b(y_basis_word(1, 3))


def test_class_text_form():
    v = fox_x(FreeWord.parse("x2 x4 x2^-1", 4))
    assert str(v) == "e2*(-x2^-1 + x4 x2^-1) + e4*(x2^-1)"


def test_sum_of_classes_from_the_two_modules_raises_type_error():
    w = FreeWord.parse("x1 x2^-1 x3", 3)
    with pytest.raises(TypeError):
        fox_x(w) + fox_y(w)
    with pytest.raises(TypeError):
        fox_y(w) + fox_x(w)
    assert fox_x(w) != fox_y(w)
    assert (fox_x(w) + (-fox_x(w))).is_zero()
    with pytest.raises(WordError, match="puncture count mismatch"):
        fox_x(w) + fox_x(FreeWord.generator(4, 1))


def test_free_word_times_group_ring_element():
    w = FreeWord.parse("x2 x1^-1", 3)
    g = gre("x1 x3", 3) + gre("x2^-1", 3, -2) + GroupRingElement.one(3).scale(5)
    assert w * g == GroupRingElement.from_word(w) * g
    assert g * w == g * GroupRingElement.from_word(w)
    assert w * g != g * w


def test_componentwise_products_by_int_word_and_group_ring_element():
    rng = random.Random(1007)
    for _ in range(20):
        n = rng.randrange(2, 5)
        loop = rand_free(rng, n, 8)
        xc, yc = fox_x(loop), fox_y(loop)
        u = rand_free(rng, n)
        g = GroupRingElement.from_word(rand_free(rng, n), 3) - GroupRingElement.from_word(u)
        for r, lift in ((-3, None), (u, GroupRingElement.from_word(u)), (g, g)):
            left = yc.left_mul(r)
            right = xc.right_mul(r)
            assert isinstance(left, HomologyClassY) and left.loop is None
            assert isinstance(right, HomologyClassX) and right.loop is None
            if lift is None:
                assert left.coeffs == tuple(c.scale(r) for c in yc.coeffs)
                assert right.coeffs == tuple(c.scale(r) for c in xc.coeffs)
            else:
                assert left.coeffs == tuple(lift * c for c in yc.coeffs)
                assert right.coeffs == tuple(c * lift for c in xc.coeffs)
