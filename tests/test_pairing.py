import logging
import random
from functools import partial

import pytest

from braidmoves.homology import (
    GroupRingElement,
    HomologyClassX,
    HomologyClassY,
    fox_x,
    fox_y,
    star_x_to_y,
    star_y_to_x,
)
from braidmoves.magnus import MagnusElement, tau
from braidmoves.pairing import PairingValue, is_zero_pairing, pair, t_element, x_prefix
from braidmoves.words import BraidWord, FreeWord, y_basis_word


def basis_y(n, i):
    return fox_y(y_basis_word(i, n))


def basis_x(n, j):
    return fox_x(FreeWord.generator(n, j))


def rand_free(rng, n, max_len=6):
    k = rng.randrange(0, max_len + 1)
    return FreeWord(n, tuple((rng.randrange(1, n + 1), rng.choice([1, -1])) for _ in range(k)))


def rand_braid(rng, n, max_len=6):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k)))


# -- basis values ------------------------------------------------------------


def test_off_diagonal_vanishes():
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                value = pair(basis_y(4, i), basis_x(4, j))
                assert value.symbolic.is_zero()
                assert is_zero_pairing(value)


def test_diagonal_values():
    for i in range(1, 5):
        value = pair(basis_y(4, i), basis_x(4, i))
        assert value.evaluated == t_element(4, i)
        assert not is_zero_pairing(value)


def test_construction_example():
    # <[y_3]_y, [x_3]_x> = tau(x1 x2 x3) - tau(x1 x2)
    value = pair(basis_y(4, 3), basis_x(4, 3))
    assert value.evaluated == tau(x_prefix(4, 3)) - tau(x_prefix(4, 2))


def test_simple_class_necessary_condition_on_basis():
    # <e_i^*, e_i> = tau(x_i) - 1
    for i in range(1, 5):
        ei = basis_x(4, i)
        value = pair(star_x_to_y(ei), ei)
        assert value.evaluated == tau(FreeWord.generator(4, i)) - MagnusElement.identity(5)


def test_f2_e2_nonzero():
    value = pair(basis_y(4, 2), basis_x(4, 2))
    assert value.evaluated == tau(x_prefix(4, 2)) - tau(x_prefix(4, 1))
    assert not value.evaluated.is_zero()


def test_zero_classes():
    zero_y = HomologyClassY(4, tuple(GroupRingElement.zero(4) for _ in range(4)))
    zero_x = HomologyClassX(4, tuple(GroupRingElement.zero(4) for _ in range(4)))
    assert is_zero_pairing(pair(zero_y, zero_x))


def test_evaluated_equals_tau_of_symbolic():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.choice([2, 3])
        yc = fox_y(rand_free(rng, n, 5))
        xc = fox_x(rand_free(rng, n, 5))
        value = pair(yc, xc)
        assert value.evaluated == tau(value.symbolic)


# -- the theorem's properties ---------------------------------------------------


def test_bilinearity_over_matrix_ring():
    # <u v, w s> = u <v, w> s for u, s in the image of tau
    rng = random.Random(2)
    for _ in range(15):
        n = rng.choice([2, 3])
        yw, xw = rand_free(rng, n, 4), rand_free(rng, n, 4)
        u, s = rand_free(rng, n, 3), rand_free(rng, n, 3)
        yc, xc = fox_y(yw), fox_x(xw)
        scaled = pair(yc.left_mul(u), xc.right_mul(s))
        assert scaled.evaluated == tau(u) * pair(yc, xc).evaluated * tau(s)


def test_conjugation_equivariance():
    # <beta v beta^-1, beta w beta^-1> = beta <v, w> beta^-1, with the
    # conjugated classes computed through the free-group route
    rng = random.Random(3)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        beta = rand_braid(rng, n, 5)
        yw, xw = rand_free(rng, n, 4), rand_free(rng, n, 4)
        lhs = pair(fox_y(beta(yw)), fox_x(beta(xw))).evaluated
        rhs = tau(beta) * pair(fox_y(yw), fox_x(xw)).evaluated * tau(beta.inverse())
        assert lhs == rhs


def test_adjointness():
    # <v beta, w> = <v, beta w> with the matrix-level named actions
    from _vectors import y_vector_act
    from braidmoves.homology import evaluate_x, evaluate_y
    from braidmoves.krammer import tau_plus_act
    from braidmoves.pairing import pairing_sum

    def paired(n, yvec, xvec):
        return pairing_sum(yvec, xvec, partial(t_element, n), MagnusElement.zero(n + 1))

    rng = random.Random(4)
    for _ in range(15):
        n = rng.choice([2, 3])
        beta = rand_braid(rng, n, 4)
        yvec = evaluate_y(fox_y(rand_free(rng, n, 4)))
        xvec = evaluate_x(fox_x(rand_free(rng, n, 4)))
        lhs = paired(n, y_vector_act(yvec, beta), xvec)
        rhs = paired(n, yvec, tau_plus_act(beta, xvec))
        assert lhs == rhs


def test_simple_condition_on_enumerated_classes():
    from braidmoves.detect import enumerate_simple

    for sc in enumerate_simple(3, 1):
        value = pair(star_x_to_y(sc.xclass), sc.xclass)
        expected = tau(sc.word) - MagnusElement.identity(4)
        assert value.evaluated == expected


def test_symmetry_claim_fails_as_stated():
    # The claimed symmetry <v, w> = <w^*, v^*> does NOT hold for this
    # realization; the smallest counterexample is v = [x1]_y, w = [x1]_x
    # in n = 2, where the two sides differ by a unit factor.  Pinned here
    # so the record is deterministic; treated as an open property, never
    # relied on.
    yc = fox_y(FreeWord.generator(2, 1))
    xc = fox_x(FreeWord.generator(2, 1))
    lhs = pair(yc, xc)
    rhs = pair(star_x_to_y(xc), star_y_to_x(yc))
    assert lhs.evaluated != rhs.evaluated
    # both sides vanish together here, but not in general: even the
    # symmetric-vanishing weakening fails on simple-class pairs
    assert lhs.is_zero() == rhs.is_zero() == False
    u = FreeWord.generator(3, 1)
    w = FreeWord.generator(3, 2)
    assert pair(fox_y(u.inverse()), fox_x(w)).is_zero()  # <f1, e2> = 0
    assert not pair(fox_y(w.inverse()), fox_x(u)).is_zero()


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        pair(basis_y(3, 1), basis_x(4, 1))


def test_symbolic_nonzero_tau_zero_is_logged(caplog):
    # No such value is known; force one artificially through a class pair
    # whose symbolic pairing has cancelling tau image: x - x is already
    # symbolically zero, so instead check the logger is quiet on a normal
    # nonzero value and the fast path needs no matrices.
    value = pair(basis_y(4, 2), basis_x(4, 2))
    with caplog.at_level(logging.INFO, logger="braidmoves.pairing"):
        assert not value.is_zero()
    assert not caplog.records

    symbolic_zero = PairingValue(GroupRingElement.zero(4))
    assert symbolic_zero.is_zero()
