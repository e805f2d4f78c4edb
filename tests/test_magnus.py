import random

import pytest

from _oracle import oracle_rho, oracle_tau_word
from braidmoves.homology import GroupRingElement
from braidmoves.laurent import ONE, Q, T, LaurentPoly
from braidmoves.magnus import (
    MagnusElement,
    burau_block,
    deg,
    rho_sigma,
    rho_x,
    tau,
    unreduced_burau,
)
from braidmoves.words import BraidWord, FreeWord, WordError

ZERO = LaurentPoly.zero()
MQ = -(Q * (ONE - Q))          # -q(1-q)
PQ = Q * (ONE - Q)             # q(1-q)
SQ = -((ONE - Q) * (ONE - Q))  # -(1-q)^2
TT = ONE - T                   # 1-t
TQ = (ONE - T) * (ONE - Q)     # (1-t)(1-q)
DD = ONE - Q + T * Q           # 1-q+tq


def rows(m):
    return [list(r) for r in m.entries]


# -- golden generator matrices, n = 4 ---------------------------------------
#
# Frozen entry-for-entry. The (0, j) entry of rho(x_j) is q(1-q): that
# sign is forced by unit determinant and by the defining relations (see
# the relation and determinant tests below, and the matching oracle).


def test_golden_sigma_matrices():
    for i in (1, 2, 3):
        m = rho_sigma(4, i)
        expect = [[ONE if r == c else ZERO for c in range(5)] for r in range(5)]
        expect[i][i], expect[i][i + 1] = ZERO, Q
        expect[i + 1][i], expect[i + 1][i + 1] = ONE, ONE - Q
        assert rows(m) == expect


def test_golden_x1():
    assert rows(rho_x(4, 1)) == [
        [Q, PQ, ZERO, ZERO, ZERO],
        [TT, DD, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, ZERO, ONE],
    ]


def test_golden_x2():
    assert rows(rho_x(4, 2)) == [
        [Q, SQ, PQ, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO, ZERO],
        [TT, TQ, DD, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, ZERO, ONE],
    ]


def test_golden_x3():
    assert rows(rho_x(4, 3)) == [
        [Q, SQ, SQ, PQ, ZERO],
        [ZERO, ONE, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, ZERO],
        [TT, TQ, TQ, DD, ZERO],
        [ZERO, ZERO, ZERO, ZERO, ONE],
    ]


def test_golden_x4():
    assert rows(rho_x(4, 4)) == [
        [Q, SQ, SQ, SQ, PQ],
        [ZERO, ONE, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ONE, ZERO],
        [TT, TQ, TQ, TQ, DD],
    ]


# -- the oracle agrees, for every n and both signs ---------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generators_match_oracle(n):
    for i in range(1, n):
        for sign in (1, -1):
            assert rows(rho_sigma(n, i, sign)) == oracle_rho(n, "sigma", i, sign)
    for j in range(1, n + 1):
        for sign in (1, -1):
            assert rows(rho_x(n, j, sign)) == oracle_rho(n, "x", j, sign)


# -- determinants are units ---------------------------------------------------


def det(m):
    # permutation expansion; fine at size <= 6
    import itertools

    size = m.size
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(size)):
        sign = 1
        p = list(perm)
        for i in range(size):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        term = ONE
        for i in range(size):
            term = term * m[i, perm[i]]
            if not term:
                break
        total = total + term.scale(sign)
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_determinants_are_unit_monomials(n):
    for i in range(1, n):
        assert det(rho_sigma(n, i)) == Q.scale(-1)
    for j in range(1, n + 1):
        assert det(rho_x(n, j)) == Q * T


def test_inverses():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            assert (rho_sigma(n, i) * rho_sigma(n, i, -1)).is_identity()
        for j in range(1, n + 1):
            assert (rho_x(n, j) * rho_x(n, j, -1)).is_identity()
            assert (rho_x(n, j, -1) * rho_x(n, j)).is_identity()


# -- the defining relations hold under tau ------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_relations(n):
    for i in range(1, n - 1):
        lhs = tau(BraidWord.parse(f"{i} {i+1} {i}", n))
        rhs = tau(BraidWord.parse(f"{i+1} {i} {i+1}", n))
        assert lhs == rhs
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert tau(BraidWord.parse(f"{i} {j}", n)) == tau(BraidWord.parse(f"{j} {i}", n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mixed_relations(n):
    # sigma_i x_j sigma_i^-1 agrees with the rewritten right-hand side
    for i in range(1, n):
        ts = tau(BraidWord.generator(n, i))
        tsi = tau(BraidWord.generator(n, i, -1))
        for j in range(1, n + 1):
            lhs = ts * tau(FreeWord.generator(n, j)) * tsi
            rhs = tau(BraidWord.generator(n, i)(FreeWord.generator(n, j)))
            assert lhs == rhs


def test_mixed_words_match_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(10):
            letters = []
            for _ in range(rng.randrange(0, 6)):
                if rng.random() < 0.5:
                    letters.append(("sigma", rng.randrange(1, n), rng.choice([1, -1])))
                else:
                    letters.append(("x", rng.randrange(1, n + 1), rng.choice([1, -1])))
            pieces = [
                BraidWord(n, ((idx, s),)) if kind == "sigma" else FreeWord(n, ((idx, s),))
                for kind, idx, s in letters
            ]
            got = tau(pieces, n=n)
            assert rows(got) == oracle_tau_word(n, letters)


def test_tau_of_a_word_forms_no_matrix_product(monkeypatch):
    """tau of a word pushes rows through one table per letter: with the
    matrix product disabled, tau of braid and free words, the y-basis
    tables, t_i and the y-side components still build, and tau agrees with
    the oracle."""
    from braidmoves.homology import tau_components_y, y_right
    from braidmoves.magnus import _tau_word
    from braidmoves.pairing import t_element

    for cache in (_tau_word, y_right, t_element):
        cache.cache_clear()

    def refuse(self, other):
        raise AssertionError("tau of a word formed a matrix product")

    monkeypatch.setattr(MagnusElement, "__mul__", refuse)
    rng = random.Random(20)
    built = []
    for n in range(2, 7):
        for kind, word_type, top in (("sigma", BraidWord, n - 1), ("x", FreeWord, n)):
            for length in (1, 2, 8, 30):
                for sign in (1, -1):
                    letters = [(kind, rng.randint(1, top), sign)]
                    letters += [
                        (kind, rng.randint(1, top), rng.choice((1, -1)))
                        for _ in range(length - 1)
                    ]
                    word = word_type(n, tuple((i, s) for _, i, s in letters))
                    built.append((n, letters, tau(word)))
        for i in range(1, n + 1):
            t_element(n, i)
            for sign in (1, -1):
                y_right(n, i, sign)
        loop = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(30)))
        tau_components_y(loop)
    monkeypatch.undo()
    for n, letters, got in built:
        assert rows(got) == oracle_tau_word(n, letters)


# -- tau structure -------------------------------------------------------------


def test_tau_twist():
    # tau(sigma) = rho(sigma); tau(x_j) = q rho(x_j)
    assert tau(BraidWord.generator(4, 1)) == rho_sigma(4, 1)
    assert tau(FreeWord.generator(4, 2)) == rho_x(4, 2).scale(Q)


def test_tau_identity_and_inverse():
    assert tau([], n=3) == MagnusElement.identity(4)
    x1 = FreeWord.generator(4, 1)
    assert tau(x1) * tau(x1.inverse()) == MagnusElement.identity(5)
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        w = FreeWord(n, tuple((rng.randrange(1, n + 1), rng.choice([1, -1])) for _ in range(6)))
        assert (tau(w) * tau(w.inverse())).is_identity()


def test_tau_inverse_on_mixed_words():
    # tau(w) tau(w^-1) = 1 for words mixing braid and loop letters
    rng = random.Random(15)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        pieces = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.5:
                pieces.append(BraidWord.generator(n, rng.randrange(1, n), rng.choice([1, -1])))
            else:
                pieces.append(FreeWord.generator(n, rng.randrange(1, n + 1), rng.choice([1, -1])))
        inverse_pieces = [p.inverse() for p in reversed(pieces)]
        assert (tau(pieces, n=n) * tau(inverse_pieces, n=n)).is_identity()


def test_row0_col0_structure():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.choice([3, 4])
        b = BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(8)))
        m = tau(b)
        assert [m[0, c] for c in range(n + 1)] == [ONE] + [ZERO] * n
        assert [m[r, 0] for r in range(n + 1)] == [ONE] + [ZERO] * n


def test_deg():
    assert deg(BraidWord.parse("1 -2 1", 3)) == 0
    assert deg(FreeWord.parse("x2 x4 x2^-1", 4)) == 1
    assert deg(FreeWord.parse("x1^-1 x3^-1", 3)) == -2
    assert deg([BraidWord.parse("1", 3), FreeWord.parse("x1 x2", 3)]) == 2


S1 = BraidWord.parse("1", 3)
X1_ON_3 = FreeWord.parse("x1", 3)


@pytest.mark.parametrize("f", [tau, deg])
@pytest.mark.parametrize(
    "pieces, error, match",
    [
        ([S1, GroupRingElement.from_word(X1_ON_3)], TypeError, "GroupRingElement"),
        (["x1"], TypeError, "str"),
        ([FreeWord.parse("x1 x2", 3), "x"], TypeError, "str"),
        ([S1, FreeWord.parse("x1", 4)], WordError, "3 vs 4"),
        ([X1_ON_3, S1, BraidWord.parse("1", 4)], WordError, "3 vs 4"),
    ],
    ids=["group-ring-element", "string", "word-then-string", "counts", "counts-later"],
)
def test_sequences_of_pieces_are_checked(f, pieces, error, match):
    """tau and deg of a sequence read words on one count only: another
    piece raises TypeError, named by its type, and words on two counts
    WordError, as a product of the two words does."""
    with pytest.raises(error, match=match):
        f(pieces)


# -- Burau block ----------------------------------------------------------------


def test_burau_block_of_generator():
    m = unreduced_burau(BraidWord.generator(4, 1))
    expect = [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    expect[0][0], expect[0][1] = ZERO, Q
    expect[1][0], expect[1][1] = ONE, ONE - Q
    assert rows(m) == expect
    assert burau_block(tau(BraidWord.identity(4))).is_identity()


def test_burau_product_by_hand():
    # multiply the two displayed blocks directly
    a = unreduced_burau(BraidWord.generator(4, 1))
    b = unreduced_burau(BraidWord.generator(4, 2))
    assert unreduced_burau(BraidWord.parse("1 2", 4)) == a * b


def test_burau_homomorphism_random():
    rng = random.Random(12)
    for n in (3, 4, 5):
        for _ in range(12):
            k = rng.randrange(0, 12)
            letters = tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k))
            b = BraidWord(n, letters)
            cut = rng.randrange(0, len(b.letters) + 1)
            b1 = BraidWord(n, b.letters[:cut])
            b2 = BraidWord(n, b.letters[cut:])
            assert unreduced_burau(b) == unreduced_burau(b1) * unreduced_burau(b2)


def test_matrix_json_round_trip():
    m = tau(BraidWord.parse("1 -2", 4))
    assert MagnusElement.from_json(m.to_json()) == m
