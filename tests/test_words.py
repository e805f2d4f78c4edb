import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidmoves.words import (
    MAX_WORD_LETTERS,
    BraidWord,
    FreeWord,
    WordError,
    act_braid_on_free,
    act_letters,
    y_basis_word,
)

BETA2 = "-2 -2 -1 -2 -3 2 2 2 1 2 3"


def braid_strategy(n, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1])), max_size=max_len
    ).map(lambda ls: BraidWord(n, tuple(ls)))


def free_strategy(n, max_len=10):
    return st.lists(
        st.tuples(st.integers(1, n), st.sampled_from([1, -1])), max_size=max_len
    ).map(lambda ls: FreeWord(n, tuple(ls)))


# -- parsing ---------------------------------------------------------------


def test_parse_beta2():
    b = BraidWord.parse(BETA2, 4)
    assert len(b) == 11
    assert str(b) == BETA2  # round trip through formatting


def test_parse_empty_and_cancellation():
    assert BraidWord.parse("", 3) == BraidWord.identity(3)
    assert BraidWord.parse("1 -1", 2) == BraidWord.identity(2)


def test_parse_symbolic_form():
    assert BraidWord.parse("s2^-1 s1", 3) == BraidWord.parse("-2 1", 3)
    assert BraidWord.parse("s1^3", 2) == BraidWord.parse("1 1 1", 2)


def test_parse_errors():
    with pytest.raises(WordError):
        BraidWord.parse("3", 3)  # index out of range 1..n-1
    with pytest.raises(WordError):
        BraidWord.parse("0", 3)
    with pytest.raises(WordError):
        BraidWord.parse("x1", 3)
    with pytest.raises(WordError):
        FreeWord.parse("q2", 3)


def test_parse_bounds_checked_before_expanding():
    bad = [
        (FreeWord, "x9^3000000", 4),  # index out of range, huge exponent
        (FreeWord, "x1^999999999999", 4),
        (BraidWord, "s5^3000000", 4),
        (BraidWord, "s1^-999999999999", 4),
    ]
    tracemalloc.start()
    try:
        for cls, text, n in bad:
            with pytest.raises(WordError):
                cls.parse(text, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no expansion was allocated: a list of 10^5 letters alone is ~0.8 MB
    assert peak < 200_000
    assert len(FreeWord.parse(f"x1^{MAX_WORD_LETTERS}", 1)) == MAX_WORD_LETTERS
    with pytest.raises(WordError):  # the cap counts every token
        FreeWord.parse(f"x1^{MAX_WORD_LETTERS} x2", 2)
    with pytest.raises(WordError):
        BraidWord.parse(f"s1^{MAX_WORD_LETTERS} -1", 2)
    assert FreeWord.parse("x2^0 x1", 2) == FreeWord.generator(2, 1)
    with pytest.raises(WordError):
        FreeWord.parse("x3^0", 2)


def test_free_word_parse_round_trip():
    w = FreeWord.parse("x2 x4^-1 x2^-1", 4)
    assert str(w) == "x2 x4^-1 x2^-1"
    assert FreeWord.parse("x1^2", 2) == FreeWord(2, ((1, 1), (1, 1)))


def test_free_reduction_idempotent():
    w = FreeWord(3, ((1, 1), (2, 1), (2, -1), (1, -1), (3, 1)))
    assert w.letters == ((3, 1),)


# -- the action ------------------------------------------------------------


def test_action_on_generators():
    s1 = BraidWord.generator(3, 1)
    assert s1(FreeWord.generator(3, 1)) == FreeWord.generator(3, 2)
    assert s1(FreeWord.generator(3, 2)) == FreeWord.parse("x2^-1 x1 x2", 3)
    assert s1(FreeWord.generator(3, 3)) == FreeWord.generator(3, 3)


def test_action_anchor_beta2():
    # pins the composition order: rightmost letter acts first
    b2 = BraidWord.parse(BETA2, 4)
    assert b2(FreeWord.generator(4, 3)) == FreeWord.generator(4, 1)


def test_action_anchor_beta1():
    b1 = BraidWord.parse("-2 -2 -1 -2 3 2 2 2 1 2 -3", 4)
    w = FreeWord.parse("x1 x2 x3 x2^-1 x1^-1", 4)
    assert b1(w) == FreeWord.parse("x1 x2 x3 x1 x3^-1 x2^-1 x1^-1", 4)


def test_act_function_alias():
    b = BraidWord.parse("1", 2)
    assert act_braid_on_free(b, FreeWord.generator(2, 1)) == FreeWord.generator(2, 2)


def test_act_letters_steps_through_the_action():
    # one word per letter, rightmost letter first, ending at b(w)
    b = BraidWord.parse(BETA2, 4)
    w = FreeWord.generator(4, 3)
    steps = list(act_letters(b, w.letters))
    assert len(steps) == len(b)
    for k, step in enumerate(steps, 1):
        assert step == BraidWord(4, b.letters[-k:])(w).letters
    assert steps[-1] == ((1, 1),)


def test_action_strand_mismatch():
    with pytest.raises(WordError):
        BraidWord.parse("1", 3)(FreeWord.generator(4, 1))


@given(braid_strategy(4), free_strategy(4, 6), free_strategy(4, 6))
@settings(max_examples=120)
def test_action_is_automorphism(b, u, v):
    assert b(u * v) == b(u) * b(v)
    assert b(u.inverse()) == b(u).inverse()


@given(braid_strategy(5, 8), braid_strategy(5, 8), free_strategy(5, 6))
@settings(max_examples=120)
def test_action_composition(b1, b2, w):
    assert (b1 * b2)(w) == b1(b2(w))


@given(st.integers(2, 5), st.data())
@settings(max_examples=80)
def test_braid_relations_on_action(n, data):
    ws = data.draw(free_strategy(n, 6))
    for i in range(1, n - 1):
        lhs = BraidWord.parse(f"{i} {i+1} {i}", n)
        rhs = BraidWord.parse(f"{i+1} {i} {i+1}", n)
        assert lhs(ws) == rhs(ws)
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert BraidWord.parse(f"{i} {j}", n)(ws) == BraidWord.parse(f"{j} {i}", n)(ws)


@given(braid_strategy(5, 10))
@settings(max_examples=100)
def test_full_boundary_loop_fixed(b):
    loop = FreeWord(5, tuple((k, 1) for k in range(1, 6)))
    assert b(loop) == loop


# -- small utilities ---------------------------------------------------------


def test_y_basis_word():
    assert y_basis_word(1, 4) == FreeWord.parse("x1^-1", 4)
    assert y_basis_word(2, 4) == FreeWord.parse("x1 x2^-1 x1^-1", 4)
    assert y_basis_word(3, 4) == FreeWord.parse("x1 x2 x3^-1 x2^-1 x1^-1", 4)
    with pytest.raises(WordError):
        y_basis_word(5, 4)


def test_exponent_sum():
    # the eleven letters of the example braid: five negative, six positive
    b2 = BraidWord.parse(BETA2, 4)
    signs = [1 if int(tok) > 0 else -1 for tok in BETA2.split()]
    assert sum(signs) == 1
    assert b2.exponent_sum() == 1
    assert BraidWord.identity(3).exponent_sum() == 0
    assert BraidWord.parse("1 1 1", 2).exponent_sum() == 3


def test_permutation():
    assert BraidWord.identity(3).permutation() == (1, 2, 3)
    assert BraidWord.parse("1", 3).permutation() != (1, 2, 3)
    assert BraidWord.parse("1 1", 3).permutation() == (1, 2, 3)


def test_inverse_and_power():
    b = BraidWord.parse("1 2 -1", 4)
    assert (b * b.inverse()).is_trivial_word()
    assert b ** 2 == b * b
    assert b ** -1 == b.inverse()
    assert b ** 0 == BraidWord.identity(4)


@given(free_strategy(4, 8))
def test_free_word_random_splits(w):
    # concatenation followed by reduction is associative / split-independent
    rng = random.Random(0)
    if len(w.letters) >= 2:
        k = rng.randrange(1, len(w.letters))
        left = FreeWord(4, w.letters[:k])
        right = FreeWord(4, w.letters[k:])
        assert left * right == w


def test_products_cancel_at_the_junction_like_full_reduction():
    # a product reduces only where the two reduced words meet; it must give
    # the word that full reduction of the concatenation gives
    rng = random.Random(1201)

    def rand_letters(top, k):
        return tuple((rng.randrange(1, top + 1), rng.choice([1, -1])) for _ in range(k))

    for cls, top in ((FreeWord, lambda n: n), (BraidWord, lambda n: n - 1)):
        for _ in range(300):
            n = rng.randrange(2, 6)
            a = cls(n, rand_letters(top(n), rng.randrange(0, 12)))
            b = cls(n, rand_letters(top(n), rng.randrange(0, 12)))
            k = rng.randrange(0, len(a) + 1)
            # b cancels k letters of a, then continues at random
            b = rng.choice([b, cls(n, a.inverse().letters[:k] + b.letters), a.inverse()])
            product = a * b
            assert product == cls(n, a.letters + b.letters)
            assert hash(product) == hash(cls(n, a.letters + b.letters))
            assert product.n == n
        w = cls(4, rand_letters(3, 9))
        assert (w * w.inverse()).letters == ()
        assert (w.inverse() * w) == cls.identity(4)
        with pytest.raises(WordError):
            w * cls.identity(5)

