import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidmoves.homology import fox_x, fox_y
from braidmoves.modcheck import x_column, y_row
from braidmoves.pairing import evaluate_loops, pair_loops
from braidmoves.words import (
    MAX_WORD_LETTERS,
    BraidWord,
    FreeWord,
    WordError,
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


def test_sigma1_sends_x1_to_x2():
    b = BraidWord.parse("1", 2)
    assert b(FreeWord.generator(2, 1)) == FreeWord.generator(2, 2)


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


# -- the two word types ------------------------------------------------------


def message(fn):
    with pytest.raises(WordError) as err:
        fn()
    return str(err.value)


def test_constructor_errors_name_the_bad_value():
    assert message(lambda: FreeWord(0, ())) == "puncture count must be >= 1, got 0"
    assert message(lambda: BraidWord(0, ())) == "strand count must be >= 1, got 0"
    assert message(lambda: FreeWord(3, ((4, 1),))) == "x4 out of range 1..3"
    assert message(lambda: FreeWord(3, ((1, 1), (0, -1)))) == "x0 out of range 1..3"
    assert message(lambda: BraidWord(3, ((3, 1),))) == "sigma_3 out of range 1..2"
    assert message(lambda: BraidWord(3, ((0, -1),))) == "sigma_0 out of range 1..2"
    assert message(lambda: BraidWord(1, ((1, 1),))) == "sigma_1 out of range 1..0"
    assert message(lambda: FreeWord(3, ((1, 2),))) == "bad sign 2"
    assert message(lambda: BraidWord(3, ((2, 0),))) == "bad sign 0"
    assert FreeWord(1, ((1, -1),)).letters == ((1, -1),)
    assert BraidWord(1, ()).letters == ()


def test_count_mismatches_keep_their_messages():
    u, v = FreeWord.generator(3, 1), FreeWord.generator(4, 1)
    b, c = BraidWord.generator(3, 1), BraidWord.generator(4, 1)
    assert message(lambda: u * v) == "puncture count mismatch: 3 vs 4"
    assert message(lambda: b * c) == "strand count mismatch: 3 vs 4"
    assert message(lambda: b(v)) == "strand count mismatch: 3 vs 4"


def test_free_word_times_braid_word_raises_type_error():
    with pytest.raises(TypeError):
        FreeWord.parse("x1 x2", 4) * BraidWord.parse("3 1", 4)


def test_braid_word_times_free_word_raises_type_error():
    with pytest.raises(TypeError):
        BraidWord.parse("3 1", 4) * FreeWord.parse("x4 x2", 4)  # no sigma_4 in B_4


def test_braid_applied_to_a_braid_word_raises_type_error():
    s2 = BraidWord.generator(3, 2)
    with pytest.raises(TypeError):
        s2(BraidWord.parse("1 2", 3))
    with pytest.raises(TypeError):
        s2(((1, 1), (2, 1)))
    # the sweeps and the pairing fold read loop words alone
    b, x2 = BraidWord.parse("1 2", 3), FreeWord.generator(3, 2)
    for read in (
        lambda: fox_x(b),
        lambda: fox_y(b),
        lambda: x_column(b),
        lambda: y_row(b),
        lambda: evaluate_loops(s2.inverse(), x2),
        lambda: evaluate_loops(x2, b),
        lambda: pair_loops(b, x2).is_zero(),
        lambda: pair_loops(x2, b).evaluated,
    ):
        with pytest.raises(TypeError):
            read()


def test_word_types_compare_by_type_and_value():
    letters = ((1, 1), (2, -1))
    assert FreeWord(3, letters) != BraidWord(3, letters)
    assert not FreeWord(3, letters) == BraidWord(3, letters)
    assert FreeWord(3, letters) != FreeWord(4, letters)
    for cls in (FreeWord, BraidWord):
        w = cls(3, letters)
        same = [
            cls(3, letters),
            cls(3, ((1, 1), (2, 1), (2, -1), (2, -1))),
            cls.generator(3, 1) * cls.generator(3, 2, -1),
            w.inverse().inverse(),
        ]
        for v in same:
            assert v == w and hash(v) == hash(w)
        assert len({w, *same}) == 1


def test_text_forms():
    u, b = FreeWord(3, ((1, 1), (3, -1))), BraidWord(3, ((1, 1), (2, -1)))
    assert (str(u), repr(u)) == ("x1 x3^-1", "FreeWord(3, x1 x3^-1)")
    assert (str(b), repr(b)) == ("1 -2", "BraidWord(3, 1 -2)")
    assert (str(FreeWord.identity(2)), repr(FreeWord.identity(2))) == ("1", "FreeWord(2, 1)")
    assert (str(BraidWord.identity(2)), repr(BraidWord.identity(2))) == ("", "BraidWord(2, 1)")
