import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _action
from braidmoves import words as W
from braidmoves.homology import fox_x, fox_y
from braidmoves.modcheck import x_column, y_row
from braidmoves.pairing import evaluate_loops, pair_loops
from braidmoves.words import (
    MAX_CODED_INDEX,
    MAX_WORD_LETTERS,
    BraidWord,
    FreeWord,
    WordError,
    act_within,
    decode,
    encode,
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


def rand_braid(rng, n, max_len, first=1):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(first, n), rng.choice([1, -1])) for _ in range(k)))


def rand_free(rng, n, max_len, first=1):
    k = rng.randrange(0, max_len + 1)
    return FreeWord(n, tuple((rng.randrange(first, n + 1), rng.choice([1, -1])) for _ in range(k)))


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


def test_act_within_stops_exactly_where_a_step_passes_the_limit():
    # b(w) when every step of the reference action fits the limit, and
    # None exactly when one step passes it
    b = BraidWord.parse(BETA2, 4)
    w = FreeWord.generator(4, 3)
    longest = max(map(len, _action.steps(b, w.letters)))
    assert act_within(b, w.letters, longest) == ((1, 1),)
    assert act_within(b, w.letters, longest - 1) is None
    rng = random.Random(2101)
    for _ in range(400):
        n = rng.randrange(2, 7)
        b = rand_braid(rng, n, 16)
        w = rand_free(rng, n, 8)
        steps = _action.steps(b, w.letters)
        longest = max(map(len, steps), default=0)
        for limit in (longest - 1, longest, longest + 1, rng.randrange(0, 40)):
            got = act_within(b, w.letters, limit)
            if any(len(step) > limit for step in steps):
                assert got is None, (b, w, limit)
            else:
                assert got == (steps[-1] if steps else w.letters), (b, w, limit)


def test_codes_invert_by_the_last_bit():
    letters = ((1, 1), (1, -1), (20, 1), (23, 1), (23, -1), (MAX_CODED_INDEX, -1))
    code = encode(letters)
    assert code[:3] == "\x02\x03(" and code[3] == "." and ord(code[-1]) == 0x10FFFF
    assert decode(code) == letters
    assert encode(_action.inverse(letters)) == "".join(chr(ord(c) ^ 1) for c in reversed(code))


def test_coded_action_equals_the_reference_on_every_generator():
    # each sigma_i^+-1 of B2 .. B8, and of B24 at i = 20 .. 23, whose codes
    # are the characters ( ) * + , - . /, on every generator letter and on
    # random words
    rng = random.Random(2102)
    cases = [(n, i) for n in range(2, 9) for i in range(1, n)]
    cases += [(24, i) for i in range(20, 24)]
    for n, i in cases:
        words = [FreeWord.generator(n, j, s) for j in range(1, n + 1) for s in (1, -1)]
        words += [rand_free(rng, n, 12, first=max(1, i - 1)) for _ in range(20)]
        for sign in (1, -1):
            g = BraidWord.generator(n, i, sign)
            for w in words:
                assert g(w) == _action.act(g, w), (n, i, sign, w)


def test_one_pair_cancels_on_every_short_word():
    # one removal of one pair reduces the image of every reduced word of
    # up to five letters in x_{i-1} .. x_{i+2}, the moved letters and a
    # fixed one on each side
    n, i = 4, 2
    letters = [(j, s) for j in range(1, 5) for s in (1, -1)]
    words, level = [()], [()]
    for _ in range(5):
        level = [w + (l,) for w in level for l in letters if not w or w[-1] != (l[0], -l[1])]
        words += level
    assert len(words) == 22_409
    for sign in (1, -1):
        g = BraidWord.generator(n, i, sign)
        for w in words:
            assert act_within(g, w, len(w) * 3) == _action.apply_sigma(i, sign, w), (sign, w)


def test_coded_action_equals_the_reference_on_long_words():
    rng = random.Random(2103)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 8, 24])
        w = rand_free(rng, n, 2000, first=max(1, n - 5))
        for sign in (1, -1):
            g = BraidWord.generator(n, rng.randrange(max(1, n - 5), n), sign)
            assert g(w) == _action.act(g, w)
    for _ in range(300):
        n = rng.choice([3, 4, 5, 6, 24])
        b = rand_braid(rng, n, 29, first=max(1, n - 5))
        w = rand_free(rng, n, 10, first=max(1, n - 5))
        assert b(w) == _action.act(b, w), (b, w)


def test_letters_without_a_code_raise_word_error_before_any_table():
    # x_{MAX_CODED_INDEX + 1} has no code point; neither acting on it nor
    # by a generator that moves it builds a table or a long word
    n = MAX_CODED_INDEX + 1
    last, x1 = FreeWord.generator(n, n), FreeWord.generator(n, 1)
    W._sigma_table.cache_clear()
    tracemalloc.start()
    try:
        for act in (
            lambda: BraidWord.generator(n, 1)(last),
            lambda: BraidWord.generator(n, n - 1, -1)(x1),
            lambda: act_within(BraidWord.generator(n, n - 1), x1.letters, 10),
            lambda: encode(last.letters),
        ):
            with pytest.raises(WordError) as err:
                act()
            assert "no code" in str(err.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W._sigma_table.cache_info().currsize == 0
    assert peak < 100_000
    # the last index with a code acts as every other one
    m = MAX_CODED_INDEX
    image = FreeWord(n, ((m, -1), (m - 1, 1), (m, 1)))
    assert BraidWord.generator(n, m - 1)(FreeWord.generator(n, m)) == image


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
