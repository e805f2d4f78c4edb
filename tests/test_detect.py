import random
import tracemalloc

import pytest

import braidmoves.detect as D
from braidmoves.detect import (
    EXCHANGE,
    MAX_ENUM_WORDS,
    InvariantViolation,
    REDUCE_NEGATIVE,
    REDUCE_POSITIVE,
    braid_words,
    check_depth,
    detect_exchange,
    detect_reducing,
    enumerate_simple,
    exchange_certificates,
    find_joint_braid,
    reducing_certificates,
    rewrite_exchange,
    special_form_tests,
)
from braidmoves.homology import fox_x, fox_y, star_x_to_y
from braidmoves.krammer import entry, is_identity
from braidmoves.magnus import MagnusElement, tau
from braidmoves.pairing import pair
from braidmoves.words import BraidWord, FreeWord, WordError

BETA2 = BraidWord.parse("-2 -2 -1 -2 -3 2 2 2 1 2 3", 4)
BETA1 = BraidWord.parse("-2 -2 -1 -2 3 2 2 2 1 2 -3", 4)
MORTON = BraidWord.parse("-2 -2 1 -2 3 2 2 2 -1 2 -3", 4)


def rand_braid(rng, n, max_len):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k)))


# -- enumeration -------------------------------------------------------------


def test_enumerate_depth_zero():
    classes = enumerate_simple(4, 0)
    assert [sc.word for sc in classes] == [FreeWord.generator(4, k) for k in range(1, 5)]
    assert all(sc.witness.is_trivial_word() for sc in classes)


def test_enumerate_b2_depth_one():
    classes = enumerate_simple(2, 1)
    assert [str(sc.word) for sc in classes] == [
        "x1",
        "x2",
        "x2^-1 x1 x2",
        "x1 x2 x1^-1",
    ]


def test_enumerate_words_are_single_puncture_conjugates():
    for sc in enumerate_simple(3, 2):
        w = sc.word
        # u x_i u^-1 shape: odd length, middle letter positive generator
        assert len(w.letters) % 2 == 1
        mid = w.letters[len(w.letters) // 2]
        assert mid[1] == 1
        u = FreeWord(3, w.letters[: len(w.letters) // 2])
        assert u * FreeWord.generator(3, mid[0]) * u.inverse() == w
        assert sc.witness(FreeWord.generator(3, sc.generator_index)) == w


def test_enumerate_necessary_condition():
    # every enumerated class satisfies <v*, v> = tau(word) - 1
    for sc in enumerate_simple(3, 1):
        value = pair(star_x_to_y(sc.xclass), sc.xclass)
        assert value.evaluated == tau(sc.word) - MagnusElement.identity(4)


def test_enumerate_shortest_witness():
    # x2^-1 x1 x2 is reachable at depth 1 and depth 3; the witness kept is
    # the first (shortest) one
    classes = {str(sc.word): sc for sc in enumerate_simple(2, 3)}
    assert len(classes["x2^-1 x1 x2"].witness) == 1


def test_braid_words_order():
    ws = list(braid_words(2, 2))
    assert [str(w) for w in ws] == ["", "1", "-1", "1 1", "", "", "-1 -1"]


def test_depth_bounds_checked_before_enumerating():
    tracemalloc.start()
    try:
        for n, depth in ((4, 12), (4, 10**18), (5, 7), (3, 9)):
            with pytest.raises(WordError):
                check_depth(n, depth)
            with pytest.raises(WordError):
                next(braid_words(n, depth))
            with pytest.raises(WordError):
                detect_reducing(BraidWord.generator(n, 1), depth)
            with pytest.raises(WordError):
                detect_exchange(BraidWord.generator(n, 1), depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    with pytest.raises(WordError):
        enumerate_simple(4, -1)
    # the cap is on the (2(n-1))^depth words of the longest length
    for n in range(2, 8):
        width, depth = 2 * (n - 1), 0
        while width ** (depth + 1) <= MAX_ENUM_WORDS:
            depth += 1
        check_depth(n, depth)
        with pytest.raises(WordError):
            check_depth(n, depth + 1)
    # the detection depths in use stay accepted
    for n, depth in ((3, 4), (4, 4), (5, 3)):
        check_depth(n, depth)
    # B_1 has no letters: one empty word at every depth, enumerated at once
    assert list(braid_words(1, 10**18)) == [BraidWord.identity(1)]
    assert len(enumerate_simple(1, 10**18)) == 1


# -- reducing detection --------------------------------------------------------


def test_beta2_depth_zero_certificates():
    certs = list(reducing_certificates(BETA2, 0))
    outcomes = [(c.kind, str(c.witnesses[0].word)) for c in certs]
    # three independent certificates exist at depth 0; the classical
    # witness x3 is among them, as is a positive-type one at x4
    assert (REDUCE_NEGATIVE, "x1") in outcomes
    assert (REDUCE_NEGATIVE, "x3") in outcomes
    assert (REDUCE_POSITIVE, "x4") in outcomes


def test_beta2_detect_first_hit():
    result = detect_reducing(BETA2, 0)
    assert result.found and result.kind == REDUCE_NEGATIVE
    assert result.witnesses[0].word == FreeWord.generator(4, 1)
    assert result.depth_searched == 0


def test_beta2_classical_certificate():
    # at witness x3: beta2 maps x3 to x1, so the moved dual class is the
    # basis class f1 and the vanishing is the off-diagonal <f1, e3> = 0
    w = FreeWord.generator(4, 3)
    moved = fox_y(BETA2(w).inverse())
    assert [str(c) for c in moved.coeffs] == ["1", "0", "0", "0"]
    assert pair(moved, fox_x(w)).symbolic.is_zero()


def test_morton_has_no_reducing_loop():
    assert not detect_reducing(MORTON, 2).found


def test_sigma1_in_b2_reduces():
    # the one-crossing 2-braid destabilizes; the detector certifies it at
    # depth 0 (witness x1, positive type), and the single-entry picture
    # agrees: r_{1,1}(sigma_1) = 0 and r_{2,2}(sigma_1^-1) = 0, the latter
    # being the P sigma_1^-1 Q special form with trivial P, Q
    b = BraidWord.generator(2, 1)
    result = detect_reducing(b, 0)
    assert result.found
    assert result.kind == REDUCE_POSITIVE
    assert result.witnesses[0].word == FreeWord.generator(2, 1)
    assert entry(b, 1, 1).is_zero()
    assert not entry(b, 2, 2).is_zero()
    assert entry(b.inverse(), 2, 2).is_zero()


def test_detection_is_conjugacy_covariant():
    # a witness for beta transports to a witness gamma(w) for the conjugate
    rng = random.Random(31)
    for _ in range(5):
        gamma = rand_braid(rng, 4, 2)
        conj = gamma * BETA2 * gamma.inverse()
        certs = list(reducing_certificates(conj, 0 + len(gamma)))
        words = {str(c.witnesses[0].word) for c in certs}
        assert str(gamma(FreeWord.generator(4, 3))) in words


def test_depth_monotonicity():
    found1 = {str(c.witnesses[0].word) for c in reducing_certificates(BETA2, 0)}
    found2 = {str(c.witnesses[0].word) for c in reducing_certificates(BETA2, 1)}
    assert found1 <= found2


# -- exchange detection -----------------------------------------------------------


def test_special_form_always_admits_exchange():
    # P sigma_{n-1} Q sigma_{n-1}^-1 is detected at small depth
    rng = random.Random(32)
    for _ in range(4):
        p = rand_braid(rng, 3, 4)
        q = rand_braid(rng, 3, 4)
        P = BraidWord(4, p.letters)
        Q = BraidWord(4, q.letters)
        s = BraidWord.generator(4, 3)
        b = P * s * Q * s.inverse()
        assert detect_exchange(b, 1).found


def test_exchange_needs_three_strands():
    with pytest.raises(ValueError):
        detect_exchange(BraidWord.generator(2, 1), 1)


def test_morton_first_hit_is_joint():
    result = detect_exchange(MORTON, 2)
    assert result.found and result.kind == EXCHANGE
    assert result.joint_witness is not None


def test_morton_finds_expected_pair():
    v_word = FreeWord.generator(4, 1)
    w_word = FreeWord.parse("x2 x4 x2^-1", 4)
    for cert in exchange_certificates(MORTON, 2):
        if (cert.witnesses[0].word, cert.witnesses[1].word) == (v_word, w_word):
            break
    else:
        raise AssertionError("expected witness pair not found at depth 2")
    # the two vanishing conditions, re-checked at the class level
    vstar = star_x_to_y(fox_x(v_word))
    assert pair(vstar, fox_x(w_word)).symbolic.is_zero()
    acted = fox_x(MORTON(w_word))
    assert acted.coefficient(1).is_zero()
    assert pair(vstar, acted).symbolic.is_zero()


def test_beta1_finds_expected_second_pair():
    v_word = FreeWord.parse("x1 x2 x3 x4 x3^-1 x2^-1 x1^-1", 4)
    w_word = FreeWord.parse("x1 x2 x3 x2^-1 x1^-1", 4)
    for cert in exchange_certificates(BETA1, 3):
        if (cert.witnesses[0].word, cert.witnesses[1].word) == (v_word, w_word):
            break
    else:
        raise AssertionError("expected second witness pair not found at depth 3")
    # v* is exactly the basis class f_4, and beta1(w) avoids x4 entirely
    vstar = star_x_to_y(fox_x(v_word))
    assert [str(c) for c in vstar.coeffs] == ["0", "0", "0", "1"]
    moved = BETA1(w_word)
    assert moved == FreeWord.parse("x1 x2 x3 x1 x3^-1 x2^-1 x1^-1", 4)
    assert fox_x(moved).coefficient(4).is_zero()


def test_reverification_rejects_false_positives(monkeypatch):
    # a zero test that accepts every candidate: the from-scratch evaluation
    # must stop both scans before they yield a non-certificate.  The first
    # reducing candidate of the identity braid is x1, and <[x1^-1]_y, [x1]_x>
    # = t_1; the first exchange pair of sigma_3 is (x3, x4) with
    # sigma_3(x4) = x4^-1 x3 x4, and <[x3^-1]_y, [x4^-1 x3 x4]_x> != 0
    b_reduce, b_exchange = BraidWord.identity(4), BraidWord.generator(4, 3)
    x3, x4 = FreeWord.generator(4, 3), FreeWord.generator(4, 4)
    assert not D._verified_zero(FreeWord.generator(4, 1, -1), FreeWord.generator(4, 1))
    assert not D._verified_zero(x3.inverse(), b_exchange(x4))
    monkeypatch.setattr(D, "_loop_pairing_zero", lambda yloop, xloop, memo: True)
    with pytest.raises(InvariantViolation):
        next(reducing_certificates(b_reduce, 1))
    with pytest.raises(InvariantViolation):
        next(exchange_certificates(b_exchange, 1))


# -- the rewrite --------------------------------------------------------------------


def test_find_joint_braid_basics():
    n = 4
    xn1, xn = FreeWord.generator(n, 3), FreeWord.generator(n, 4)
    assert find_joint_braid(xn1, xn, 0) == BraidWord.identity(4)
    psi = BraidWord.parse("-2 1", 4)
    found = find_joint_braid(psi(xn1), psi(xn), 4)
    assert found is not None
    assert found(xn1) == psi(xn1) and found(xn) == psi(xn)


def test_find_joint_braid_unreachable():
    # x1 cannot be the image of x3 under a braid fixing x4 = x4 at depth 2
    assert find_joint_braid(
        FreeWord.generator(4, 1), FreeWord.parse("x2 x4 x2^-1", 4), 3
    ) is None


def test_find_joint_braid_state_budget(monkeypatch):
    # x1 x2 has exponent sum 2, so it is no image of x3: only the budgets
    # end this search, long before depth 40, and the letter budget bounds
    # its memory though the stored words grow with the depth
    tracemalloc.start()
    try:
        unreachable = find_joint_braid(
            FreeWord.parse("x1 x2", 4), FreeWord.generator(4, 2), 40
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unreachable is None
    assert peak < 32_000_000
    # a reachable pair is given up too once either budget runs out
    n = 4
    psi = BraidWord.parse("-2 1 3", n)
    target = (psi(FreeWord.generator(n, 3)), psi(FreeWord.generator(n, 4)))
    assert find_joint_braid(*target, 6) is not None
    with monkeypatch.context() as m:
        m.setattr(D, "MAX_JOINT_STATES", 5)
        assert find_joint_braid(*target, 6) is None
    with monkeypatch.context() as m:
        m.setattr(D, "MAX_JOINT_LETTERS", 40)
        assert find_joint_braid(*target, 6) is None
    assert find_joint_braid(*target, 6) is not None


def test_rewrite_special_form_flips_crossings():
    # for beta = P s Q s^-1 the canonical certificate is the joint pair
    # (x4, x4^-1 x3 x4) coming from psi = s; its rewrite is the classical
    # exchange partner P s^-1 Q s, certified by the word-problem test
    rng = random.Random(33)
    s = BraidWord.generator(4, 3)
    canonical = (FreeWord.generator(4, 4), FreeWord.parse("x4^-1 x3 x4", 4))
    for _ in range(3):
        P = BraidWord(4, rand_braid(rng, 3, 3).letters)
        Q = BraidWord(4, rand_braid(rng, 3, 3).letters)
        b = P * s * Q * s.inverse()
        hit = None
        for cert in exchange_certificates(b, 1):
            if (cert.witnesses[0].word, cert.witnesses[1].word) == canonical:
                hit = cert
                break
        assert hit is not None
        rewritten = rewrite_exchange(b, hit, 12)
        assert rewritten is not None
        expected = P * s.inverse() * Q * s
        assert is_identity(rewritten * expected.inverse())


def test_rewrite_requires_exchange_result():
    result = detect_reducing(BETA2, 0)
    with pytest.raises(ValueError):
        rewrite_exchange(BETA2, result, 1)


def test_rewrite_first_found_pair():
    # the first certificate for the Morton braid is the canonical joint
    # pair of its special form P s Q s^-1; its rewrite flips the sigma_3
    # crossings in place
    result = detect_exchange(MORTON, 2)
    rewritten = rewrite_exchange(MORTON, result, 5)
    assert rewritten is not None
    assert rewritten.exponent_sum() == MORTON.exponent_sum()
    expected = BraidWord.parse("-2 -2 1 -2 -3 2 2 2 -1 2 3", 4)
    assert is_identity(rewritten * expected.inverse())


# -- special forms -------------------------------------------------------------------


def test_special_form_reduction():
    rng = random.Random(34)
    s = BraidWord.generator(4, 3)
    for _ in range(3):
        P = BraidWord(4, rand_braid(rng, 3, 3).letters)
        Q = BraidWord(4, rand_braid(rng, 3, 3).letters)
        report = special_form_tests(P * s.inverse() * Q)
        assert report.reduction_form
        report2 = special_form_tests(P * s.inverse() * Q * s)
        assert report2.exchange_form


def test_exchange_factors_into_opposite_reductions():
    # P s Q s^-1 is a product of the reducible braids P s and Q s^-1 of
    # opposite sign: the negative factor has the literal reduction form,
    # the positive factor's inverse does, and each factor carries a
    # reducing certificate of its sign at depth 0
    rng = random.Random(41)
    s = BraidWord.generator(4, 3)
    for _ in range(3):
        P = BraidWord(4, rand_braid(rng, 3, 3).letters)
        Q = BraidWord(4, rand_braid(rng, 3, 3).letters)
        pos_factor, neg_factor = P * s, Q * s.inverse()
        assert special_form_tests(neg_factor).reduction_form
        assert special_form_tests(pos_factor.inverse()).reduction_form
        kinds_pos = {c.kind for c in reducing_certificates(pos_factor, 0)}
        kinds_neg = {c.kind for c in reducing_certificates(neg_factor, 0)}
        assert REDUCE_POSITIVE in kinds_pos
        assert REDUCE_NEGATIVE in kinds_neg


def test_special_form_identity():
    report = special_form_tests(BraidWord.identity(4))
    assert not report.reduction_form
    assert (4, 4) not in report.zero_entries
    assert (1, 2) in report.zero_entries


def test_result_json():
    result = detect_reducing(BETA2, 0)
    data = result.to_json()
    assert data["found"] is True
    assert data["kind"] == REDUCE_NEGATIVE
    assert data["witness_words"] == ["x1"]
    assert data["depth_searched"] == 0
    report = special_form_tests(BraidWord.identity(3)).to_json()
    assert report["reduction_form"] is False
