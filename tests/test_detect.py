import json
import random
import tracemalloc

import pytest

import _action
import braidmoves.detect as D
from braidmoves.cli import EXIT_NOT_FOUND, main
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
from braidmoves.modcheck import x_column, y_row
from braidmoves.pairing import evaluate_loops, pair, pair_loops
from braidmoves.words import MAX_CODED_INDEX, BraidWord, FreeWord, WordError

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
        xclass = fox_x(sc.word)
        value = pair(star_x_to_y(xclass), xclass)
        assert value.evaluated == tau(sc.word) - MagnusElement.identity(4)


def test_enumerate_shortest_witness():
    # x2^-1 x1 x2 is reachable at depth 1 and depth 3; the witness kept is
    # the first (shortest) one
    classes = {str(sc.word): sc for sc in enumerate_simple(2, 3)}
    assert len(classes["x2^-1 x1 x2"].witness) == 1


def raw_walk(n, starts, depth):
    """(state, witness, root) at the first occurrence of each state
    tuple(beta(w) for w in starts[root]) in the raw walk: braid_words
    outside, the starts inside."""
    first = {}
    for beta in braid_words(n, depth):
        for root, start in enumerate(starts):
            state = tuple(beta(w) for w in start)
            if state not in first:
                first[state] = (state, beta, root)
    return list(first.values())


def raw_simple(n, depth):
    """The simple classes of the raw walk, as enumerate_simple gives them."""
    starts = [(FreeWord.generator(n, k),) for k in range(1, n + 1)]
    return [D.SimpleClass(word, beta, root + 1) for (word,), beta, root in raw_walk(n, starts, depth)]


def test_orbit_walk_equals_the_raw_walk():
    """Classes, joint pairs, their order, witnesses and generator indices
    are those of the first occurrences in the raw walk."""
    for n, max_depth in ((2, 5), (3, 5), (4, 4), (5, 3), (6, 2)):
        joint = [(FreeWord.generator(n, n - 1), FreeWord.generator(n, n))]
        for depth in range(max_depth + 1):
            assert enumerate_simple(n, depth) == raw_simple(n, depth), (n, depth)
            assert list(D._orbit(n, joint, depth)) == raw_walk(n, joint, depth), (n, depth)


def test_enumeration_acts_once_per_letter_and_class(monkeypatch, cold_tables):
    """The walk acts with each letter on each class it expands, and on
    nothing else: no raw word is walked, the last level is not expanded and
    the joint orbit is not walked.  Enumerating again reads the class table
    and acts on nothing."""
    calls = []
    call = BraidWord.__call__

    def counting(self, w):
        calls.append(self)
        return call(self, w)

    monkeypatch.setattr(BraidWord, "__call__", counting)
    for n, depth in ((4, 5), (5, 4)):
        calls.clear()
        classes = enumerate_simple(n, depth)
        assert len(calls) <= 2 * (n - 1) * len(classes)
        assert all(len(b) == 1 for b in calls)
        last = sum(len(sc.witness) == depth for sc in classes)
        assert len(calls) == 2 * (n - 1) * (len(classes) - last)
        calls.clear()
        again = enumerate_simple(n, depth)
        assert again == classes and again is not classes
        assert calls == []


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
    # strand counts below 1 are refused, as BraidWord refuses them
    for n in (0, -3):
        for fn in (check_depth, enumerate_simple, lambda n, depth: next(braid_words(n, depth))):
            with pytest.raises(WordError, match="strand count"):
                fn(n, 1)
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
    # a screen (_BlockScreen.value) that clears nothing and an exact
    # decision (_BlockScreen.decide) that accepts every candidate: the
    # from-scratch evaluation must stop both scans before they yield a
    # non-certificate.  The first reducing candidate of the identity braid
    # is x1, and <[x1^-1]_y, [x1]_x> = t_1; the first exchange pair of
    # sigma_3 is (x3, x4) with sigma_3(x4) = x4^-1 x3 x4, and
    # <[x3^-1]_y, [x4^-1 x3 x4]_x> != 0
    b_reduce, b_exchange = BraidWord.identity(4), BraidWord.generator(4, 3)
    x3, x4 = FreeWord.generator(4, 3), FreeWord.generator(4, 4)
    assert not D._verified_zero(FreeWord.generator(4, 1, -1), FreeWord.generator(4, 1))
    assert not D._verified_zero(x3.inverse(), b_exchange(x4))
    monkeypatch.setattr(D._BlockScreen, "value", lambda screen, i, j, sign: 0)
    monkeypatch.setattr(D._BlockScreen, "decide", lambda screen, i, j, sign: True)
    with pytest.raises(InvariantViolation):
        next(reducing_certificates(b_reduce, 1))
    with pytest.raises(InvariantViolation):
        next(exchange_certificates(b_exchange, 1))


def test_reverified_pairings_are_unit_conjugates_of_base_pairings():
    # for w = psi(x_k) and c = psi^-1 b psi, exactly in the matrix ring:
    #   <[w^-1]_y, [b(w)]_x> tau(psi)    = tau(psi) <[x_k^-1]_y, [c(x_k)]_x>
    #   <[b(w)^-1]_y, [w]_x> tau(b psi)  = tau(b psi) <[x_k^-1]_y, [c^-1(x_k)]_x>
    #   <[w^-1]_y, [u]_x> tau(psi)       = tau(psi) <[x_k^-1]_y, [psi^-1(u)]_x>
    # the last for u = psi(x_j) and u = b(psi(x_j)), the two exchange
    # conditions of the pair (w, psi(x_j)), the first of which vanishes for
    # j > k; the witnesses of the certificates of BETA1 and BETA2 at depth 1
    # add known zeros of the reducing pairings
    rng = random.Random(1401)
    triples = [(rand_braid(rng, n, 4), rng.randrange(1, n + 1), rand_braid(rng, n, 5))
               for n in (3, 4, 5) for _ in range(12)]
    for b in (BETA1, BETA2):
        for cert in [*reducing_certificates(b, 1), *exchange_certificates(b, 1)]:
            v = cert.witnesses[0]
            triples.append((v.witness, v.generator_index, b))
    values = []
    for psi, k, b in triples:
        n = b.n
        x = FreeWord.generator(n, k)
        w, u = psi(x), psi(FreeWord.generator(n, rng.randrange(1, n + 1)))
        c, tp, tbp = psi.inverse() * b * psi, tau(psi), tau(b * psi)
        base = evaluate_loops(x.inverse(), c(x))
        assert evaluate_loops(w.inverse(), b(w)) * tp == tp * base
        values.append(base)
        base = evaluate_loops(x.inverse(), c.inverse()(x))
        assert evaluate_loops(b(w).inverse(), w) * tbp == tbp * base
        values.append(base)
        for loop in (u, b(u)):
            base = evaluate_loops(x.inverse(), psi.inverse()(loop))
            assert evaluate_loops(w.inverse(), loop) * tp == tp * base
            values.append(base)
    zeros = sum(value.is_zero() for value in values)
    assert 20 < zeros < len(values) - 100, (zeros, len(values))


def test_reverification_checks_the_witness():
    # a class whose witness psi does not send x_k to its word, by a wrong
    # generator index or a wrong braid, is refused before any pairing is
    # folded, in both re-verifications, although the certified pairings
    # vanish
    reducing, exchange = next(reducing_certificates(BETA1, 1)), next(exchange_certificates(BETA2, 1))
    v, w = exchange.witnesses
    checks = [
        (reducing.witnesses[0], lambda sc: D._reverify_reducing(BETA1, sc, reducing.kind)),
        (v, lambda sc: D._reverify_exchange(BETA2, sc, w)),
        (w, lambda sc: D._reverify_exchange(BETA2, v, sc)),
    ]
    for sc, reverify in checks:
        reverify(sc)
        k = sc.generator_index
        moved = sc.witness * BraidWord.generator(4, k if k < 4 else k - 1)
        for bad in (D.SimpleClass(sc.word, sc.witness, k % 4 + 1), D.SimpleClass(sc.word, moved, k)):
            with pytest.raises(InvariantViolation, match="does not realize"):
                reverify(bad)


def test_warm_reverification_sweeps_no_loop(monkeypatch):
    # every re-verification folds an x-loop, which is never swept, against
    # a one-letter y-loop, whose terms come from the table: once warm it
    # sweeps no loop
    import braidmoves.pairing as P

    scans = [(reducing_certificates, BETA1, 1), (reducing_certificates, BETA2, 1)]
    scans += [(exchange_certificates, BETA2, 1), (exchange_certificates, MORTON, 1)]
    for scan, b, depth in scans:
        list(scan(b, depth))
    folds, swept, inside = [], [], []

    def verifying(yloop, xloop):
        folds.append(len(yloop))
        inside.append(True)
        try:
            return verified(yloop, xloop)
        finally:
            inside.pop()

    def recording(fn):
        def recorded(*args):
            if inside:
                swept.append((fn.__name__, args))
            return fn(*args)

        return recorded

    verified = D._verified_zero
    monkeypatch.setattr(D, "_verified_zero", verifying)
    monkeypatch.setattr(P, "_swept_y_terms", recording(P._swept_y_terms))
    for scan, b, depth in scans:
        assert list(scan(b, depth))
    assert folds and set(folds) == {1}
    assert swept == []


def test_decision_does_not_read_the_y_terms_table(monkeypatch):
    # one corrupted entry of pairing.letter_y_terms, E_00 added to each of
    # its terms: the scans still find their one-letter certificates, since
    # the screen and the exact decision read no y-terms, and the
    # re-verification, which folds over them, rejects each.  At depth 0
    # BETA1 reduces positively on x4 and BETA2 admits the exchange
    # (x1, x4), re-verified on the y-loops x4^-1 and x1^-1
    import braidmoves.pairing as P
    from braidmoves.laurent import ONE

    table = P.letter_y_terms

    def corrupting(bad):
        def corrupted(n, j, sign):
            terms = table(n, j, sign)
            if (n, j, sign) != bad:
                return terms
            return tuple(((row[0] + ONE, *row[1:]), *rows) for row, *rows in terms)

        return corrupted

    for scan, b, j in ((reducing_certificates, BETA1, 4), (exchange_certificates, BETA2, 1)):
        found = next(scan(b, 0))
        assert found.witnesses[0].word == FreeWord.generator(4, j)
        with monkeypatch.context() as m:
            m.setattr(P, "letter_y_terms", corrupting((4, j, -1)))
            with pytest.raises(InvariantViolation):
                next(scan(b, 0))


def test_warm_scans_make_no_mod_p_sweep(monkeypatch, cold_tables):
    # once the class tables of each (n, depth) are built, a scan reads every
    # screen row and column from them and sweeps no loop mod P, while its
    # re-verifications read the y-side of their one-letter loops from
    # pairing.letter_y_terms
    import braidmoves.modcheck as MC
    import braidmoves.pairing as P

    scans = [(exchange_certificates, BETA1, 0), (exchange_certificates, BETA2, 0)]
    scans += [(reducing_certificates, BETA1, 0), (exchange_certificates, BETA2, 1)]
    for scan, b, depth in scans:
        list(scan(b, depth))
    calls = []

    def recording(fn):
        def recorded(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return recorded

    for module, name in ((MC, "sweep_x"), (MC, "sweep_y"), (P, "letter_y_terms")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    certificates = [list(scan(b, depth)) for scan, b, depth in scans]
    assert [len(found) for found in certificates] == [0, 1, 1, 4]
    assert set(calls) == {"letter_y_terms"}


# -- the block screen against the loop-word route -------------------------------


class LoopWordRoute:
    """The scans of one braid b on loop words: b(w) for every candidate, and
    each pairing screened by the loop-word screen of modcheck (the probed
    value of its sweeps, pinned against the exact value in test_modcheck),
    then decided exactly on the loops.  The images, sweeps and decisions
    are kept for the scans that follow, at any depth.  Classes and joint
    pairs come from the raw walk (raw_walk), not from the orbit walk under
    test, and pairs of classes skip only the joint pairs that were
    yielded."""

    def __init__(self, b):
        self.b = b
        self.images, self.rows, self.columns, self.decided = {}, {}, {}, {}

    def image(self, w):
        if w not in self.images:
            self.images[w] = self.b(w)
        return self.images[w]

    def zero(self, yloop, xloop):
        if (yloop, xloop) not in self.decided:
            if yloop not in self.rows:
                self.rows[yloop] = y_row(yloop)
            if xloop not in self.columns:
                self.columns[xloop] = x_column(xloop)
            self.decided[yloop, xloop] = (
                self.rows[yloop] * self.columns[xloop] == 0 and pair_loops(yloop, xloop).is_zero()
            )
        return self.decided[yloop, xloop]

    def reducing(self, depth):
        out = []
        for sc in raw_simple(self.b.n, depth):
            w, bw = sc.word, self.image(sc.word)
            if self.zero(w.inverse(), bw):
                out.append((REDUCE_POSITIVE, (sc,), None))
            elif self.zero(bw.inverse(), w):
                out.append((REDUCE_NEGATIVE, (sc,), None))
        return out

    def exchange(self, depth):
        """Joint pairs, then pairs of classes."""
        n = self.b.n
        xn1, xn = FreeWord.generator(n, n - 1), FreeWord.generator(n, n)
        out = []
        for (vw, ww), psi, _ in raw_walk(n, [(xn1, xn)], depth):
            if self.zero(vw.inverse(), self.image(ww)):
                pair = (D.SimpleClass(vw, psi, n - 1), D.SimpleClass(ww, psi, n))
                out.append((EXCHANGE, pair, psi))
        yielded = {(v.word, w.word) for _, (v, w), _ in out}
        classes = raw_simple(n, depth)
        for v in classes:
            for w in classes:
                if (v.word, w.word) in yielded:
                    continue
                vstar = v.word.inverse()
                if self.zero(vstar, w.word) and self.zero(vstar, self.image(w.word)):
                    out.append((EXCHANGE, (v, w), None))
        return out


def records(certs):
    """Kind, witness words, witness braids and joint witness, in order."""
    return [
        (kind, [str(sc.word) for sc in scs], [str(sc.witness) for sc in scs], str(joint))
        for kind, scs, joint in certs
    ]


def test_block_screen_certificates_equal_the_loop_word_route():
    rng = random.Random(33)
    cases = [(b, 3) for b in (MORTON, BETA1, BETA2)]
    for n, depth in ((3, 3), (4, 2), (5, 1)):
        cases += [(rand_braid(rng, n, 8), depth) for _ in range(5)]
    total = 0
    for b, max_depth in cases:
        route = LoopWordRoute(b)
        for depth in range(max_depth + 1):
            scans = [(reducing_certificates, route.reducing)]
            if b.n >= 3:
                scans.append((exchange_certificates, route.exchange))
            for scan, reference in scans:
                got = records((r.kind, r.witnesses, r.joint_witness) for r in scan(b, depth))
                assert got == records(reference(depth)), (str(b), depth, scan.__name__)
                total += len(got)
    assert total > 500


def test_long_braid_builds_no_loop_word_for_cleared_candidates(capsys, monkeypatch, cold_tables):
    """(sigma_1 sigma_2^-1)^14 stretches a loop of length m to thousands of
    letters; the block screen clears every candidate without acting on one.
    Only the enumeration of the class tables, built here, acts, by one
    letter at a time."""
    text = " ".join(["1 -2"] * 14)
    acted = []
    call = BraidWord.__call__

    def recording(self, w):
        acted.append(self)
        return call(self, w)

    monkeypatch.setattr(BraidWord, "__call__", recording)
    tracemalloc.start()
    try:
        for args in (("detect-reduce", "--depth", "0"), ("detect-exchange", "--depth", "1")):
            code = main([args[0], "-n", "3", *args[1:], "--format", "json", text])
            assert code == EXIT_NOT_FOUND
            assert json.loads(capsys.readouterr().out)["found"] is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acted and all(len(b) <= 1 for b in acted)
    assert peak < 4_000_000


# -- the class tables -----------------------------------------------------------------


def certificate_records(b, depth):
    """Every certificate of both scans, with witnesses and joint witnesses."""
    scans = [reducing_certificates] + ([exchange_certificates] if b.n >= 3 else [])
    return [records((r.kind, r.witnesses, r.joint_witness) for r in scan(b, depth)) for scan in scans]


def test_warm_tables_give_the_certificates_of_cold_ones(cold_tables):
    rng = random.Random(1503)
    cases = [(b, 3) for b in (MORTON, BETA1, BETA2)]
    for n, depth in ((3, 3), (4, 2), (5, 1)):
        cases += [(rand_braid(rng, n, 8), depth) for _ in range(3)]
    found = 0
    for b, max_depth in cases:
        for depth in range(max_depth + 1):
            cold_tables()
            cold = certificate_records(b, depth)
            assert certificate_records(b, depth) == cold, (str(b), depth)
            found += sum(map(len, cold))
    assert found > 100


def test_second_scan_builds_no_screen_vector_and_walks_no_orbit(monkeypatch, cold_tables):
    # the second scan at the same (n, depth), of another braid, reads the
    # table: the classes, the joint orbit, and the rows and columns, which
    # are tuples
    list(exchange_certificates(BETA1, 2))
    list(reducing_certificates(BETA1, 2))
    calls = []

    def recording(fn):
        def recorded(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return recorded

    for name in ("x_column", "y_row", "_orbit"):
        monkeypatch.setattr(D, name, recording(getattr(D, name)))
    for b in (MORTON, BETA2):
        assert list(exchange_certificates(b, 2))
        list(reducing_certificates(b, 2))
        assert enumerate_simple(4, 2)
    assert calls == []
    table = D._class_table(4, 2)
    assert [sc.word for sc in table.classes] == list(table.words)
    assert all(type(row) is tuple for row in table._rows)
    assert all(type(column) is tuple for column in table._columns)
    assert len(table.words) == len(table._rows) == len(table._columns)


def test_class_tables_are_bounded():
    info = D._class_table.cache_info()
    assert info.maxsize == D.CLASS_TABLES == 16
    for depth in range(D.CLASS_TABLES + 4):
        D._class_table(1, depth)
    assert D._class_table.cache_info().currsize == D.CLASS_TABLES


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


def joint_targets(rng, n, count, max_len):
    for _ in range(count):
        psi = rand_braid(rng, n, max_len)
        yield psi(FreeWord.generator(n, n - 1)), psi(FreeWord.generator(n, n))


def test_find_joint_braid_equals_the_pair_search():
    # the coded search returns the psi, or the None, of the search over
    # pairs of FreeWords: on seeded targets of length <= 6, and on pairs
    # that no braid reaches
    rng = random.Random(2104)
    for n in (3, 4, 5):
        for v, w in joint_targets(rng, n, 40, 6):
            assert find_joint_braid(v, w, 6) == _action.joint_braid(v, w, 6), (v, w)
    unreachable = [
        (FreeWord.parse("x1 x2", 4), FreeWord.generator(4, 2), 7),
        (FreeWord.generator(4, 1), FreeWord.parse("x2 x4 x2^-1", 4), 3),
        (FreeWord.generator(3, 1), FreeWord.generator(3, 1), 6),
        (FreeWord.parse("x1^-1", 5), FreeWord.generator(5, 2), 5),
    ]
    for v, w, depth in unreachable:
        assert find_joint_braid(v, w, depth) is None
        assert _action.joint_braid(v, w, depth) is None


def test_find_joint_braid_equals_the_pair_search_in_the_pipeline(monkeypatch):
    # the searches of the unknot pipeline's two rewrites
    searches = []

    def record(v, w, depth):
        searches.append((v, w, depth))
        return find_joint_braid(v, w, depth)

    monkeypatch.setattr(D, "find_joint_braid", record)
    morton_cert = detect_exchange(MORTON, 2)
    target2 = (
        FreeWord.parse("x1 x2 x3 x4 x3^-1 x2^-1 x1^-1", 4),
        FreeWord.parse("x1 x2 x3 x2^-1 x1^-1", 4),
    )
    beta1_cert = next(
        c
        for c in exchange_certificates(BETA1, 3)
        if (c.witnesses[0].word, c.witnesses[1].word) == target2
    )
    assert rewrite_exchange(MORTON, morton_cert, 8) is not None
    assert rewrite_exchange(BETA1, beta1_cert, 14) is not None
    assert len(searches) >= 3
    for v, w, depth in searches:
        psi = find_joint_braid(v, w, depth)
        assert psi is not None and psi == _action.joint_braid(v, w, depth)


def test_find_joint_braid_refuses_letters_without_a_code():
    # x_n has no code past MAX_CODED_INDEX: refused before the generator
    # list, one entry per strand, is built
    n = MAX_CODED_INDEX + 1
    x1 = FreeWord.generator(n, 1)
    tracemalloc.start()
    try:
        with pytest.raises(WordError):
            find_joint_braid(x1, x1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_find_joint_braid_caps_trip_at_the_same_state(monkeypatch):
    # uncapped, this search stores 138 states and 1 450 letters; under
    # every smaller cap both searches give up at the same stored state,
    # and under every larger one they find the same psi
    n = 5
    psi = BraidWord.parse("-2 1 3 -1 4 2 -3", n)
    target = (psi(FreeWord.generator(n, 4)), psi(FreeWord.generator(n, 5)))
    for name, caps in (("MAX_JOINT_STATES", range(1, 150)), ("MAX_JOINT_LETTERS", range(1, 1500, 4))):
        outcomes = set()
        for cap in caps:
            monkeypatch.setattr(D, name, cap)
            got = find_joint_braid(*target, 8)
            assert got == _action.joint_braid(*target, 8), (name, cap)
            outcomes.add(got is None)
        monkeypatch.undo()
        assert outcomes == {True, False}


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


def test_negative_rewrite_depth_rejected():
    # before any search, so also where depth 0 would answer at once
    xn1, xn = FreeWord.generator(4, 3), FreeWord.generator(4, 4)
    with pytest.raises(WordError):
        find_joint_braid(xn1, xn, -1)
    result = detect_exchange(MORTON, 2)
    assert result.joint_witness is not None
    with pytest.raises(WordError):
        rewrite_exchange(MORTON, result, -5)


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
