"""The mod-p screen against the exact route.

The screen runs the same Fox sweeps and pairing sum as the exact
evaluation, over the reductions of the generator tables and flat probe
vectors; each table must act like the reduction of its exact matrix, the
vector sweeps must agree with the reduction of the exact sweeps, the probe
must agree with the full image of the exact value, and a nonzero answer
must mean an exact nonzero.  The block screen of detection must give the
probed value of the exact pairing times tau(b), and the verdicts of the
loop-word screen.
"""

import random
import sys
from collections import Counter
from functools import partial
from itertools import chain

from _tables import reference_entries, table_entries
from braidmoves.detect import (
    REDUCE_POSITIVE,
    _BlockScreen,
    enumerate_simple,
    exchange_certificates,
    reducing_certificates,
)
from braidmoves.homology import (
    _tau_y,
    fox_x,
    fox_y,
    sweep_x,
    sweep_y,
    tau_components_x,
    tau_components_y,
)
from braidmoves.magnus import _tau_letter, tau
from braidmoves.modcheck import (
    P,
    ModVector,
    _swept_y_row,
    letter_y_row,
    loop_pairing_certainly_nonzero,
    pairing_certainly_nonzero,
    poly_mod,
    probe_vectors,
    t_mod,
    x_mod,
    y_mod,
    y_row,
)
from braidmoves.pairing import PairingValue, evaluate_loops, pair, t_element
from braidmoves.words import BraidWord, FreeWord, y_basis_word

BETA2 = BraidWord.parse("-2 -2 -1 -2 -3 2 2 2 1 2 3", 4)


def rand_braid(rng, n, max_len):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k)))


def rand_free(rng, n, max_len):
    k = rng.randrange(0, max_len + 1)
    return FreeWord(n, tuple((rng.randrange(1, n + 1), rng.choice([1, -1])) for _ in range(k)))


def rand_loop(rng, n):
    """A simple loop beta(x_k) or an arbitrary short free word."""
    if rng.random() < 0.5:
        return rand_braid(rng, n, 5)(FreeWord.generator(n, rng.randrange(1, n + 1)))
    return rand_free(rng, n, 8)


def reduced(m):
    """The rows of an exact matrix reduced mod P."""
    return [[poly_mod(p) for p in row] for row in m.entries]


def times_column(rows, vec):
    return [sum(g * x for g, x in zip(row, vec)) % P for row in rows]


def row_times(vec, rows):
    return times_column(zip(*rows), vec)


def rand_vec(rng, size):
    return ModVector(rng.randrange(P) for _ in range(size))


def test_tables_act_like_their_reduced_matrices():
    """x_mod acts on columns, y_mod and t_mod (built from the transpose) on
    rows; each equals the dense product with the reduced exact matrix."""
    rng = random.Random(1100)
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            rows_side = [(t_mod(n, k), t_element(n, k))]
            for s in (1, -1):
                rows_side.append((y_mod(n, k, s), _tau_y(n, k, s)))
                x_table, x_exact = x_mod(n, k, s), _tau_letter(n, "x", k, s)
                for _ in range(3):
                    vec = rand_vec(rng, n + 1)
                    assert x_table * vec == times_column(reduced(x_exact), vec)
            for table, exact in rows_side:
                for _ in range(3):
                    vec = rand_vec(rng, n + 1)
                    assert vec * table == row_times(vec, reduced(exact))


def test_mod_tables_equal_their_entry_by_entry_reference():
    """Each mod-P table, entry by entry, against the reduced entries of its
    exact matrix (the transpose for the row-side y_mod and t_mod)."""
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            cases = [(t_mod(n, k), zip(*t_element(n, k).entries))]
            for s in (1, -1):
                cases.append((x_mod(n, k, s), _tau_letter(n, "x", k, s).entries))
                cases.append((y_mod(n, k, s), zip(*_tau_y(n, k, s).entries)))
            for table, rows in cases:
                assert table_entries(table, n + 1) == reference_entries(rows, poly_mod)


def test_mod_sweeps_are_reductions_of_exact_sweeps():
    rng = random.Random(1101)
    for _ in range(60):
        n = rng.randrange(3, 6)
        w = rand_loop(rng, n)
        col, row, zero = rand_vec(rng, n + 1), rand_vec(rng, n + 1), ModVector([0] * (n + 1))
        assert sweep_x(w, col, zero, partial(x_mod, n)) == tuple(
            times_column(reduced(c), col) for c in tau_components_x(w)
        )
        assert sweep_y(w, row, zero, partial(y_mod, n)) == tuple(
            row_times(row, reduced(c)) for c in tau_components_y(w)
        )


def test_letter_y_rows_equal_their_sweep():
    """Each one-letter row against the sweep it is built by and against the
    probe row times the reduced exact terms, u^T C_i t_i; a caller that
    rewrites the row it was given leaves the next lookup as it was."""
    for n in range(2, 7):
        u = probe_vectors(n + 1)[0]
        for j in range(1, n + 1):
            for sign in (1, -1):
                loop = FreeWord.generator(n, j, sign)
                swept = _swept_y_row(loop)
                exact = (
                    row_times(u, reduced(c * t_element(n, i)))
                    for i, c in enumerate(tau_components_y(loop), start=1)
                )
                assert swept == list(chain.from_iterable(exact))
                served = y_row(loop)
                assert served == swept and letter_y_row(n, j, sign) == tuple(swept)
                served[0] += 1
                served.clear()
                assert y_row(loop) == swept


def test_screen_nonzero_implies_exact_nonzero():
    rng = random.Random(1102)
    cleared = kept = 0
    for _ in range(60):
        n = rng.randrange(3, 6)
        beta = rand_braid(rng, n, 4)
        if rng.random() < 0.5:
            # <[beta(x_i)^-1]_y, [beta(x_j)]_x> vanishes for i < j
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            y, x = beta(FreeWord.generator(n, i)).inverse(), beta(FreeWord.generator(n, j))
        else:
            y, x = rand_loop(rng, n), rand_loop(rng, n)
        exact_zero = pair(fox_y(y), fox_x(x)).evaluated.is_zero()
        if loop_pairing_certainly_nonzero(y, x):
            assert not exact_zero, (str(y), str(x))
            cleared += 1
        else:
            kept += 1
    # both branches are exercised
    assert cleared and kept


def test_screen_never_clears_a_known_zero():
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                # <f_i, e_j> = 0 off the diagonal
                yw, xw = y_basis_word(i, n), FreeWord.generator(n, j)
                assert not loop_pairing_certainly_nonzero(yw, xw)
                assert not pairing_certainly_nonzero(fox_y(yw), fox_x(xw))
                assert pair(fox_y(yw), fox_x(xw)).is_zero()
    certs = list(reducing_certificates(BETA2, 0))
    assert len(certs) == 3
    for cert in certs:
        w = cert.witnesses[0].word
        if cert.kind == REDUCE_POSITIVE:
            y, x = w.inverse(), BETA2(w)
        else:
            y, x = BETA2(w).inverse(), w
        assert not loop_pairing_certainly_nonzero(y, x)


def test_classes_without_loops_go_to_the_exact_decision():
    n = 3
    yc = fox_y(y_basis_word(1, n)).left_mul(1)  # provenance dropped
    xc = fox_x(FreeWord.generator(n, 1))
    assert yc.loop is None
    assert not pairing_certainly_nonzero(yc, xc)
    assert not pair(yc, xc).is_zero()


def test_detection_screens_each_candidate_once(monkeypatch):
    """A scan sweeps each class once per side, pushes its column once per
    sign of b and screens each test once; strategy (ii) of an exchange scan
    skips the joint pairs that strategy (i) decided.  A candidate, a
    reducing move (w, sign) or an exchange pair (v, w), is decided exactly
    only when every test of it that was screened vanishes: strategy (ii)
    screens both conditions of a pair before it decides either.  Each
    vanishing reducing test is decided."""
    import braidmoves.detect as D

    calls, decided, exact = Counter(), [], []

    def counting(fn, key):
        def wrapped(*args):
            result = fn(*args)
            calls[key(*args, result)] += 1
            return result

        return wrapped

    def deciding(value):
        exact.append(value._loops)
        return is_zero(value)

    def recording(screen, i, j, sign):
        decided.append((screen.words[i], screen.words[j], sign))
        return decide(screen, i, j, sign)

    is_zero, decide = PairingValue.is_zero, D._BlockScreen.decide
    monkeypatch.setattr(PairingValue, "is_zero", deciding)
    monkeypatch.setattr(D._BlockScreen, "decide", recording)
    monkeypatch.setattr(D, "x_column", counting(D.x_column, lambda w, _: ("x", w)))
    monkeypatch.setattr(D, "y_row", counting(D.y_row, lambda w, _: ("y", w)))
    monkeypatch.setattr(
        D, "_push", counting(D._push, lambda n, letters, vecs, *_: ("push", tuple(letters), tuple(vecs[0])))
    )

    def screen_key(s, i, j, sign, out):
        return ("screen", s.words[i], s.words[j], sign, out != 0)

    monkeypatch.setattr(D._BlockScreen, "value", counting(D._BlockScreen.value, screen_key))
    for scan, depth in ((reducing_certificates, 0), (reducing_certificates, 1), (exchange_certificates, 1)):
        calls.clear()
        decided.clear()
        exact.clear()
        assert list(scan(BETA2, depth))
        kinds = Counter(key[0] for key in calls)
        assert kinds["push"] and kinds["x"] and kinds["y"]
        assert set(calls.values()) == {1}

        def candidate(v, w, sign):
            return (w, sign) if scan is reducing_certificates else (v, w)

        tests = [key[1:] for key in calls if key[0] == "screen"]
        vanished = {test[:3] for test in tests if not test[3]}
        cleared = {candidate(*test[:3]) for test in tests if test[3]}
        assert 0 < len(decided) == len(set(decided)) == len(exact) < len(tests)
        assert set(decided) <= vanished
        assert not {candidate(*test) for test in decided} & cleared
        if scan is reducing_certificates:
            assert set(decided) == vanished


def matrix_verdict(y: FreeWord, x: FreeWord) -> bool:
    """The full (n+1)x(n+1) image of the exact pairing value mod P is nonzero."""
    return any(map(any, reduced(pair(fox_y(y), fox_x(x)).evaluated)))


def loop_pairs(rng, count):
    """Seeded B3-B5 loop pairs, half of them the known zeros
    <[beta(x_i)^-1]_y, [beta(x_j)]_x> with i < j."""
    pairs = []
    for _ in range(count):
        n = rng.randrange(3, 6)
        beta = rand_braid(rng, n, 5)
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            pairs.append((beta(FreeWord.generator(n, i)).inverse(), beta(FreeWord.generator(n, j))))
        else:
            pairs.append((rand_loop(rng, n), rand_loop(rng, n)))
    return pairs


def test_probe_verdict_equals_full_matrix_verdict():
    rng = random.Random(1103)
    verdicts = set()
    for y, x in loop_pairs(rng, 120):
        verdict = loop_pairing_certainly_nonzero(y, x)
        assert verdict == matrix_verdict(y, x), (str(y), str(x))
        verdicts.add(verdict)
    assert verdicts == {True, False}


# -- the block screen of detection -------------------------------------------


def simple_loop(rng, n, max_len):
    """psi(x_k) for a random braid psi of at most max_len letters."""
    return rand_braid(rng, n, max_len)(FreeWord.generator(n, rng.randrange(1, n + 1)))


def block_tests(b, v, w):
    """(sign, y-loop, x-loop) of the three tests that _BlockScreen(b) screens
    for the classes v, w, each with the loops its exact decision pairs:
    exchange condition 1, then the pairing with b(w) (positive reducing
    for v = w), then the negative reducing pairing of w."""
    return (
        (0, v, w, v.inverse(), w),
        (1, v, w, v.inverse(), b(w)),
        (-1, w, w, b(w).inverse(), w),
    )


def screened(screen, v, w, sign):
    """The block screen's value for the class words v, w."""
    return screen.value(screen.slot(v), screen.slot(w), sign)


def probed(m, n):
    """u^T m v mod P for the probe row u and column v of the screen."""
    u, v = probe_vectors(n + 1)
    return sum(ui * x for ui, x in zip(u, times_column(reduced(m), v))) % P


def test_negative_reducing_pairing_is_conjugate_to_a_pushed_one():
    """tau(b^-1) <[b(w)^-1]_y, [w]_x> tau(b) = <[w^-1]_y, [b^-1(w)]_x>
    exactly, the identity that lets the negative reducing test be screened
    through the push of b^-1."""
    rng = random.Random(1105)
    zeros = 0
    for _ in range(60):
        n = rng.randrange(3, 6)
        b, w = rand_braid(rng, n, 6), simple_loop(rng, n, 3)
        right = evaluate_loops(w.inverse(), b.inverse()(w))
        assert tau(b.inverse()) * evaluate_loops(b(w).inverse(), w) * tau(b) == right
        zeros += right.is_zero()
    assert 0 < zeros < 60


def test_block_screen_value_is_the_probed_exact_value():
    """Y(v^-1) . tau+(b^sign) X(w) is u^T M v mod P for the exact M:
    <[v^-1]_y, [w]_x> for sign 0, <[v^-1]_y, [b(w)]_x> tau(b) for sign 1,
    and <[w^-1]_y, [b^-1(w)]_x> tau(b^-1) for sign -1."""
    rng = random.Random(1106)
    for _ in range(30):
        n = rng.randrange(3, 6)
        b = rand_braid(rng, n, 6)
        v, w = simple_loop(rng, n, 3), simple_loop(rng, n, 3)
        screen = _BlockScreen(b)
        binv = b.inverse()
        assert screened(screen, v, w, 0) == probed(evaluate_loops(v.inverse(), w), n)
        assert screened(screen, v, w, 1) == probed(evaluate_loops(v.inverse(), b(w)) * tau(b), n)
        assert screened(screen, w, w, -1) == probed(
            evaluate_loops(w.inverse(), binv(w)) * tau(binv), n
        )


def test_block_screen_never_clears_a_known_zero():
    """<[psi(x_i)^-1]_y, [psi(x_j)]_x> = 0 for i < j, so neither that test
    nor the one of b(psi(x_i)) against b(psi(x_j)) is cleared; nor is any
    depth-0 reducing certificate of BETA2 or of its inverse, of both kinds."""
    rng = random.Random(1107)
    for n in (3, 4, 5):
        for _ in range(4):
            psi, b = rand_braid(rng, n, 4), rand_braid(rng, n, 4)
            screen = _BlockScreen(b)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    v, w = psi(FreeWord.generator(n, i)), psi(FreeWord.generator(n, j))
                    assert not screened(screen, v, w, 0)
                    assert not screened(screen, b(v), w, 1)
    kinds = set()
    for b in (BETA2, BETA2.inverse()):
        screen = _BlockScreen(b)
        certs = list(reducing_certificates(b, 0))
        assert len(certs) == 3
        for cert in certs:
            w = cert.witnesses[0].word
            assert not screened(screen, w, w, 1 if cert.kind == REDUCE_POSITIVE else -1)
            kinds.add(cert.kind)
    assert len(kinds) == 2


def test_block_verdict_equals_full_matrix_verdict():
    """Every block-screen nonzero is an exact nonzero, and the probe misses
    no nonzero of the sample: the verdict is that of the full image of the
    exact value of the loops the scan would decide."""
    rng = random.Random(1108)
    verdicts = set()
    for _ in range(40):
        n = rng.randrange(3, 6)
        psi, b = rand_braid(rng, n, 4), rand_braid(rng, n, 5)
        if rng.random() < 0.5:
            # known zeros of the first two tests
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            v, w = psi(FreeWord.generator(n, i)), psi(FreeWord.generator(n, j))
            v = b(v) if rng.random() < 0.5 else v
        else:
            v, w = simple_loop(rng, n, 4), simple_loop(rng, n, 4)
        screen = _BlockScreen(b)
        for sign, yc, xc, yloop, xloop in block_tests(b, v, w):
            verdict = screened(screen, yc, xc, sign) != 0
            assert verdict == matrix_verdict(yloop, xloop), (str(b), str(yc), str(xc), sign)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_block_screen_verdicts_equal_loop_screen_verdicts():
    """The screen of a scan keeps the vectors of each class for every test
    that uses it; its verdicts equal the one-shot loop-word screen's on the
    loops each test decides, and each class is swept once per side."""
    rng = random.Random(1104)
    n = 4
    classes = [sc.word for sc in enumerate_simple(n, 1)]
    verdicts = set()
    for b in (rand_braid(rng, n, 6), BETA2):
        screen = _BlockScreen(b)
        for v in classes:
            for w in classes:
                for sign, yc, xc, yloop, xloop in block_tests(b, v, w):
                    verdict = screened(screen, yc, xc, sign) != 0
                    assert verdict == loop_pairing_certainly_nonzero(yloop, xloop)
                    verdicts.add(verdict)
        assert len(screen.words) == len(classes)
        assert sum(row is not None for row in screen._rows) == len(classes)
        formed = [col for cols in screen._columns.values() for col in cols if col is not None]
        assert len(formed) == 3 * len(classes)
    assert verdicts == {True, False}


def _cache_misses() -> int:
    """Misses of every lru cache of braidmoves except tau on words, at module
    level or on a class."""
    import braidmoves.magnus as M

    caches = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "braidmoves" or mod is None:
            continue
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for v in (value, *members):
                v = getattr(v, "__func__", v)
                if hasattr(v, "cache_info") and v is not M._tau_word:
                    caches[id(v)] = v
    return sum(c.cache_info().misses for c in caches.values())


def test_scans_keep_no_loop_keyed_cache():
    warm = BraidWord.parse("1 2 -3 2 1 -2", 4)
    for b in (warm, BETA2):
        list(reducing_certificates(b, 1))
        list(exchange_certificates(b, 1))
    before = _cache_misses()
    other = BraidWord.parse("-2 -2 1 -2 3 2 2 2 -1 2 -3", 4)
    assert list(reducing_certificates(other, 1)) == []
    list(exchange_certificates(other, 1))
    # every loop of the second scan is new, so a loop-keyed cache would miss
    assert _cache_misses() == before
