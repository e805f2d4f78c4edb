"""The mod-p screen against the exact route.

The screen runs the same Fox sweeps and pairing sum as the exact
evaluation, over the reductions of the generator tables and flat probe
vectors; each table must act like the reduction of its exact matrix, the
vector sweeps must agree with the reduction of the exact sweeps, the probe
must agree with the full image of the exact value, and a nonzero answer
must mean an exact nonzero.
"""

import random
import sys
from functools import partial

from _tables import reference_entries, table_entries
from braidmoves.detect import (
    REDUCE_POSITIVE,
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
from braidmoves.magnus import _tau_letter
from braidmoves.modcheck import (
    P,
    ModVector,
    loop_pairing_certainly_nonzero,
    pairing_certainly_nonzero,
    poly_mod,
    t_mod,
    x_mod,
    y_mod,
)
from braidmoves.pairing import pair, t_element
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
    import braidmoves.modcheck as MC

    screened = []
    original = MC._screen

    def counting(yloop, xloop, *rest):
        screened.append((yloop, xloop))
        return original(yloop, xloop, *rest)

    monkeypatch.setattr(MC, "_screen", counting)
    certs = list(reducing_certificates(BETA2, 0))
    assert len(certs) == 3
    # the three survivors went on to the exact decision without a repeat screen
    assert screened and len(screened) == len(set(screened))


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


def test_shared_memo_verdicts_equal_one_shot_verdicts():
    rng = random.Random(1104)
    n = 4
    loops = [rand_loop(rng, n) for _ in range(12)]
    loops += [rand_braid(rng, n, 4)(FreeWord.generator(n, k)) for k in range(1, n + 1)]
    # some loops serve as a y-loop in one pair and an x-loop in another
    loops += [w.inverse() for w in loops[:4]]
    pairs = [(y.inverse(), x) for y in loops for x in loops]
    rng.shuffle(pairs)
    memo: dict = {}
    verdicts = set()
    for y, x in pairs:
        verdict = loop_pairing_certainly_nonzero(y, x, memo)
        assert verdict == loop_pairing_certainly_nonzero(y, x), (str(y), str(x))
        verdicts.add(verdict)
    assert verdicts == {True, False}
    # one sweep per distinct loop and side
    assert len(memo) == len({y for y, _ in pairs}) + len({x for _, x in pairs})


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
