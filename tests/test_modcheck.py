"""The mod-p screen against the exact route.

The screen runs the same Fox sweeps and pairing sum as the exact
evaluation, over the reductions of the generator tables; it must agree
with the reduction of the exact values, and a nonzero answer must mean an
exact nonzero.
"""

import random
from functools import partial

from braidmoves.detect import REDUCE_POSITIVE, reducing_certificates
from braidmoves.homology import (
    fox_x,
    fox_y,
    sweep_x,
    sweep_y,
    tau_components_x,
    tau_components_y,
)
from braidmoves.modcheck import (
    ModMatrix,
    loop_pairing_certainly_nonzero,
    pairing_certainly_nonzero,
    x_mod,
    y_mod,
)
from braidmoves.pairing import pair
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


def test_mod_sweeps_are_reductions_of_exact_sweeps():
    rng = random.Random(1101)
    for _ in range(60):
        n = rng.randrange(3, 6)
        w = rand_loop(rng, n)
        one, zero = ModMatrix.identity(n + 1), ModMatrix.zero(n + 1)
        assert sweep_x(w, one, zero, partial(x_mod, n)) == tuple(
            ModMatrix.reduce(c) for c in tau_components_x(w)
        )
        assert sweep_y(w, one, zero, partial(y_mod, n)) == tuple(
            ModMatrix.reduce(c) for c in tau_components_y(w)
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

    def counting(yloop, xloop):
        screened.append((yloop, xloop))
        return original(yloop, xloop)

    monkeypatch.setattr(MC, "_screen", counting)
    certs = list(reducing_certificates(BETA2, 0))
    assert len(certs) == 3
    # the three survivors went on to the exact decision without a repeat screen
    assert screened and len(screened) == len(set(screened))
