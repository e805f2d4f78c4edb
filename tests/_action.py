"""Slow references for the coded braid action and the joint-braid search.

act applies a braid word letter by letter to a tuple of (index, sign)
letters: each generator replaces the letters it moves by their images,
written out here from the generator rules of words, and the result is
freely reduced from scratch.  joint_braid is the bidirectional search of
detect.find_joint_braid over tables of BraidWords keyed by pairs of
FreeWords, with the same scan order and caps, acting through act.
"""

from __future__ import annotations

from braidmoves import detect
from braidmoves.words import BraidWord, FreeWord, WordError


def reduce(letters) -> tuple:
    out = []
    for idx, sign in letters:
        if out and out[-1] == (idx, -sign):
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def inverse(letters) -> tuple:
    return tuple((i, -s) for i, s in reversed(letters))


def sigma_images(i: int, sign: int) -> dict:
    """{letter: image} for the letters that sigma_i^sign moves."""
    if sign == 1:
        images = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}
    else:
        images = {i + 1: ((i, 1),), i: ((i, 1), (i + 1, 1), (i, -1))}
    table = {}
    for idx, img in images.items():
        table[(idx, 1)] = img
        table[(idx, -1)] = inverse(img)
    return table


def apply_sigma(i: int, sign: int, letters) -> tuple:
    table = sigma_images(i, sign)
    out = []
    for letter in letters:
        out += table.get(letter, (letter,))
    return reduce(out)


def steps(b: BraidWord, letters) -> list[tuple]:
    """g_k(letters), g_{k-1}(g_k(letters)), ..., b(letters) for
    b = g_1 ... g_k."""
    out = []
    for i, sign in reversed(b.letters):
        letters = apply_sigma(i, sign, letters)
        out.append(letters)
    return out


def act(b: BraidWord, w: FreeWord) -> FreeWord:
    letters = w.letters
    for i, sign in reversed(b.letters):
        letters = apply_sigma(i, sign, letters)
    return FreeWord(w.n, letters)


def joint_braid(v_word: FreeWord, w_word: FreeWord, depth: int) -> BraidWord | None:
    """find_joint_braid over pairs of FreeWords, reading the caps from
    detect at each call."""
    if depth < 0:
        raise WordError("depth must be >= 0")
    n = v_word.n
    start = (FreeWord.generator(n, n - 1), FreeWord.generator(n, n))
    target = (v_word, w_word)
    if start == target:
        return BraidWord.identity(n)
    gens = [BraidWord.generator(n, i, s) for i in range(1, n) for s in (1, -1)]
    forward = {start: BraidWord.identity(n)}
    backward = {target: BraidWord.identity(n)}
    front_f, front_b = [start], [target]
    depth_f = depth_b = 0
    letters = len(start[0]) + len(start[1]) + len(v_word) + len(w_word)

    def expand(front, table, backwards):
        nonlocal letters
        new_front = []
        for state in front:
            word = table[state]
            for g in gens:
                nxt = (act(g, state[0]), act(g, state[1]))
                if nxt not in table:
                    letters += len(nxt[0]) + len(nxt[1])
                    if (
                        len(forward) + len(backward) >= detect.MAX_JOINT_STATES
                        or letters > detect.MAX_JOINT_LETTERS
                    ):
                        return None
                    table[nxt] = word * g.inverse() if backwards else g * word
                    new_front.append(nxt)
        return new_front

    while depth_f + depth_b < depth and (front_f or front_b):
        if front_f and (not front_b or len(front_f) <= len(front_b)):
            fresh = front_f = expand(front_f, forward, backwards=False)
            depth_f += 1
        else:
            fresh = front_b = expand(front_b, backward, backwards=True)
            depth_b += 1
        if fresh is None:
            return None
        for state in fresh:
            if state in forward and state in backward:
                psi = backward[state] * forward[state]
                if act(psi, start[0]) == v_word and act(psi, start[1]) == w_word:
                    return psi
    return None
