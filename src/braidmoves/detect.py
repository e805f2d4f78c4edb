"""Certified detection of reducing moves and exchange moves on closed braids.

A *simple class* is the x-based homology class of an embedded loop around
a single puncture; every such loop is the image of some generator x_k
under a braid automorphism, so bounded enumeration of simple classes is
enumeration of act(beta, x_k) over short braid words beta.

For a braid beta (acting as an automorphism, rightmost letter first):

* beta is conjugate to a positively reducible braid iff some simple class
  v = [w]_x has  <v^*, beta v beta^-1> = 0,  i.e.
  <[w^-1]_y, [beta(w)]_x> = 0; negatively reducible iff
  <beta v^* beta^-1, v> = <[beta(w)^-1]_y, [w]_x> = 0.

* beta admits an exchange move iff there are simple classes v, w with
  <v^*, w> = 0 and <v^*, beta w beta^-1> = 0.  When the pair has the joint
  form v = [psi(x_{n-1})], w = [psi(x_n)] the first condition holds
  automatically and the move can be written out:  beta is replaced by
  phi sigma_{n-1}^-2 phi^-1 . beta . psi sigma_{n-1}^2 psi^-1  where
  phi(x_{n-1}) = v-word and phi(x_n) = beta(w-word).

Detection at a fixed depth is a semi-decision procedure: not-found means
not found within this depth, never a proof of absence.  Every positive
result is re-verified from scratch through a fresh pairing evaluation in
the matrix ring before it is returned.

A passing vanishing test reports a move on the conjugacy class; which of
the two reducing signs fires for a given braid is decided computationally,
by running both tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .homology import HomologyClassX, fox_x
from .krammer import tau_plus
from .modcheck import loop_pairing_certainly_nonzero
from .pairing import pair_loops, y_terms
from .words import BraidWord, FreeWord, WordError

REDUCE_POSITIVE = "reduce_positive"
REDUCE_NEGATIVE = "reduce_negative"
EXCHANGE = "exchange"


class InvariantViolation(RuntimeError):
    """A found witness failed its from-scratch re-verification."""


@dataclass(frozen=True)
class SimpleClass:
    """A simple homology class: the loop word, a braid realizing it, and
    the generator index it is realized from."""

    word: FreeWord
    witness: BraidWord
    generator_index: int

    @cached_property
    def xclass(self) -> HomologyClassX:
        """[word]_x, computed on first use."""
        return fox_x(self.word)

    @property
    def n(self) -> int:
        return self.word.n


@dataclass(frozen=True)
class DetectionResult:
    found: bool
    depth_searched: int
    kind: str | None = None
    witnesses: tuple[SimpleClass, ...] = ()
    rewritten: BraidWord | None = None
    joint_witness: BraidWord | None = None  # psi with v = [psi x_{n-1}], w = [psi x_n]

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "kind": self.kind,
            "witness_words": [str(sc.word) for sc in self.witnesses],
            "witness_braids": [str(sc.witness) for sc in self.witnesses],
            "rewritten_braid": str(self.rewritten) if self.rewritten is not None else None,
            "depth_searched": self.depth_searched,
        }


# -- enumeration ---------------------------------------------------------

MAX_ENUM_WORDS = 100_000
"""The most raw braid words of the longest length, (2(n-1))^depth, that an
enumeration may walk."""


def check_depth(n: int, depth: int) -> None:
    """Reject a negative depth, or one with more than MAX_ENUM_WORDS raw
    words of length depth.  The count grows one factor at a time, so a
    huge depth fails at once."""
    if depth < 0:
        raise WordError("depth must be >= 0")
    width, count = 2 * (n - 1), 1
    if width <= 1:
        return
    for _ in range(depth):
        count *= width
        if count > MAX_ENUM_WORDS:
            raise WordError(
                f"depth {depth} on {n} strands enumerates {width}^{depth} braid "
                f"words, more than {MAX_ENUM_WORDS}"
            )


def braid_words(n: int, depth: int) -> Iterator[BraidWord]:
    """All braid words of length <= depth, in (length, letter-lex) order.

    The letter order is sigma_1, sigma_1^-1, sigma_2, sigma_2^-1, ...
    Raw letter tuples are normalized, so reducible words repeat earlier
    entries; callers deduplicate by whatever they compute from the braid.
    The depth is checked (check_depth) before the first word.
    """
    check_depth(n, depth)
    alphabet = [(i, s) for i in range(1, n) for s in (1, -1)]
    # B_1 has no letters: the empty word is its only word at every depth
    for length in range(depth + 1 if alphabet else 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield BraidWord(n, letters)


def enumerate_simple(n: int, depth: int) -> list[SimpleClass]:
    """Deduplicated act(beta, x_k) over all |beta| <= depth, deterministic.

    Each class keeps the first braid that produced it, which by the
    enumeration order is a shortest witness (lex tie-break).
    """
    seen: dict[FreeWord, SimpleClass] = {}
    for beta in braid_words(n, depth):
        for k in range(1, n + 1):
            word = beta(FreeWord.generator(n, k))
            if word not in seen:
                seen[word] = SimpleClass(word, beta, k)
    return list(seen.values())


# -- verification ---------------------------------------------------------


def _loop_pairing_zero(yloop: FreeWord, xloop: FreeWord, memo: dict) -> bool:
    """Exact zero test of <[yloop]_y, [xloop]_x>, screened first; memo
    keeps the screen's per-loop sweeps for the rest of the scan."""
    if loop_pairing_certainly_nonzero(yloop, xloop, memo):
        return False
    return pair_loops(yloop, xloop).is_zero()


def _verified_zero(yloop: FreeWord, xloop: FreeWord, yterms=None) -> bool:
    """Evaluate a fresh pairing of two loops all the way to the matrix ring;
    yterms, when given, is pairing.y_terms(yloop)."""
    return pair_loops(yloop, xloop, yterms).evaluated.is_zero()


def _reverify_reducing(b: BraidWord, sc: SimpleClass, kind: str):
    w = sc.word
    if kind == REDUCE_POSITIVE:
        ok = _verified_zero(w.inverse(), b(w))
    else:
        ok = _verified_zero(b(w).inverse(), w)
    if not ok:
        raise InvariantViolation(f"reducing witness failed re-verification: {w}")


def _reverify_exchange(b: BraidWord, v: SimpleClass, w: SimpleClass):
    # v^* = [v^-1]_y: both conditions fold through its terms, built once
    vstar = v.word.inverse()
    terms = y_terms(vstar)
    if not _verified_zero(vstar, w.word, terms):
        raise InvariantViolation(f"exchange witness pair failed <v*, w> = 0: {v.word}, {w.word}")
    if not _verified_zero(vstar, b(w.word), terms):
        raise InvariantViolation(
            f"exchange witness pair failed <v*, beta w beta^-1> = 0: {v.word}, {w.word}"
        )


# -- detectors ------------------------------------------------------------


def reducing_certificates(b: BraidWord, depth: int) -> Iterator[DetectionResult]:
    """All reducing-move certificates at this depth, in deterministic order.

    For each candidate class v = [w]_x the positive-type condition is
    tested first, then the negative-type one.  Every yielded certificate
    has been re-verified from scratch.
    """
    memo: dict = {}
    for sc in enumerate_simple(b.n, depth):
        w = sc.word
        bw = b(w)
        if _loop_pairing_zero(w.inverse(), bw, memo):
            kind = REDUCE_POSITIVE
        elif _loop_pairing_zero(bw.inverse(), w, memo):
            kind = REDUCE_NEGATIVE
        else:
            continue
        _reverify_reducing(b, sc, kind)
        yield DetectionResult(
            found=True, depth_searched=depth, kind=kind, witnesses=(sc,)
        )


def detect_reducing(b: BraidWord, depth: int) -> DetectionResult:
    """First reducing-move certificate within depth, or not-found.

    Not-found only means not found within this depth.
    """
    for result in reducing_certificates(b, depth):
        return result
    return DetectionResult(found=False, depth_searched=depth)


def exchange_certificates(b: BraidWord, depth: int) -> Iterator[DetectionResult]:
    """All exchange-move certificates at this depth, in deterministic order.

    Strategy (i) scans joint pairs (psi(x_{n-1}), psi(x_n)) over braid
    words psi of length <= depth; such pairs satisfy the first vanishing
    condition automatically and make the move directly rewritable.
    Strategy (ii) then scans independent pairs of enumerated simple
    classes, filtering by the first condition.  Pairs already yielded by
    strategy (i) are not repeated.
    """
    n = b.n
    if n < 3:
        raise WordError("exchange moves need n >= 3")

    xn1 = FreeWord.generator(n, n - 1)
    xn = FreeWord.generator(n, n)
    seen: set[tuple[FreeWord, FreeWord]] = set()
    yielded: set[tuple[FreeWord, FreeWord]] = set()
    memo: dict = {}

    for psi in braid_words(n, depth):
        vw, ww = psi(xn1), psi(xn)
        if (vw, ww) in seen:
            continue
        seen.add((vw, ww))
        if not _loop_pairing_zero(vw.inverse(), b(ww), memo):
            continue
        v = SimpleClass(vw, psi, n - 1)
        w = SimpleClass(ww, psi, n)
        _reverify_exchange(b, v, w)
        yielded.add((vw, ww))
        yield DetectionResult(
            found=True,
            depth_searched=depth,
            kind=EXCHANGE,
            witnesses=(v, w),
            joint_witness=psi,
        )

    classes = enumerate_simple(n, depth)
    for v in classes:
        for w in classes:
            if (v.word, w.word) in yielded:
                continue
            if not _loop_pairing_zero(v.word.inverse(), w.word, memo):
                continue
            if not _loop_pairing_zero(v.word.inverse(), b(w.word), memo):
                continue
            _reverify_exchange(b, v, w)
            yield DetectionResult(
                found=True, depth_searched=depth, kind=EXCHANGE, witnesses=(v, w)
            )


def detect_exchange(b: BraidWord, depth: int) -> DetectionResult:
    """First exchange-move certificate within depth, or not-found."""
    for result in exchange_certificates(b, depth):
        return result
    return DetectionResult(found=False, depth_searched=depth)


# -- the rewrite ----------------------------------------------------------

MAX_JOINT_STATES = 40_000
"""The most states (pairs of free words) that find_joint_braid may store
in its forward and backward tables together.  The rewrites of the unknot
pipeline store at most 3 542."""

MAX_JOINT_LETTERS = 1_000_000
"""The most letters, summed over both words of every stored state, that
find_joint_braid may keep.  The state words grow with the search depth,
so the state count alone does not bound the memory.  The rewrites of the
unknot pipeline store at most 89 024 letters."""


def find_joint_braid(v_word: FreeWord, w_word: FreeWord, depth: int) -> BraidWord | None:
    """A braid psi with psi(x_{n-1}) = v_word and psi(x_n) = w_word, of
    length at most depth, or None when the bounded search exhausts its
    depth, MAX_JOINT_STATES or MAX_JOINT_LETTERS.

    Works by bidirectional breadth-first search on the orbit of the pair
    (x_{n-1}, x_n): prepending a generator g to psi maps the state pair
    (A, B) to (g(A), g(B)), so half the depth is searched from each end
    and the words are spliced at a meeting state.  Deterministic: fixed
    letter order, first meeting state in scan order wins.
    """
    n = v_word.n
    if w_word.n != n:
        raise WordError("puncture count mismatch")
    start = (FreeWord.generator(n, n - 1), FreeWord.generator(n, n))
    target = (v_word, w_word)
    if start == target:
        return BraidWord.identity(n)
    gens = [BraidWord.generator(n, i, s) for i in range(1, n) for s in (1, -1)]

    # forward[S] = word w with w(start) = S; backward[S] = word w with
    # w(S) = target.  Meeting at M gives psi = backward[M] * forward[M]:
    # psi(start) = backward[M](forward[M](start)) = backward[M](M) = target.
    forward: dict[tuple[FreeWord, FreeWord], BraidWord] = {start: BraidWord.identity(n)}
    backward: dict[tuple[FreeWord, FreeWord], BraidWord] = {target: BraidWord.identity(n)}
    front_f, front_b = [start], [target]
    depth_f = depth_b = 0
    letters = len(start[0]) + len(start[1]) + len(v_word) + len(w_word)

    def expand(front, table, backwards):
        # state transition S -> g(S); the stored word gains g on the left
        # going forward (g . w maps start to g(S)), or g^-1 on the right
        # going backward (w . g^-1 maps g(S) to the target).  None once
        # the two tables hold MAX_JOINT_STATES states or MAX_JOINT_LETTERS
        # letters.
        nonlocal letters
        new_front = []
        for state in front:
            word = table[state]
            for g in gens:
                nxt = (g(state[0]), g(state[1]))
                if nxt not in table:
                    letters += len(nxt[0]) + len(nxt[1])
                    if (
                        len(forward) + len(backward) >= MAX_JOINT_STATES
                        or letters > MAX_JOINT_LETTERS
                    ):
                        return None
                    table[nxt] = word * g.inverse() if backwards else g * word
                    new_front.append(nxt)
        return new_front

    while depth_f + depth_b < depth and (front_f or front_b):
        # grow the smaller frontier first
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
                if psi(start[0]) == v_word and psi(start[1]) == w_word:
                    return psi
    return None


def rewrite_exchange(
    b: BraidWord, result: DetectionResult, depth: int
) -> BraidWord | None:
    """Carry out a detected exchange move.

    Searches (bounded by depth) for psi with psi(x_{n-1}) = v-word and
    psi(x_n) = w-word, and phi with phi(x_{n-1}) = v-word and
    phi(x_n) = beta(w-word); on success returns
    phi sigma_{n-1}^-2 phi^-1 . b . psi sigma_{n-1}^2 psi^-1, freely
    reduced.  Returns None when no realizing braids are found within the
    depth (the witness pair still stands).  The output is a braid-group
    equal exchange partner, not a literal word rewrite.
    """
    if not result.found or result.kind != EXCHANGE:
        raise ValueError("rewrite_exchange needs a found exchange result")
    v, w = result.witnesses
    n = b.n
    psi = result.joint_witness
    if psi is None:
        psi = find_joint_braid(v.word, w.word, depth)
        if psi is None:
            return None
    phi = find_joint_braid(v.word, b(w.word), depth)
    if phi is None:
        return None
    s = BraidWord.generator(n, n - 1)
    return phi * s ** -2 * phi.inverse() * b * psi * s ** 2 * psi.inverse()


# -- single-entry special forms -------------------------------------------


def entry_factored_form(n: int, i: int, j: int) -> str:
    """What block (i, j) vanishing says about the braid.

    The general characterization is geometric: the braid factors as b c
    where strand i at the top makes only undercrossings in b and strand j
    at the bottom makes only overcrossings in c, two distinct strands.
    Explicit word forms are stated only for the two corollary cases, which
    the randomized tests verify; word forms for other entries are not
    emitted (the obvious candidate fails already for single generators).
    """
    if (i, j) == (n, n):
        return f"P s{n - 1}^-1 Q with P, Q on strands 1..{n - 1}; reduces to QP"
    if (i, j) == (n, n - 1):
        return f"P s{n - 1}^-1 Q s{n - 1} with P, Q on strands 1..{n - 1}; an exchange form"
    return (
        f"factors as b.c: strand {i} at the top only undercrosses in b, "
        f"strand {j} at the bottom only overcrosses in c"
    )


@dataclass(frozen=True)
class SpecialFormReport:
    """Which blocks of the image of b vanish, and the named special forms."""

    n: int
    zero_entries: tuple[tuple[int, int], ...]
    reduction_form: bool  # r_{n,n} = 0:   b = P sigma_{n-1}^-1 Q, reduces to QP
    exchange_form: bool  # r_{n,n-1} = 0: b = P sigma_{n-1}^-1 Q sigma_{n-1}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "zero_entries": [list(e) for e in self.zero_entries],
            "reduction_form": self.reduction_form,
            "exchange_form": self.exchange_form,
            "factored_forms": {
                f"{i},{j}": entry_factored_form(self.n, i, j)
                for i, j in self.zero_entries
            },
        }


def special_form_tests(b: BraidWord) -> SpecialFormReport:
    """Zero-block report for the image of b.

    Block (n, n) vanishes iff b = P sigma_{n-1}^-1 Q with P, Q in B_{n-1}
    (then the closed braid reduces to the closure of QP); block (n, n-1)
    vanishes iff b = P sigma_{n-1}^-1 Q sigma_{n-1} (an exchange form).
    """
    n = b.n
    m = tau_plus(b)
    zeros = tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if m.block(i, j).is_zero()
    )
    return SpecialFormReport(
        n=n,
        zero_entries=zeros,
        reduction_form=(n, n) in zeros,
        exchange_form=(n, n - 1) in zeros,
    )
