"""Certified detection of reducing moves and exchange moves on closed braids.

A *simple class* is the x-based homology class of an embedded loop around
a single puncture; every such loop is the image of some generator x_k
under a braid automorphism, so bounded enumeration of simple classes is a
walk of the orbit of the x_k under short braid words beta, level by level
in |beta| (_orbit); the joint pairs of exchange moves are walked alike.

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
the matrix ring before it is returned.  The pairing is B_n-equivariant,

    <[g(u)]_y, [g(v)]_x> = tau(g) <[u]_y, [v]_x> tau(g)^-1,

and every certified class is w = psi(x_k) with its witness psi at hand, so
each re-verification first checks psi(x_k) = w and then folds a pairing
whose y-side is the single letter x_k^-1 (pairing.letter_y_terms): with
c = psi^-1 beta psi,

    <[w^-1]_y, [beta(w)]_x> = tau(psi) <[x_k^-1]_y, [c(x_k)]_x> tau(psi)^-1,
    <[beta(w)^-1]_y, [w]_x> = tau(beta psi) <[x_k^-1]_y, [c^-1(x_k)]_x> tau(beta psi)^-1,

and for v = psi_v(x_a) the two exchange conditions <v^*, u>, u = w and
u = beta(w), are conjugates of <[x_a^-1]_y, [psi_v^-1(u)]_x>.  tau is a
unit, so each pairing vanishes exactly when the folded one does.  The scan
decides on the symbolic value of the original loops, so the fold stays an
independent check; it sweeps no loop, as the one-letter y-side comes from
the table.

Each candidate is screened mod P in the block representation, without
forming beta(w), whose length can grow exponentially with |beta|.  Two
exact identities make this possible.  The components of [beta(w)]_x are
those of tau+(beta) [w]_x times tau(beta)^-1, so

    <[v^-1]_y, [beta(w)]_x> = pairing_sum([v^-1]_y, tau+(beta) [w]_x) tau(beta)^-1,

and the negative reducing pairing is conjugate to a pairing of the same
shape for beta^-1:

    tau(beta^-1) <[beta(w)^-1]_y, [w]_x> tau(beta) = <[w^-1]_y, [beta^-1(w)]_x>.

tau(beta) is a unit, so each pairing vanishes exactly when its
pairing_sum does.  A scan keeps, per class word w, the probed flat column
X(w) (modcheck.x_column), the probed flat row Y(w^-1) with the t_i
applied (modcheck.y_row), and X(w) pushed once through the image of beta,
or of beta^-1, mod P (krammer._push over the tables krammer._rows_mod).
Each test is then one flat dot: Y(w^-1) tau+(beta^+-1) X(w) for the two
reducing tests, Y(v^-1) tau+(beta) X(w) for <v^*, beta w beta^-1>, and
Y(v^-1) X(w) for <v^*, w>.  A nonzero dot certifies an exact nonzero; a
candidate whose dots all vanish, both conditions of an exchange pair, is
decided exactly on its loop words, and only then is beta(w) built.

A passing vanishing test reports a move on the conjugacy class; which of
the two reducing signs fires for a given braid is decided computationally,
by running both tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .krammer import _push, _rows_mod, tau_plus
from .modcheck import ModVector, dot_mod, x_column, y_row
from .pairing import pair_loops
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
    entries.  This is the raw walk whose first occurrences _orbit yields
    in the same order; detection does not call it.  The depth is checked
    (check_depth) before the first word.
    """
    check_depth(n, depth)
    alphabet = [(i, s) for i in range(1, n) for s in (1, -1)]
    # B_1 has no letters: the empty word is its only word at every depth
    for length in range(depth + 1 if alphabet else 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield BraidWord(n, letters)


def _orbit(n: int, starts: list[tuple[FreeWord, ...]], depth: int) -> Iterator[tuple]:
    """(state, witness, root) for each distinct tuple of free words
    g(starts[root]) with |g| <= depth, in the order of its first occurrence
    in the raw walk (braid_words outside, the distinct starts inside), with
    the lex-first shortest witness g.  Level by level: each level applies
    sigma_1, sigma_1^-1, sigma_2, ... (letter outside) to the states of the
    level before, in their order, and keeps each state's first arrival."""
    check_depth(n, depth)
    gens = [BraidWord.generator(n, i, s) for i in range(1, n) for s in (1, -1)]
    level = [(state, BraidWord.identity(n), root) for root, state in enumerate(starts)]
    seen = {state for state, _, _ in level}
    # B_1 has no letters: the starts are its orbit at every depth
    for _ in range(depth if gens else 0):
        yield from level
        children = []
        for g in gens:
            for state, witness, root in level:
                child = tuple(g(word) for word in state)
                if child not in seen:
                    seen.add(child)
                    children.append((child, g * witness, root))
        level = children
    yield from level


def enumerate_simple(n: int, depth: int) -> list[SimpleClass]:
    """The distinct act(beta, x_k) over all |beta| <= depth: the orbit of
    the states (x_k,), in raw-walk order (beta, then k), each class with
    the first braid that produced it, a shortest witness (lex tie-break)."""
    starts = [(FreeWord.generator(n, k),) for k in range(1, n + 1)]
    return [SimpleClass(word, beta, root + 1) for (word,), beta, root in _orbit(n, starts, depth)]


# -- verification ---------------------------------------------------------


class _BlockScreen:
    """The mod-P screen of the scans of one braid b, in the block
    representation (see the module docstring).  Each class word w gets a
    slot, slot(w), on first sight; per slot it keeps the flat row Y(w^-1)
    (modcheck.y_row), the flat column X(w) (modcheck.x_column) and X(w)
    pushed through the image of b^sign mod P, in lists, each formed on
    first use.  No loop word of b is built for a candidate that the screen
    clears."""

    def __init__(self, b: BraidWord):
        self.b = b
        self._letters = {1: b.letters[::-1], -1: b.inverse().letters[::-1]}
        self._slots: dict[FreeWord, int] = {}
        self.words: list[FreeWord] = []
        self._rows: list[ModVector | None] = []
        self._columns: dict[int, list[ModVector | None]] = {0: [], 1: [], -1: []}

    def slot(self, w: FreeWord) -> int:
        """The slot of the class word w, new on first sight."""
        k = self._slots.get(w)
        if k is None:
            k = self._slots[w] = len(self.words)
            self.words.append(w)
            self._rows.append(None)
            for columns in self._columns.values():
                columns.append(None)
        return k

    def _column(self, j: int, sign: int) -> ModVector:
        column = self._columns[sign][j]
        if column is None:
            if sign:
                col = [self._column(j, 0)]
                column = ModVector(_push(self.b.n, self._letters[sign], col, _rows_mod, dot_mod)[0])
            else:
                column = x_column(self.words[j])
            self._columns[sign][j] = column
        return column

    def value(self, i: int, j: int, sign: int) -> int:
        """Y(v^-1) . tau+(b^sign) X(w) mod P for the words v, w of slots i, j,
        with no push for sign 0.  A nonzero value certifies that the pairing
        decide() tests is exactly nonzero."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = y_row(self.words[i].inverse())
        return row * self._column(j, sign)

    def decide(self, i: int, j: int, sign: int) -> bool:
        """Exact zero test, on the loop words, of <[v^-1]_y, [b^sign(w)]_x>
        for sign 0 or 1 and the words v, w of slots i, j, or, for sign -1
        (i = j), of the negative reducing pairing <[b(w)^-1]_y, [w]_x>;
        b(w) is built only here."""
        v, w = self.words[i], self.words[j]
        if sign < 0:
            return pair_loops(self.b(w).inverse(), w).is_zero()
        return pair_loops(v.inverse(), self.b(w) if sign else w).is_zero()


def _verified_zero(yloop: FreeWord, xloop: FreeWord) -> bool:
    """Evaluate a fresh pairing of two loops all the way to the matrix ring."""
    return pair_loops(yloop, xloop).evaluated.is_zero()


def _base(sc: SimpleClass) -> tuple[BraidWord, FreeWord]:
    """The witness psi of sc and x_k, k its generator index, once psi(x_k) is
    checked to be the class word."""
    x = FreeWord.generator(sc.n, sc.generator_index)
    if sc.witness(x) != sc.word:
        raise InvariantViolation(f"witness {sc.witness} does not realize {sc.word}")
    return sc.witness, x


def _reverify_reducing(b: BraidWord, sc: SimpleClass, kind: str):
    # w = psi(x_k) and c = psi^-1 b psi: the pairing is tau(psi) or
    # tau(b psi) times <[x_k^-1]_y, [c^+-1(x_k)]_x> times its inverse
    psi, x = _base(sc)
    c = psi.inverse() * b * psi
    if not _verified_zero(x.inverse(), (c if kind == REDUCE_POSITIVE else c.inverse())(x)):
        raise InvariantViolation(f"reducing witness failed re-verification: {sc.word}")


def _reverify_exchange(b: BraidWord, v: SimpleClass, w: SimpleClass):
    # v = psi_v(x_a): <v^*, u> is tau(psi_v) <[x_a^-1]_y, [psi_v^-1(u)]_x>
    # tau(psi_v)^-1 for u = w and u = b(w), w = psi_w(x_k)
    psi_v, xa = _base(v)
    psi_w, xk = _base(w)
    back = psi_v.inverse()
    if not _verified_zero(xa.inverse(), (back * psi_w)(xk)):
        raise InvariantViolation(f"exchange witness pair failed <v*, w> = 0: {v.word}, {w.word}")
    if not _verified_zero(xa.inverse(), (back * b * psi_w)(xk)):
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
    screen = _BlockScreen(b)
    for sc in enumerate_simple(b.n, depth):
        k = screen.slot(sc.word)
        if not screen.value(k, k, 1) and screen.decide(k, k, 1):
            kind = REDUCE_POSITIVE
        elif not screen.value(k, k, -1) and screen.decide(k, k, -1):
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

    Strategy (i) scans joint pairs (psi(x_{n-1}), psi(x_n)), the orbit of
    (x_{n-1}, x_n) under braid words psi of length <= depth; such pairs
    satisfy the first vanishing condition automatically and make the move
    directly rewritable.  Strategy (ii) then scans the other pairs of
    enumerated simple classes, screening both conditions before deciding
    either; (i) has decided the second condition of every joint pair.
    """
    n = b.n
    if n < 3:
        raise WordError("exchange moves need n >= 3")

    start = (FreeWord.generator(n, n - 1), FreeWord.generator(n, n))
    screen = _BlockScreen(b)
    joint: set[tuple[int, int]] = set()

    for (vw, ww), psi, _ in _orbit(n, [start], depth):
        i, j = screen.slot(vw), screen.slot(ww)
        joint.add((i, j))
        if screen.value(i, j, 1) or not screen.decide(i, j, 1):
            continue
        v = SimpleClass(vw, psi, n - 1)
        w = SimpleClass(ww, psi, n)
        _reverify_exchange(b, v, w)
        yield DetectionResult(
            found=True,
            depth_searched=depth,
            kind=EXCHANGE,
            witnesses=(v, w),
            joint_witness=psi,
        )

    classes = enumerate_simple(n, depth)
    slots = [screen.slot(sc.word) for sc in classes]
    for v, i in zip(classes, slots):
        for w, j in zip(classes, slots):
            # both conditions are screened before either is decided
            if (i, j) in joint or screen.value(i, j, 0) or screen.value(i, j, 1):
                continue
            if not (screen.decide(i, j, 0) and screen.decide(i, j, 1)):
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
    depth, MAX_JOINT_STATES or MAX_JOINT_LETTERS.  A negative depth raises
    WordError.

    Works by bidirectional breadth-first search on the orbit of the pair
    (x_{n-1}, x_n): prepending a generator g to psi maps the state pair
    (A, B) to (g(A), g(B)), so half the depth is searched from each end
    and the words are spliced at a meeting state.  Deterministic: the
    first meeting state in scan order wins, so the scan stays state-major
    (each state with every letter in turn), unlike _orbit's letter-major
    levels: another order returns another psi, and another rewrite.
    """
    if depth < 0:
        raise WordError("depth must be >= 0")
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
    depth (the witness pair still stands); a negative depth raises
    WordError.  The output is a braid-group equal exchange partner, not a
    literal word rewrite.
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
