"""The intersection pairing between the two homology modules.

On basis elements the pairing is

    <f_i, e_j> = 0                                  for i != j,
    <f_i, e_i> = tau(x_1 .. x_i) - tau(x_1 .. x_{i-1}),

and it extends bilinearly, with y-side coefficients multiplying on the
left and x-side coefficients on the right.  A pairing value is kept in two
forms: the symbolic value in ZF_n, and its tau-evaluation in the matrix
ring.  The zero test that the move detectors rely on is the evaluated one;
a symbolic zero is only a sound fast path (tau is Z-linear), never the
other way around.  Whether a symbolically nonzero value can tau-evaluate
to zero is unknown; if it ever happens it is logged as a noteworthy event.

The evaluated value of two loops, S = sum_i C_i t_i M_i, is computed by
one fold (evaluate_loops), with no matrix-by-matrix product.  The y-loop
is swept into its components (homology.tau_components_y, flat rows pushed
through sparse generator tables) and they are multiplied by the t_i
through the table of t_i, giving the terms R_i = C_i t_i.  The x-loop is
folded over those terms with one accumulator, left to right, by
acc <- acc X + K (homology.fold_x), where X is tau of the letter and the
constant K is R_i for x_i and -R_i X for x_i^-1, which by distributivity
gives (acc - R_i) X; so its components are never formed, and an inverse
letter does not push R_i through X.  The result is the full exact
(n+1) x (n+1) value.

The fold runs on one term map (TermMap): a dict from a packed int key,
which holds the column, the row and the exponents of q and t of one
monomial, to its nonzero coefficient.  Multiplying a term by a monomial is
one add to its key, so a letter is one loop over the accumulator's terms,
each moved through the scatter form of magnus.letter_right for that
letter (letter_scatter: per source column, the key deltas and
coefficients of what it feeds).  The values are small (on detect's
re-verifications at most 46 terms and 2-bit coefficients), so this saves
the objects of a matrix of Laurent polynomials rather than arithmetic;
the map is decoded into a MagnusElement once, at the end (the key layout
is set out above T_BITS).  The y-loop is swept whatever the lengths:
against an x-loop of two or three letters, a random y-loop of 40-126
letters takes 1.3-1.6x what a fold over the y-loop took (B3, B4), and a
conjugate b(x_i)^-1 of about a hundred letters about half.

The steps K of a one-letter y-loop x_j^sign are constants of the
representation.  letter_y_terms keeps both steps of every i per
(n, j, sign), built on first use by the same sweep and held as tuples of
terms, and y_terms serves them from there.  Every y-loop that detect's
re-verifications fold over is such a loop: each re-verified pairing is a
unit conjugate of one whose y-side is x_k^-1, x_k the generator that the
class's witness moves onto the class, so a re-verification sweeps neither
loop.  The exact zero test reads the symbolic value first, so no symbolic
zero reads the table.  Longer loops are swept and their terms flattened
once per fold, and the step of x_i^-1 formed when the x-loop first reads
it: two general forms measured slower on them, the y-terms by the product
rule over per-letter constants (2x slower from three letters on) and a
double fold over a table of letter pairs (3-5x slower on loops of about a
hundred letters).
"""

from __future__ import annotations

import logging
from functools import lru_cache, partial
from typing import Callable

from .homology import (
    GroupRingElement,
    HomologyClassX,
    HomologyClassY,
    evaluate_x,
    evaluate_y,
    fold_x,
    fox_x,
    fox_y,
    tau_components_y,
)
from .laurent import ONE, ZERO, LaurentPoly
from .magnus import (
    TABLES_KEPT,
    MagnusElement,
    RowMatrix,
    letter_right,
    scattered,
    tau,
    transposed_table,
)
from .words import FreeWord, WordError

logger = logging.getLogger(__name__)


def x_prefix(n: int, i: int) -> FreeWord:
    """The word x_1 x_2 .. x_i (empty for i = 0)."""
    return FreeWord(n, tuple((k, 1) for k in range(1, i + 1)))


@lru_cache(maxsize=TABLES_KEPT)
def _t_symbolic(n: int, i: int) -> GroupRingElement:
    """x_1 .. x_i - x_1 .. x_{i-1}, the diagonal <f_i, e_i> in ZF_n."""
    return GroupRingElement.from_word(x_prefix(n, i)) - x_prefix(n, i - 1)


@lru_cache(maxsize=TABLES_KEPT)
def t_element(n: int, i: int) -> MagnusElement:
    """t_i = tau(x_1 .. x_i) - tau(x_1 .. x_{i-1})."""
    return tau(_t_symbolic(n, i))


class PairingValue:
    """A pairing value, symbolic in ZF_n with a memoized tau-evaluation.

    The value of two loops is evaluated by a fold (evaluate_loops): the
    y-loop is swept into its terms and each letter of the x-loop updates
    one accumulator, so the x-loop's components are never formed and no
    matrix is multiplied by a matrix.  Classes without loop words are
    evaluated term by term, tau(c_i) t_i tau(m_i), and a bare symbolic
    value through tau.  Every route gives tau(symbolic); the tests pin them
    together.

    Both forms are memoized and computed on first use.  The zero test of
    a fresh value built from classes, neither of whose forms is computed
    yet, screens it first through the evaluation homomorphism of modcheck,
    whose nonzero answers are exact.  A value built from loop words alone
    (pair_loops) is not screened: its callers have screened the loops
    already, and its symbolic form builds the classes when first read.
    """

    __slots__ = ("_symbolic", "_classes", "_loops", "_evaluated")

    def __init__(
        self,
        symbolic: GroupRingElement | None = None,
        classes: tuple[HomologyClassY, HomologyClassX] | None = None,
        loops: tuple[FreeWord, FreeWord] | None = None,
    ):
        if symbolic is None and classes is None and loops is None:
            raise ValueError("need a symbolic value, the paired classes or their loops")
        if loops is None and classes is not None:
            yc, xc = classes
            if yc.loop is not None and xc.loop is not None:
                loops = (yc.loop, xc.loop)
        self._symbolic = symbolic
        self._classes = classes
        self._loops = loops
        self._evaluated: MagnusElement | None = None

    @property
    def symbolic(self) -> GroupRingElement:
        if self._symbolic is None:
            if self._classes is None:
                yloop, xloop = self._loops
                self._classes = (fox_y(yloop), fox_x(xloop))
            self._symbolic = _symbolic_pairing(*self._classes)
        return self._symbolic

    @property
    def evaluated(self) -> MagnusElement:
        if self._evaluated is None:
            if self._loops is not None:
                self._evaluated = evaluate_loops(*self._loops)
            elif self._classes is not None:
                self._evaluated = _evaluate_factorwise(*self._classes)
            else:
                self._evaluated = tau(self.symbolic)
        return self._evaluated

    def is_zero(self) -> bool:
        if self._classes is not None and self._symbolic is None and self._evaluated is None:
            from .modcheck import pairing_certainly_nonzero

            if pairing_certainly_nonzero(*self._classes):
                return False
        if self.symbolic.is_zero():
            return True
        if self.evaluated.is_zero():
            logger.info(
                "pairing value is symbolically nonzero but tau-evaluates to zero: %s",
                self.symbolic,
            )
            return True
        return False

    def __str__(self) -> str:
        return str(self.symbolic)

    def __repr__(self) -> str:
        return f"PairingValue({self.symbolic})"


def pairing_sum(ymats, xmats, t, zero):
    """sum_i c_i t(i) m_i over the components c_i, m_i of two classes, in
    any ring whose elements have is_zero(): ZF_n or the Magnus matrices
    (the mod-p screen takes the same sum on probe vectors as one flat dot,
    modcheck.y_row times modcheck.x_column).  t(i) is the image of t_i,
    zero the zero of the sum."""
    acc = zero
    for i, (c, m) in enumerate(zip(ymats, xmats), start=1):
        if c.is_zero() or m.is_zero():
            continue
        acc = acc + c * t(i) * m
    return acc


def _evaluate_factorwise(yc: HomologyClassY, xc: HomologyClassX) -> MagnusElement:
    n = yc.n
    return pairing_sum(
        evaluate_y(yc), evaluate_x(xc), partial(t_element, n), MagnusElement.zero(n + 1)
    )


# -- the fold ---------------------------------------------------------------
#
# S = sum_i C_i t_i M_i for the components C_i = tau(c_i) of [yloop]_y and
# M_i = tau(m_i) of [xloop]_x.  The y-loop is swept into its components and
# multiplied by the t_i; the x-loop is folded over those terms, so its own
# components are never formed.  The fold runs on one term map: a dict from
# a packed key to a nonzero int, one key per monomial c q^a t^b of entry
# (r, k), laid out from the bottom as k, r, t and a:
#
#     key = k + (r << bits) + (b << tshift) + (a << qshift)
#
# with bits = n.bit_length() for the row and column fields (0..n),
# tshift = 2 bits, and qshift = tshift + T_BITS.  The key is linear in the
# fields, so a signed t-field reads back by an offset, and q, on top, is
# unbounded (shifts floor).  Multiplying a term by c' q^a' t^b' and moving
# it to column k' is one add of the delta (k' - k) + (b' << tshift) +
# (a' << qshift); a right multiplication keeps each term's row.

T_BITS = 32
"""The width of the signed t-field of a packed key.  Each letter of tau
moves the t-degree by at most one, so the exponents of a fold over loops
of l_y and l_x letters lie within l_y + l_x + 2n + 1 of zero (the prefixes
that the y-sweep forms are tau of a prefix of the y-loop times a word of at
most n letters, and t_i adds up to n); evaluate_loops refuses loops past
that bound."""


def _layout(n: int) -> tuple[int, int, int]:
    """The bits of the row and column fields, and the shifts of t and q."""
    bits = n.bit_length()
    return bits, 2 * bits, 2 * bits + T_BITS


class TermMap(dict):
    """A matrix over Z[q^±1, t^±1] as its packed terms, key -> nonzero int.

    m * table is m tau(l) for the letter_scatter table of the letter l: each
    term is moved along the deltas that its column feeds, or kept where its
    column feeds only itself.  m += terms adds (key, coefficient) pairs in
    place.  Zero coefficients are dropped as they arise.
    """

    __slots__ = ()

    def __mul__(self, table) -> TermMap:
        mask = len(table) - 1
        out = TermMap()
        get = out.get
        for key, c in self.items():
            moves = table[key & mask]
            if moves is None:
                w = get(key, 0) + c
                if w:
                    out[key] = w
                else:
                    del out[key]
                continue
            for delta, g in moves:
                moved = key + delta
                w = get(moved, 0) + c * g
                if w:
                    out[moved] = w
                else:
                    del out[moved]
        return out

    def __iadd__(self, terms) -> TermMap:
        get = self.get
        for key, c in terms:
            w = get(key, 0) + c
            if w:
                self[key] = w
            else:
                del self[key]
        return self


@lru_cache(maxsize=TABLES_KEPT)
def letter_scatter(n: int, i: int, sign: int) -> tuple:
    """r -> r tau(x_i^sign) on term maps: magnus.letter_right read by source
    column k, as the (key delta, coefficient) of every term that k feeds,
    or None where k feeds only itself.  Indexed by the column field, so its
    length is one more than the field's mask."""
    bits, tshift, qshift = _layout(n)
    out: list = [None] * (1 << bits)
    for k, feeds in enumerate(scattered(letter_right(n, "x", i, sign), n + 1)):
        if feeds != [(k, ONE)]:
            out[k] = tuple(
                (c - k + (b << tshift) + (a << qshift), coeff)
                for c, g in feeds
                for (a, b), coeff in g.terms()
            )
    return tuple(out)


def _flatten(n: int, rows) -> tuple:
    """The (key, coefficient) terms of a matrix given by its rows."""
    bits, tshift, qshift = _layout(n)
    return tuple(
        (k + (r << bits) + (b << tshift) + (a << qshift), c)
        for r, row in enumerate(rows)
        for k, p in enumerate(row)
        for (a, b), c in p.terms()
    )


def _decode(n: int, terms: TermMap) -> MagnusElement:
    """The MagnusElement of a term map."""
    bits, tshift, qshift = _layout(n)
    mask, half = (1 << bits) - 1, 1 << (T_BITS - 1)
    tmask, lift = (1 << T_BITS) - 1, half << tshift
    entries = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    for key, c in terms.items():
        up = key + lift
        entries[key >> bits & mask][key & mask][up >> qshift, (up >> tshift & tmask) - half] = c
    return MagnusElement([[LaurentPoly(e) if e else ZERO for e in row] for row in entries])


@lru_cache(maxsize=TABLES_KEPT)
def t_right(n: int, i: int) -> tuple:
    """r -> r t_i, on flat rows."""
    return transposed_table(t_element(n, i))


def _swept_y_terms(yloop: FreeWord) -> tuple[RowMatrix, ...]:
    """The terms R_i = C_i t_i of the y-loop's components C_i, by one sweep."""
    n = yloop.n
    zero = RowMatrix.zero(n + 1)
    return tuple(
        zero if c.is_zero() else RowMatrix(c.entries) * t_right(n, i)
        for i, c in enumerate(tau_components_y(yloop), start=1)
    )


def _y_steps(n: int, terms) -> Callable[[int, int], tuple]:
    """The steps K of a fold over the flat terms R_i: steps(i, 1) is R_i
    and steps(i, -1) is -R_i tau(x_i^-1), formed on first use."""
    inverse: dict[int, tuple] = {}

    def steps(i: int, sign: int) -> tuple:
        if sign == 1:
            return terms[i - 1]
        if i not in inverse:
            pushed = TermMap(terms[i - 1]) * letter_scatter(n, i, -1)
            inverse[i] = tuple((key, -c) for key, c in pushed.items())
        return inverse[i]

    return steps


@lru_cache(maxsize=TABLES_KEPT)
def letter_y_terms(n: int, j: int, sign: int) -> tuple:
    """The steps (R_i, -R_i tau(x_i^-1)) of each i for the loop x_j^sign, as
    tuples of (key, coefficient) terms: constants of the representation,
    swept once."""
    steps = _swept_steps(FreeWord.generator(n, j, sign))
    return tuple((steps(i, 1), steps(i, -1)) for i in range(1, n + 1))


def _swept_steps(yloop: FreeWord) -> Callable[[int, int], tuple]:
    """The steps of y_terms by one sweep, the terms flattened once."""
    n = yloop.n
    return _y_steps(n, [_flatten(n, r.rows) for r in _swept_y_terms(yloop)])


def y_terms(yloop: FreeWord) -> Callable[[int, int], tuple]:
    """The y-side steps that evaluate_loops folds the x-loop over:
    steps(i, sign) is the constant K of a letter x_i^sign, R_i for sign 1
    and -R_i tau(x_i^-1) for -1, with R_i = C_i t_i for the components C_i
    of [yloop]_y, as a tuple of (key, coefficient) terms.  The steps of a
    one-letter loop are read from letter_y_terms; a longer loop is swept,
    and its terms flattened, once per call."""
    if len(yloop) == 1:
        ((j, sign),) = yloop.letters
        table = letter_y_terms(yloop.n, j, sign)
        return lambda i, s: table[i - 1][s < 0]
    return _swept_steps(yloop)


def evaluate_loops(yloop: FreeWord, xloop: FreeWord) -> MagnusElement:
    """The exact value of <[yloop]_y, [xloop]_x> in the matrix ring: the
    x-loop folded over the steps of the y-loop left to right on one term
    map, acc <- acc tau(l) + K for each letter l, and decoded once."""
    if not isinstance(yloop, FreeWord) or not isinstance(xloop, FreeWord):
        raise TypeError("a loop pairing reads two FreeWords")
    n = yloop.n
    if n != xloop.n:
        raise WordError(f"puncture count mismatch: {n} vs {xloop.n}")
    if len(yloop) + len(xloop) + 2 * n + 1 >= 1 << (T_BITS - 1):
        raise WordError(
            f"loops of {len(yloop)} and {len(xloop)} letters overflow the t-field of the fold"
        )
    acc = fold_x(xloop, y_terms(yloop), TermMap(), partial(letter_scatter, n))
    return _decode(n, acc)


def _symbolic_pairing(yc: HomologyClassY, xc: HomologyClassX) -> GroupRingElement:
    n = yc.n
    return pairing_sum(
        yc.coeffs, xc.coeffs, partial(_t_symbolic, n), GroupRingElement.zero(n)
    )


def pair(yc: HomologyClassY, xc: HomologyClassX) -> PairingValue:
    """<yc, xc>, symbolically: sum_i c_i (x_1..x_i - x_1..x_{i-1}) m_i."""
    if yc.n != xc.n:
        raise WordError(f"puncture count mismatch: {yc.n} vs {xc.n}")
    return PairingValue(classes=(yc, xc))


def pair_loops(yloop: FreeWord, xloop: FreeWord) -> PairingValue:
    """<[yloop]_y, [xloop]_x>, with neither class built until its symbolic
    form is read."""
    if yloop.n != xloop.n:
        raise WordError(f"puncture count mismatch: {yloop.n} vs {xloop.n}")
    return PairingValue(loops=(yloop, xloop))
