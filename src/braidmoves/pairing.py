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
through the table of t_i, giving the terms R_i = C_i t_i (y_terms).  The
x-loop is folded over those terms with one accumulator, left to right:
acc <- acc X + R_i for x_i and acc <- (acc - R_i) X for x_i^-1
(homology.fold_x over magnus.letter_right, the tables tau of a word reads),
so its components are never formed.  The result is the full exact
(n+1) x (n+1) value.  The y-loop is swept whatever the lengths: against an
x-loop of two or three letters, a random y-loop of 40-126 letters takes
1.3-1.6x what a fold over the y-loop took (B3, B4), and a conjugate
b(x_i)^-1 of about a hundred letters about half.

The terms R_i of a one-letter y-loop x_j^sign are constants of the
representation.  letter_y_terms keeps them per (n, j, sign), built on
first use by the same sweep and held as tuples, and y_terms serves them
from there.  Every y-loop that detect's re-verifications fold over is
such a loop: each re-verified pairing is a unit conjugate of one whose
y-side is x_k^-1, x_k the generator that the class's witness moves onto
the class, so a re-verification sweeps neither loop.  The exact zero test
reads the symbolic value first, so no symbolic zero reads the table.
Longer loops are swept: two general forms measured slower on them, the
y-terms by the product rule over per-letter constants (2x slower from
three letters on) and a double fold over a table of letter pairs (3-5x
slower on loops of about a hundred letters).
"""

from __future__ import annotations

import logging
from functools import lru_cache, partial

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
from .magnus import TABLES_KEPT, MagnusElement, RowMatrix, letter_right, tau, transposed_table
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
# components are never formed.


@lru_cache(maxsize=TABLES_KEPT)
def t_right(n: int, i: int) -> tuple:
    """r -> r t_i, on flat rows."""
    return transposed_table(t_element(n, i))


def y_terms(yloop: FreeWord) -> tuple[RowMatrix, ...]:
    """R_i = C_i t_i for the components C_i of [yloop]_y, the terms that
    evaluate_loops folds the x-loop over.  The terms of a one-letter loop
    are read from letter_y_terms, each in a fresh RowMatrix, so no caller
    can change the table."""
    if len(yloop) == 1:
        ((j, sign),) = yloop.letters
        return tuple(map(RowMatrix, letter_y_terms(yloop.n, j, sign)))
    return _swept_y_terms(yloop)


def _swept_y_terms(yloop: FreeWord) -> tuple[RowMatrix, ...]:
    """The terms R_i of y_terms by one sweep of the y-loop."""
    n = yloop.n
    zero = RowMatrix.zero(n + 1)
    return tuple(
        zero if c.is_zero() else RowMatrix(c.entries) * t_right(n, i)
        for i, c in enumerate(tau_components_y(yloop), start=1)
    )


@lru_cache(maxsize=TABLES_KEPT)
def letter_y_terms(n: int, j: int, sign: int) -> tuple:
    """The rows of each term R_i of the loop x_j^sign, as tuples: constants
    of the representation, swept once."""
    terms = _swept_y_terms(FreeWord.generator(n, j, sign))
    return tuple(tuple(map(tuple, r.rows)) for r in terms)


def evaluate_loops(yloop: FreeWord, xloop: FreeWord) -> MagnusElement:
    """The exact value of <[yloop]_y, [xloop]_x> in the matrix ring: the
    terms R_i of the y-loop and the x-loop folded over them left to right,
    acc <- acc X + R_i for x_i, acc <- (acc - R_i) X for x_i^-1."""
    if not isinstance(yloop, FreeWord) or not isinstance(xloop, FreeWord):
        raise TypeError("a loop pairing reads two FreeWords")
    n = yloop.n
    if n != xloop.n:
        raise WordError(f"puncture count mismatch: {n} vs {xloop.n}")
    zero = RowMatrix.zero(n + 1)
    return fold_x(xloop, y_terms(yloop), zero, partial(letter_right, n, "x")).element()


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
