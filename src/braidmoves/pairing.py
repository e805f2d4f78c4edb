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
"""

from __future__ import annotations

import logging
from functools import lru_cache, partial

from .homology import GroupRingElement, HomologyClassX, HomologyClassY
from .magnus import MagnusElement, tau
from .words import FreeWord, WordError

logger = logging.getLogger(__name__)


@lru_cache(maxsize=None)
def x_prefix(n: int, i: int) -> FreeWord:
    """The word x_1 x_2 .. x_i (empty for i = 0)."""
    return FreeWord(n, tuple((k, 1) for k in range(1, i + 1)))


@lru_cache(maxsize=None)
def _t_symbolic(n: int, i: int) -> GroupRingElement:
    """x_1 .. x_i - x_1 .. x_{i-1}, the diagonal <f_i, e_i> in ZF_n."""
    return GroupRingElement.from_word(x_prefix(n, i)) - x_prefix(n, i - 1)


@lru_cache(maxsize=None)
def t_element(n: int, i: int) -> MagnusElement:
    """t_i = tau(x_1 .. x_i) - tau(x_1 .. x_{i-1})."""
    return tau(_t_symbolic(n, i))


class PairingValue:
    """A pairing value, symbolic in ZF_n with a memoized tau-evaluation.

    The evaluation uses tau's multiplicativity: each diagonal term
    c_i (x_1..x_i - x_1..x_{i-1}) m_i evaluates to tau(c_i) t_i tau(m_i),
    and when a class carries its loop word the component matrices come
    from the linear-time sweeps in the homology module.  The result is
    tau(symbolic); the tests pin the two routes together.

    Both forms are memoized and computed on first use.  The zero test of
    a fresh value, neither of whose forms is computed yet, screens it first
    through the evaluation homomorphism of modcheck, whose nonzero answers
    are exact; a caller that has already screened the loops takes the
    symbolic form first, and the test goes straight to the exact decision.
    """

    __slots__ = ("_symbolic", "_classes", "_evaluated")

    def __init__(
        self,
        symbolic: GroupRingElement | None = None,
        classes: tuple[HomologyClassY, HomologyClassX] | None = None,
    ):
        if symbolic is None and classes is None:
            raise ValueError("need a symbolic value or the paired classes")
        self._symbolic = symbolic
        self._classes = classes
        self._evaluated: MagnusElement | None = None

    @property
    def symbolic(self) -> GroupRingElement:
        if self._symbolic is None:
            self._symbolic = _symbolic_pairing(*self._classes)
        return self._symbolic

    @property
    def evaluated(self) -> MagnusElement:
        if self._evaluated is None:
            if self._classes is not None:
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


def _y_component_matrices(yc: HomologyClassY) -> tuple[MagnusElement, ...]:
    from .homology import evaluate_y, tau_components_y

    if yc.loop is not None:
        return tau_components_y(yc.loop)
    return evaluate_y(yc)


def _x_component_matrices(xc: HomologyClassX) -> tuple[MagnusElement, ...]:
    from .homology import evaluate_x, tau_components_x

    if xc.loop is not None:
        return tau_components_x(xc.loop)
    return evaluate_x(xc)


def pairing_sum(ymats, xmats, t, zero):
    """sum_i c_i t(i) m_i over the components c_i, m_i of two classes, in
    any ring whose elements have is_zero(): ZF_n, the Magnus matrices, or
    probe vectors mod p, where each term is a scalar.  t(i) is the image
    of t_i, zero the zero of the sum."""
    acc = zero
    for i, (c, m) in enumerate(zip(ymats, xmats), start=1):
        if c.is_zero() or m.is_zero():
            continue
        acc = acc + c * t(i) * m
    return acc


def _evaluate_factorwise(yc: HomologyClassY, xc: HomologyClassX) -> MagnusElement:
    n = yc.n
    return pairing_sum(
        _y_component_matrices(yc),
        _x_component_matrices(xc),
        partial(t_element, n),
        MagnusElement.zero(n + 1),
    )


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


def is_zero_pairing(p: PairingValue) -> bool:
    """True iff the pairing value is zero in the matrix ring."""
    return p.is_zero()
