"""Fast nonzero certificates via an evaluation homomorphism.

Sending q, t to fixed units of Z/p (p prime) is a ring homomorphism from
Z[q^±1, t^±1], so a pairing value whose image is nonzero is exactly
certified nonzero.  The detectors use this as a screen: only candidates
whose image vanishes go on to the full exact evaluation, which alone
decides zero.  The evaluation points are fixed constants, so detection
output is deterministic; a nonzero value that happens to vanish at the
points only costs time, never correctness.

The screen runs the Fox sweeps of the homology module and the pairing sum
of the pairing module in the ring of matrices mod p, on the reductions of
the exact generator tables.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .homology import _tau_y, sweep_x, sweep_y
from .laurent import LaurentPoly
from .magnus import MagnusElement, _tau_letter
from .pairing import pairing_sum, t_element
from .words import FreeWord

P = (1 << 61) - 1
Q0 = 1234567891
T0 = 987654323


def poly_mod(p: LaurentPoly) -> int:
    total = 0
    for (a, b), c in p.terms():
        total = (total + c * pow(Q0, a, P) * pow(T0, b, P)) % P
    return total


class ModMatrix:
    """A square matrix over Z/P, the image of a Magnus element."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    @staticmethod
    def reduce(m: MagnusElement) -> ModMatrix:
        return ModMatrix(tuple(tuple(poly_mod(p) for p in row) for row in m.entries))

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(size: int) -> ModMatrix:
        return ModMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(size: int) -> ModMatrix:
        return ModMatrix(tuple((0,) * size for _ in range(size)))

    def __mul__(self, other: ModMatrix) -> ModMatrix:
        cols = tuple(zip(*other.rows))
        return ModMatrix(
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) % P for col in cols)
                for row in self.rows
            )
        )

    def __add__(self, other: ModMatrix) -> ModMatrix:
        return ModMatrix(
            tuple(
                tuple((x + y) % P for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: ModMatrix) -> ModMatrix:
        return ModMatrix(
            tuple(
                tuple((x - y) % P for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModMatrix):
            return NotImplemented
        return self.rows == other.rows


@lru_cache(maxsize=None)
def x_mod(n: int, j: int, sign: int) -> ModMatrix:
    return ModMatrix.reduce(_tau_letter(n, "x", j, sign))


@lru_cache(maxsize=None)
def y_mod(n: int, idx: int, sign: int) -> ModMatrix:
    return ModMatrix.reduce(_tau_y(n, idx, sign))


@lru_cache(maxsize=None)
def t_mod(n: int, i: int) -> ModMatrix:
    return ModMatrix.reduce(t_element(n, i))


def _screen(yloop: FreeWord, xloop: FreeWord) -> bool:
    n = yloop.n
    one, zero = ModMatrix.identity(n + 1), ModMatrix.zero(n + 1)
    ymats = sweep_y(yloop, one, zero, partial(y_mod, n))
    xmats = sweep_x(xloop, one, zero, partial(x_mod, n))
    return not pairing_sum(ymats, xmats, partial(t_mod, n), zero).is_zero()


def pairing_certainly_nonzero(yc, xc) -> bool:
    """True only when the pairing value is exactly nonzero.

    Classes that carry no loop word are not screened (False).
    """
    if yc.loop is None or xc.loop is None:
        return False
    return _screen(yc.loop, xc.loop)


def loop_pairing_certainly_nonzero(yloop: FreeWord, xloop: FreeWord) -> bool:
    """Screen <[yloop]_y, [xloop]_x> without building the classes at all."""
    return _screen(yloop, xloop)
