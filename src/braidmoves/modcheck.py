"""Fast nonzero certificates via an evaluation homomorphism and a probe.

Sending q, t to fixed units of Z/p (p prime) is a ring homomorphism from
Z[q^±1, t^±1], so a pairing value whose image is nonzero is exactly
certified nonzero.  The detectors use this as a screen: only candidates
whose image vanishes go on to the full exact evaluation, which alone
decides zero.  The evaluation points are fixed constants, so detection
output is deterministic; a nonzero value that happens to vanish at the
points only costs time, never correctness.

The screen does not form the (n+1)x(n+1) image S of the pairing value.
It forms the scalar u^T S v for a fixed probe row u and probe column v
(a Freivalds-style check): u^T S v != 0 implies S != 0 mod p, which
implies the exact value is nonzero.  A nonzero S that the probe misses
only goes on to the exact decision.  Since S = sum_i C_i T_i M_i, the
scalar is sum_i (u^T C_i) T_i (M_i v), and the vectors u^T C_i and M_i v
come from the Fox sweeps of the homology module run over flat probe
vectors (ModVector) instead of the identity matrix.  y_row stacks the
rows u^T C_i T_i and x_column the columns M_i v into flat vectors of
length n(n+1), so the scalar is one flat dot of the two; detection pushes
the column through the block image of a braid before the dot (see the
detect module).  The row of a one-letter loop x_j^sign is a constant of
the screen: letter_y_row keeps it per (n, j, sign), built on first use by
the same sweep and held as a tuple, and y_row returns a copy of it.
Every generator image acts on those vectors through the one sparse
table format of the block representation
(magnus.row_table, magnus.apply_table), reduced mod P: x_mod acts on
columns, and y_mod and t_mod, which act on rows, are built from the
transposed images.  All three are the exact tables of the pairing fold
(homology.x_left, homology.y_right, pairing.t_right) with poly_mod
applied to each entry by magnus.map_table, so each table has one
builder.  Each vector update costs at most O(n^2), not the O(n^3) of a
matrix product.

The word problem uses the same points, probes and reduction (probe_vectors,
poly_mod, dot_mod): krammer.is_identity pushes a probe column of
length n(n+1) through the block generator tables reduced mod P, one
O(n^2)-sized update per letter, and u^T M v != u^T v certifies that the
braid is nontrivial before any exact product is formed.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from operator import mul

from .homology import sweep_x, sweep_y, x_left, y_right
from .laurent import LaurentPoly
from .magnus import apply_table, map_table
from .pairing import t_right
from .words import FreeWord

P = (1 << 61) - 1
Q0 = 1234567891
T0 = 987654323
U0 = 0x2545F4914F6CDD1D % P  # ratios of the probe entries, unrelated to Q0, T0
V0 = 0x9E3779B97F4A7C15 % P


def poly_mod(p: LaurentPoly) -> int:
    total = 0
    for (a, b), c in p.terms():
        total = (total + c * pow(Q0, a, P) * pow(T0, b, P)) % P
    return total


# x acts on columns, y and t on rows: each is the exact table of the pairing
# fold (homology.x_left, homology.y_right, pairing.t_right), reduced mod P


@lru_cache(maxsize=None)
def x_mod(n: int, j: int, sign: int) -> tuple:
    return map_table(x_left(n, j, sign), poly_mod)


@lru_cache(maxsize=None)
def y_mod(n: int, idx: int, sign: int) -> tuple:
    return map_table(y_right(n, idx, sign), poly_mod)


@lru_cache(maxsize=None)
def t_mod(n: int, i: int) -> tuple:
    return map_table(t_right(n, i), poly_mod)


@lru_cache(maxsize=None)
def probe_vectors(size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The probe entries u_k = U0^k and v_k = V0^k mod P, k = 1..size, all
    nonzero."""
    return (
        tuple(pow(U0, k, P) for k in range(1, size + 1)),
        tuple(pow(V0, k, P) for k in range(1, size + 1)),
    )


def dot_mod(live, vec) -> int:
    """The sum of g * vec[k] over the (k, g) pairs of live, mod P."""
    total = 0
    for k, g in live:
        total += g * vec[k]
    return total % P


class ModVector(list):
    """A flat vector over Z/P, a row or a column of the screen.

    A table of x_mod, y_mod or t_mod acts on it from the side it was built
    for (table * column, row * table), and row * column is the scalar
    product.
    """

    __slots__ = ()

    def __add__(self, other: ModVector) -> ModVector:
        return ModVector([(x + y) % P for x, y in zip(self, other)])

    def __sub__(self, other: ModVector) -> ModVector:
        return ModVector([(x - y) % P for x, y in zip(self, other)])

    def __mul__(self, other):
        if isinstance(other, ModVector):
            return sum(map(mul, self, other)) % P
        return ModVector(apply_table(other, self, dot_mod))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self)


def x_column(xloop: FreeWord) -> ModVector:
    """The flat column X of [xloop]_x: block i is M_i v, for the components
    M_i of the class and the probe column v, n(n+1) entries in all."""
    n = xloop.n
    zero = ModVector([0] * (n + 1))
    comps = sweep_x(xloop, ModVector(probe_vectors(n + 1)[1]), zero, partial(x_mod, n))
    return ModVector(chain.from_iterable(comps))


def y_row(yloop: FreeWord) -> ModVector:
    """The flat row Y of [yloop]_y with t_i applied: block i is u^T C_i t_i,
    for the components C_i of the class and the probe row u, so that Y X is
    u^T S v for the value S of <[yloop]_y, [xloop]_x> and X = x_column(xloop).
    The row of a one-letter loop is a fresh copy of letter_y_row."""
    if len(yloop) == 1:
        ((j, sign),) = yloop.letters
        return ModVector(letter_y_row(yloop.n, j, sign))
    return _swept_y_row(yloop)


@lru_cache(maxsize=None)
def letter_y_row(n: int, j: int, sign: int) -> tuple[int, ...]:
    """The row Y of the loop x_j^sign, a constant of the screen, swept once."""
    return tuple(_swept_y_row(FreeWord.generator(n, j, sign)))


def _swept_y_row(yloop: FreeWord) -> ModVector:
    """The row Y of y_row by one sweep of the y-loop."""
    n = yloop.n
    zero = ModVector([0] * (n + 1))
    comps = sweep_y(yloop, ModVector(probe_vectors(n + 1)[0]), zero, partial(y_mod, n))
    return ModVector(
        chain.from_iterable(
            c if c.is_zero() else c * t_mod(n, i) for i, c in enumerate(comps, start=1)
        )
    )


def _screen(yloop: FreeWord, xloop: FreeWord) -> bool:
    """u^T S v != 0 for the image S of <[yloop]_y, [xloop]_x> mod P."""
    return y_row(yloop) * x_column(xloop) != 0


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
