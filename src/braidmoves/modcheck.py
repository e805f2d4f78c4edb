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
come from the Fox sweeps of the homology module run over the probe
vectors instead of the identity matrix, on the reductions of the exact
generator tables; the pairing module's sum adds the terms.  Each vector
update costs O(n^2), not the O(n^3) of a matrix product.

The y-side vectors depend only on the y-loop and the x-side vectors only
on the x-loop.  A detection scan passes one dict as memo to every screen
it runs, so each loop is swept once per scan; the dict lives as long as
the scan, and every scan starts cold.

The word problem uses the same points and probes (probe_vectors, dot_mod):
krammer.is_identity pushes a probe column of length n(n+1) through the
sparse generator tables of the block representation reduced mod P, one
O(n^2)-sized update per letter, and u^T M v != u^T v certifies that the
braid is nontrivial before any exact product is formed.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import mul

from .homology import _tau_y, sweep_x, sweep_y
from .laurent import LaurentPoly
from .magnus import MagnusElement, _tau_letter
from .pairing import pairing_sum, t_element
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


class ModMatrix:
    """A matrix over Z/P: the image of a Magnus element, or a probe vector
    (one row or one column)."""

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
    def zero(rows: int, cols: int) -> ModMatrix:
        return ModMatrix(((0,) * cols,) * rows)

    def __mul__(self, other: ModMatrix) -> ModMatrix:
        cols = tuple(zip(*other.rows))
        return ModMatrix(
            tuple(
                tuple(sum(map(mul, row, col)) % P for col in cols)
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


@lru_cache(maxsize=None)
def probe_vectors(size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The probe entries u_k = U0^k and v_k = V0^k mod P, k = 1..size, all
    nonzero."""
    return (
        tuple(pow(U0, k, P) for k in range(1, size + 1)),
        tuple(pow(V0, k, P) for k in range(1, size + 1)),
    )


def _probes(size: int) -> tuple[ModMatrix, ModMatrix]:
    """The probe row u and the probe column v as matrices."""
    u, v = probe_vectors(size)
    return ModMatrix((u,)), ModMatrix(tuple((x,) for x in v))


def dot_mod(live, vec) -> int:
    """The sum of g * vec[k] over the (k, g) pairs of live, mod P."""
    return sum(g * vec[k] for k, g in live) % P


def _screen(yloop: FreeWord, xloop: FreeWord, memo: dict | None = None) -> bool:
    """u^T S v != 0 for the image S of <[yloop]_y, [xloop]_x> mod P."""
    n = yloop.n
    u, v = _probes(n + 1)
    memo = {} if memo is None else memo
    ykey, xkey = ("y", yloop), ("x", xloop)
    if ykey not in memo:
        memo[ykey] = sweep_y(yloop, u, ModMatrix.zero(1, n + 1), partial(y_mod, n))
    if xkey not in memo:
        memo[xkey] = sweep_x(xloop, v, ModMatrix.zero(n + 1, 1), partial(x_mod, n))
    value = pairing_sum(memo[ykey], memo[xkey], partial(t_mod, n), ModMatrix.zero(1, 1))
    return not value.is_zero()


def pairing_certainly_nonzero(yc, xc) -> bool:
    """True only when the pairing value is exactly nonzero.

    Classes that carry no loop word are not screened (False).
    """
    if yc.loop is None or xc.loop is None:
        return False
    return _screen(yc.loop, xc.loop)


def loop_pairing_certainly_nonzero(
    yloop: FreeWord, xloop: FreeWord, memo: dict | None = None
) -> bool:
    """Screen <[yloop]_y, [xloop]_x> without building the classes at all.

    memo, when given, keeps the probed sweep of each loop for later calls
    with the same dict; the answer does not depend on it.
    """
    return _screen(yloop, xloop, memo)
