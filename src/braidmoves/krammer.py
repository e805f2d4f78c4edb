"""The augmented representation of B_n by n x n block matrices.

Each block is an (n+1) x (n+1) matrix over Z[q^±1, t^±1] (a Magnus
element), so for B_4 the total rank is 4 x 5 = 20; for general n it is
n(n+1).  This size-n(n+1) representation contains the Lawrence-Krammer
representation and is faithful, so comparing against the block identity
decides the word problem.

The image of a braid beta is the matrix (r_ij) defined by

    beta . e_j = e_1 r_1j + ... + e_n r_nj,

where the left action on the basis is, for a generator sigma_i,

    sigma_i e_j = e_j tau(sigma_i)                                j != i, i+1
    sigma_i e_i = e_{i+1} tau(sigma_i)
    sigma_i e_{i+1} = e_i tau(sigma_i x_i)
                      + e_{i+1} tau(sigma_i)(1 - tau(x_{i+1})).

Words map to products of generator images.  This route never touches Fox
calculus; its agreement with the free-group route (tau of the components
of [beta(x_j)]_x equals column j times tau(beta)^-1 blockwise) is one of
the cross-validation invariants in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .magnus import MagnusElement, tau
from .words import BraidWord, FreeWord, WordError


class BlockMatrix:
    """An n x n grid of (n+1) x (n+1) Magnus elements."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Sequence[Sequence[MagnusElement]]):
        grid = tuple(tuple(row) for row in blocks)
        if len(grid) != n or any(len(row) != n for row in grid):
            raise ValueError(f"expected an {n} x {n} block grid")
        for row in grid:
            for b in row:
                if b.size != n + 1:
                    raise ValueError(f"blocks must have size {n + 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", grid)

    def __setattr__(self, *args):
        raise AttributeError("BlockMatrix is immutable")

    @staticmethod
    def identity(n: int) -> BlockMatrix:
        one = MagnusElement.identity(n + 1)
        zero = MagnusElement.zero(n + 1)
        return BlockMatrix(
            n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    def block(self, i: int, j: int) -> MagnusElement:
        """Block (i, j), 1-based."""
        return self.blocks[i - 1][j - 1]

    def __mul__(self, other: BlockMatrix) -> BlockMatrix:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("block size mismatch")
        n = self.n
        zero = MagnusElement.zero(n + 1)
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = zero
                for k in range(n):
                    a = self.blocks[r][k]
                    if a.is_zero():
                        continue
                    b = other.blocks[k][c]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return BlockMatrix(n, tuple(out))

    def apply_to_column(self, col: Sequence[MagnusElement]) -> tuple[MagnusElement, ...]:
        """Matrix times a block column vector."""
        n = self.n
        zero = MagnusElement.zero(n + 1)
        out = []
        for r in range(n):
            acc = zero
            for k in range(n):
                a = self.blocks[r][k]
                if a.is_zero() or col[k].is_zero():
                    continue
                acc = acc + a * col[k]
            out.append(acc)
        return tuple(out)

    def column(self, j: int) -> tuple[MagnusElement, ...]:
        """Column j as a block vector, 1-based."""
        return tuple(self.blocks[r][j - 1] for r in range(self.n))

    def is_identity(self) -> bool:
        return self == BlockMatrix.identity(self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def to_json(self):
        return [[b.to_json() for b in row] for row in self.blocks]

    def __repr__(self) -> str:
        return f"BlockMatrix(n={self.n})"


@lru_cache(maxsize=None)
def tau_plus_generator(n: int, i: int, sign: int = 1) -> BlockMatrix:
    """The block matrix of sigma_i^sign acting on e_1 .. e_n."""
    if not 1 <= i <= n - 1:
        raise WordError(f"sigma_{i} out of range 1..{n - 1}")
    ts = tau(BraidWord.generator(n, i, sign))
    one = MagnusElement.identity(n + 1)
    zero = MagnusElement.zero(n + 1)
    rows = [[ts if r == c else zero for c in range(n)] for r in range(n)]
    a, b = i - 1, i  # 0-based block indices for basis elements e_i, e_{i+1}
    if sign == 1:
        txj = tau(FreeWord.generator(n, i + 1))
        rows[a][a] = zero
        rows[a][b] = ts * tau(FreeWord.generator(n, i))
        rows[b][a] = ts
        rows[b][b] = ts * (one - txj)
    else:
        back = tau(FreeWord.generator(n, i, -1)) * ts  # tau(x_i^-1 sigma_i^-1)
        txj = tau(FreeWord.generator(n, i + 1))
        rows[a][a] = -(one - txj) * back
        rows[a][b] = ts
        rows[b][a] = back
        rows[b][b] = zero
    return BlockMatrix(n, tuple(tuple(r) for r in rows))


def tau_plus(b: BraidWord) -> BlockMatrix:
    """The block matrix of a braid word (product of generator images)."""
    acc = BlockMatrix.identity(b.n)
    for i, sign in b.letters:
        acc = acc * tau_plus_generator(b.n, i, sign)
    return acc


def tau_plus_act(b: BraidWord, col: Sequence[MagnusElement]) -> tuple[MagnusElement, ...]:
    """The block matrix of b times a block column, one generator at a time
    (rightmost letter first), without forming the full product."""
    col = tuple(col)
    for i, sign in reversed(b.letters):
        col = tau_plus_generator(b.n, i, sign).apply_to_column(col)
    return col


def tau_plus_column(b: BraidWord, j: int) -> tuple[MagnusElement, ...]:
    """Column j of the block matrix of b: tau_plus_act on the basis column e_j."""
    n = b.n
    if not 1 <= j <= n:
        raise WordError(f"column {j} out of range 1..{n}")
    zero = MagnusElement.zero(n + 1)
    col = tuple(
        MagnusElement.identity(n + 1) if k == j - 1 else zero for k in range(n)
    )
    return tau_plus_act(b, col)


def entry(b: BraidWord, i: int, j: int) -> MagnusElement:
    """The block r_ij of the image of b (1-based)."""
    n = b.n
    if not 1 <= i <= n:
        raise WordError(f"row {i} out of range 1..{n}")
    return tau_plus_column(b, j)[i - 1]


def is_identity(b: BraidWord) -> bool:
    """Decide triviality of b in B_n (the representation is faithful)."""
    return tau_plus(b).is_identity()
