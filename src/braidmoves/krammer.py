"""The augmented representation of B_n by n x n block matrices.

Each block is an (n+1) x (n+1) matrix over Z[q^±1, t^±1] (a Magnus
element), so for B_4 the total rank is 4 x 5 = 20; for general n it is
n(n+1).  This size-n(n+1) representation contains the Lawrence-Krammer
representation and is faithful, so comparing against the block identity
decides the word problem; is_identity keeps that comparison as its
fallback (see the end of this docstring).

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

The products do not multiply blocks.  Each generator image is flattened
to an n(n+1) x n(n+1) matrix and kept as a table of its rows, in the one
sparse format that the mod-p screen uses too (magnus.row_table): a row
whose only nonzero entry is one is a copy of one entry of the column it
acts on, and every other row keeps its nonzero entries.  _push runs flat
columns through these tables, rightmost letter first, one
magnus.apply_table step per letter, in any ring given the ring's dot
product: tau_plus_act pushes the n+1 flat columns of a block column,
tau_plus assembles the matrix from its n block columns, and the identity
screen pushes a probe column through the tables reduced mod P.  The
tables are built on first use, once per (n, i, sign).
BlockMatrix.__mul__, the generic block product, stays as the reference
the tests hold them to.

is_identity screens first: with the evaluation points and probe vectors
of the modcheck module, u^T M v != u^T v mod P for the image M of b
proves M != I, so b is nontrivial.  A braid the screen does not certify
is decided by Artin's action on the free group F_n, which is faithful
too (Artin 1925): b = 1 exactly when b(x_k) = x_k for k = 1 .. n.  The
action runs rightmost letter first and stops at the first x_k that is
not fixed.  The screen must come first: nontrivial words can blow up
under the action, while the trivial ones that reach it stay short.  Only
when an intermediate word outgrows ACTION_LETTER_BUDGET is the block
matrix multiplied out exactly.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

from . import magnus
from .magnus import MagnusElement, apply_table, row_table, tau
from .modcheck import P, dot_mod, probe_vectors, reduce_table
from .words import BraidWord, FreeWord, WordError, act_letters


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


# -- the sparse action (see the module docstring) --------------------------


@lru_cache(maxsize=None)
def _rows(n: int, i: int, sign: int) -> tuple:
    """The table of sigma_i^sign acting on a flat column on the left; flat
    row r(n+1) + a holds row a of the blocks in block row r."""
    blocks = tau_plus_generator(n, i, sign).blocks
    return row_table(
        [p for block in brow for p in block.entries[a]]
        for brow in blocks
        for a in range(n + 1)
    )


@lru_cache(maxsize=None)
def _rows_mod(n: int, i: int, sign: int) -> tuple:
    """_rows(n, i, sign) reduced mod P."""
    return reduce_table(_rows(n, i, sign))


def _push(b: BraidWord, vecs: list, tables, dot) -> list:
    """Flat columns through the image of b, rightmost letter first, in any
    ring: tables(n, i, sign) gives the generator tables, and dot the ring's
    dot product (see magnus.apply_table)."""
    n = b.n
    for i, sign in reversed(b.letters):
        table = tables(n, i, sign)
        vecs = [apply_table(table, vec, dot) for vec in vecs]
    return vecs


def tau_plus(b: BraidWord) -> BlockMatrix:
    """The block matrix of a braid word (product of generator images),
    assembled from its block columns."""
    columns = [tau_plus_column(b, j) for j in range(1, b.n + 1)]
    return BlockMatrix(b.n, tuple(zip(*columns)))


def tau_plus_act(b: BraidWord, col: Sequence[MagnusElement]) -> tuple[MagnusElement, ...]:
    """The block matrix of b times a block column, one generator at a time
    (rightmost letter first), without forming the full product."""
    m = b.n + 1
    col = tuple(col)
    # the block column as m flat columns of length n(n+1)
    vecs = [[blk.entries[a][c] for blk in col for a in range(m)] for c in range(m)]
    # magnus._dot is looked up per call: perfbench's counting pass replaces it
    vecs = _push(b, vecs, _rows, magnus._dot)
    return tuple(
        MagnusElement(tuple(tuple(v[k * m + a] for v in vecs) for a in range(m)))
        for k in range(b.n)
    )


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


def certainly_not_identity(b: BraidWord) -> bool:
    """True only when b is exactly nontrivial in B_n.

    Pushes the probe column v through the generator tables mod P and tests
    u^T M v != u^T v for the image M of b: then M != I mod P, so M != I.
    False says nothing.
    """
    n = b.n
    u, v = probe_vectors(n * (n + 1))
    (mv,) = _push(b, [v], _rows_mod, dot_mod)
    return sum(map(mul, u, mv)) % P != sum(map(mul, u, v)) % P


ACTION_LETTER_BUDGET = 4096
"""The longest intermediate word that is_identity lets the action on
x_1 .. x_n build before it falls back to the block matrix."""


def _fixes_generators(b: BraidWord) -> bool | None:
    """Whether b(x_k) = x_k for k = 1 .. n, or None once an intermediate
    word grows past ACTION_LETTER_BUDGET letters."""
    for k in range(1, b.n + 1):
        x = letters = ((k, 1),)
        for letters in act_letters(b, x):
            if len(letters) > ACTION_LETTER_BUDGET:
                return None
        if letters != x:
            return False
    return True


def is_identity(b: BraidWord) -> bool:
    """Decide triviality of b in B_n.

    The mod-P screen answers False for every braid it certifies.  The rest
    are decided by Artin's action on F_n, which is faithful: b = 1 exactly
    when b fixes every x_k.  Only when the action outgrows its letter
    budget is the exact block matrix compared with the identity.
    """
    if certainly_not_identity(b):
        return False
    fixed = _fixes_generators(b)
    if fixed is not None:
        return fixed
    return tau_plus(b).is_identity()
