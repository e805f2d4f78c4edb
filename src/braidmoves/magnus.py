"""The Magnus representation of the group F_n ⋊ B_n over Z[q^±1, t^±1].

The group here, call it G_n, is the subgroup of the (n+1)-strand braid
group consisting of braids whose permutation fixes strand 0; it is the
semidirect product of F_n = <x_1 .. x_n> (strand 0 looping around the
punctures) with B_n = <sigma_1 .. sigma_{n-1}>.  G_n maps into the ring of
(n+1) x (n+1) matrices over Z[q^±1, t^±1], with t attached to strand 0
and q to strands 1..n.

rho sends the generators to:

* rho(sigma_i): identity except the 2x2 block at rows/cols (i, i+1),
  which is [[0, q], [1, 1-q]].

* rho(x_j): identity except
    row 0 = (q,  -(1-q)^2 at cols 1..j-1,  q(1-q) at col j,  0 after),
    row j = (1-t, (1-t)(1-q) at cols 1..j-1, 1-q+tq at col j, 0 after).

* rho(x_j)^-1: identity except
    row 0 = (1-t^-1+q^-1t^-1, (q^-1-2+q)t^-1 at cols 1..j-1, (q-1)t^-1 at col j, 0 after),
    row j = (q^-1(1-t^-1), (q^-1-1)(1-t^-1) at cols 1..j-1, t^-1 at col j, 0 after).

The (0, j) entry q(1-q) is forced: with it, det rho(x_j) = qt (a unit, so
x_j^-1 has the exact matrix above) and the defining relations
sigma_i x_j sigma_i^-1 = ... hold as matrix identities; flipping its sign
breaks both.  The relation suite in the tests certifies the whole family,
including the extension to every n.

The twist tau multiplies rho(G) by the scalar q^deg(G), where deg is the
exponent sum in the x-letters; so tau(sigma_i) = rho(sigma_i) while
tau(x_j) = q * rho(x_j).  tau extends multiplicatively over words and
Z-linearly over group-ring elements.  All pairing values live in the image
of tau.

tau of a word forms no matrix product: the identity's rows are pushed
through letter_right, the one cached table of tau of each letter, as the
sweeps push theirs; the pairing fold reads the same tables by source
(scattered).  MagnusElement.__mul__ is the general product of two
matrices.

The lower-right n x n blocks of tau on braid words are exactly the
unreduced Burau matrices.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence, Union

from .laurent import ONE, Q, T, ZERO, LaurentPoly
from .words import BraidWord, FreeWord, WordError

TABLES_KEPT = 64
"""The entries that each per-generator or per-strand-count cache of the
package keeps, least recently used first out: every key of B_3 .. B_5 (at
most 42 per cache) and room for more."""


class MagnusElement:
    """A square matrix over Z[q^±1, t^±1].

    Images of group elements have size n+1, rows/cols indexed 0..n.
    Immutable once constructed.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = tuple(tuple(row) for row in entries)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *args):
        raise AttributeError("MagnusElement is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(size: int) -> MagnusElement:
        rows = (
            tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size)
        )
        return MagnusElement(tuple(rows))

    @staticmethod
    def zero(size: int) -> MagnusElement:
        return MagnusElement(tuple(tuple(ZERO for _ in range(size)) for _ in range(size)))

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other: MagnusElement) -> MagnusElement:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        cols = list(zip(*other.entries))
        lives = ([(k, p) for k, p in enumerate(row) if p] for row in self.entries)
        return MagnusElement([[_dot(live, col) for col in cols] for live in lives])

    def __add__(self, other: MagnusElement) -> MagnusElement:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        pairs = zip(self.entries, other.entries)
        return MagnusElement([[a + b for a, b in zip(r1, r2)] for r1, r2 in pairs])

    def __neg__(self) -> MagnusElement:
        return MagnusElement(tuple(tuple(-p for p in row) for row in self.entries))

    def __sub__(self, other: MagnusElement) -> MagnusElement:
        return self + (-other)

    def scale(self, c: Union[int, LaurentPoly]) -> MagnusElement:
        return MagnusElement(tuple(tuple(p * c for p in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(not p for row in self.entries for p in row)

    def is_identity(self) -> bool:
        return self == MagnusElement.identity(self.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagnusElement):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def rows(self) -> Iterator[tuple[LaurentPoly, ...]]:
        return iter(self.entries)

    def to_json(self) -> list[list[list[list[int]]]]:
        return [[p.to_json() for p in row] for row in self.entries]

    @staticmethod
    def from_json(data) -> MagnusElement:
        return MagnusElement(
            tuple(tuple(LaurentPoly.from_json(p) for p in row) for row in data)
        )

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.entries)

    def __repr__(self) -> str:
        return f"MagnusElement(size={self.size})"


def _dot(live_row: list[tuple[int, LaurentPoly]], col: tuple[LaurentPoly, ...]) -> LaurentPoly:
    out: dict[tuple[int, int], int] = {}
    for k, p in live_row:
        c = col[k]
        if not c:
            continue
        cterms = c._terms
        for (a1, b1), c1 in p._terms.items():
            for (a2, b2), c2 in cterms.items():
                key = (a1 + a2, b1 + b2)
                w = out.get(key, 0) + c1 * c2
                if w:
                    out[key] = w
                else:
                    del out[key]
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = out
    return poly


# -- sparse generator tables ----------------------------------------------
#
# A matrix acting on flat columns on the left, kept as a table of its rows:
# an itemgetter that copies entry k of the column for each row that is ONE
# at k and zero elsewhere, and the (c, ((k, g), ...)) nonzero entries of
# every other row c.  The block representation (krammer), the sweeps (on
# RowMatrix rows) and the mod-p screen (modcheck) keep every generator
# image in this one format.  A table is built once, from exact entries, and
# map_table carries it to another ring or form (entries mod p, norm
# bounds), entry by entry.  scattered reads a table by source entry
# instead: what each entry k of the vector feeds, the form in which the
# pairing fold (pairing.letter_scatter) pushes the terms of one packed map
# through tau of a letter.


def row_table(rows) -> tuple:
    """The table of the matrix with these rows (exact entries)."""
    return sparse_row_table(tuple((k, g) for k, g in enumerate(line) if g) for line in rows)


def sparse_row_table(lives) -> tuple:
    """The table of the matrix whose rows have these nonzero (k, g)
    entries, in increasing k: row_table without the scan for zeros."""
    copy, dense = [], []
    for c, live in enumerate(lives):
        if len(live) == 1 and live[0][1] == ONE:
            copy.append(live[0][0])
        else:
            copy.append(c)  # overwritten by the dense entry
            dense.append((c, live))
    return itemgetter(*copy), tuple(dense)


def map_table(table, f) -> tuple:
    """The table with f applied to each entry of its computed rows; the
    copied rows stay as they are."""
    copy, dense = table
    return copy, tuple((c, tuple((k, f(g)) for k, g in live)) for c, live in dense)


def scattered(table, size: int) -> list:
    """The table read by source: for each entry k of a flat vector of this
    size, the (c, g) with which it feeds entry c of the image, so that the
    image is the sum of g * vec[k] placed at c."""
    copy, dense = table
    computed = {c for c, _ in dense}
    feeds = [[] for _ in range(size)]
    for c, k in enumerate(copy(tuple(range(size)))):
        if c not in computed:
            feeds[k].append((c, ONE))
    for c, live in dense:
        for k, g in live:
            feeds[k].append((c, g))
    return feeds


def apply_table(table, vec, dot) -> list:
    """The table times the flat column vec, in any ring: dot(entries, vec)
    is the sum of g * vec[k] over the (k, g) entries of a row."""
    copy, dense = table
    new = list(copy(vec))
    for c, live in dense:
        new[c] = dot(live, vec)
    return new


def transposed_table(m: MagnusElement) -> tuple:
    """The table of the transpose of m: applied to a row r of flat entries
    as if it were a column, it gives the row r m."""
    return row_table(zip(*m.entries))


class RowMatrix:
    """A square matrix over Z[q^±1, t^±1] kept as the list of its rows, for
    sweeps that multiply it by generator images one sparse step at a time.

    Multiplying by a table, on either side, pushes each nonzero row through
    it with apply_table; no matrix product is formed.  With the
    transposed_table of an image G, m * table is m G.  A sweep that
    multiplies on the left holds the transpose instead: with the row_table
    of G, table * m applied to the rows of A^T gives the rows of (G A)^T.
    Sums and differences go row by row; element() gives the MagnusElement.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[LaurentPoly]]):
        self.rows = rows

    @staticmethod
    def identity(size: int) -> RowMatrix:
        return RowMatrix([[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    @staticmethod
    def zero(size: int) -> RowMatrix:
        return RowMatrix([[ZERO] * size for _ in range(size)])

    def __mul__(self, table) -> RowMatrix:
        # _dot is looked up per call: perfbench's counting pass replaces it
        return RowMatrix([apply_table(table, r, _dot) if any(r) else r for r in self.rows])

    __rmul__ = __mul__

    def __add__(self, other: RowMatrix) -> RowMatrix:
        return RowMatrix(
            [[a + b if b else a for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: RowMatrix) -> RowMatrix:
        return RowMatrix(
            [[a - b if b else a for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def element(self) -> MagnusElement:
        return MagnusElement(self.rows)

    def transposed_element(self) -> MagnusElement:
        """The MagnusElement whose columns are these rows."""
        return MagnusElement(tuple(zip(*self.rows)))


# -- generator matrices -------------------------------------------------

_ONE_MINUS_Q = ONE - Q
_ONE_MINUS_T = ONE - T
_QINV = LaurentPoly.monomial(-1, 0)
_TINV = LaurentPoly.monomial(0, -1)


def rho_sigma(n: int, i: int, sign: int = 1) -> MagnusElement:
    """rho of sigma_i^sign in G_n, an (n+1) x (n+1) matrix."""
    if not 1 <= i <= n - 1:
        raise WordError(f"sigma_{i} out of range 1..{n - 1}")
    rows = RowMatrix.identity(n + 1).rows
    if sign == 1:
        rows[i][i : i + 2], rows[i + 1][i : i + 2] = (ZERO, Q), (ONE, _ONE_MINUS_Q)
    else:
        rows[i][i : i + 2], rows[i + 1][i : i + 2] = (ONE - _QINV, ONE), (_QINV, ZERO)
    return MagnusElement(rows)


def rho_x(n: int, j: int, sign: int = 1) -> MagnusElement:
    """rho of x_j^sign in G_n, an (n+1) x (n+1) matrix: the identity but
    for rows 0 and j, written out for both signs."""
    if not 1 <= j <= n:
        raise WordError(f"x{j} out of range 1..{n}")
    if sign == 1:
        row0 = (Q, -(_ONE_MINUS_Q * _ONE_MINUS_Q), Q * _ONE_MINUS_Q)
        rowj = (_ONE_MINUS_T, _ONE_MINUS_T * _ONE_MINUS_Q, ONE - Q + T * Q)
    else:
        row0 = (ONE - _TINV + _QINV * _TINV, (_QINV + Q - ONE - ONE) * _TINV, (Q - ONE) * _TINV)
        rowj = (_QINV * (ONE - _TINV), (_QINV - ONE) * (ONE - _TINV), _TINV)
    rows = RowMatrix.identity(n + 1).rows
    for r, (first, middle, last) in ((0, row0), (j, rowj)):
        rows[r] = [first, *[middle] * (j - 1), last, *[ZERO] * (n - j)]
    return MagnusElement(rows)


def _tau_letter(n: int, kind: str, index: int, sign: int) -> MagnusElement:
    if kind == "sigma":
        return rho_sigma(n, index, sign)
    return rho_x(n, index, sign).scale(LaurentPoly.monomial(sign, 0))


@lru_cache(maxsize=TABLES_KEPT)
def letter_right(n: int, kind: str, index: int, sign: int) -> tuple:
    """r -> r tau(l) on flat rows, for the letter l = sigma_index^sign
    (kind "sigma") or x_index^sign (kind "x"): the one table per letter."""
    return transposed_table(_tau_letter(n, kind, index, sign))


WordLike = Union[BraidWord, FreeWord]


def _pieces(pieces: Union[WordLike, Iterable[WordLike]]) -> list:
    """The words of a word or a sequence, all on one count: another piece
    raises TypeError, and words on two counts WordError."""
    pieces = [pieces] if isinstance(pieces, (BraidWord, FreeWord)) else list(pieces)
    for piece in pieces:
        if not isinstance(piece, (BraidWord, FreeWord)):
            raise TypeError(f"a piece must be a word, not a {type(piece).__name__}")
        if piece.n != pieces[0].n:
            raise WordError(f"strand count mismatch: {pieces[0].n} vs {piece.n}")
    return pieces


def deg(pieces: Union[WordLike, Iterable[WordLike]]) -> int:
    """Exponent sum in the x-letters; braid letters contribute 0."""
    return sum(piece.exponent_sum() for piece in _pieces(pieces) if isinstance(piece, FreeWord))


@lru_cache(maxsize=1 << 15)
def _tau_word(piece: WordLike) -> MagnusElement:
    n = piece.n
    kind = "sigma" if isinstance(piece, BraidWord) else "x"
    acc = RowMatrix.identity(n + 1)
    for idx, sign in piece.letters:
        acc = acc * letter_right(n, kind, idx, sign)
    return acc.element()


def tau(arg, n: int | None = None) -> MagnusElement:
    """tau of a braid word, a free word, a sequence of such pieces, or a
    group-ring element (extended Z-linearly).

    Products of mixed sequences are taken left to right.  n is only needed
    to size the identity when the input is an empty sequence.
    """
    if isinstance(arg, (BraidWord, FreeWord)):
        return _tau_word(arg)
    if hasattr(arg, "tau_terms"):  # GroupRingElement-like
        acc = MagnusElement.zero(arg.n + 1)
        for word, coeff in arg.tau_terms():
            acc = acc + _tau_word(word).scale(coeff)
        return acc
    pieces = _pieces(arg)
    if not pieces and n is None:
        raise ValueError("tau of an empty sequence needs an explicit n")
    return reduce(mul, map(_tau_word, pieces)) if pieces else MagnusElement.identity(n + 1)


def burau_block(m: MagnusElement) -> MagnusElement:
    """Lower-right n x n submatrix (rows/cols 1..n): on tau of a braid word,
    the unreduced Burau matrix."""
    return MagnusElement(tuple(row[1:] for row in m.entries[1:]))


def unreduced_burau(b: BraidWord) -> MagnusElement:
    """The unreduced Burau matrix of a braid word, computed via tau."""
    return burau_block(_tau_word(b))
