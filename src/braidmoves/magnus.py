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

The (0, j) entry q(1-q) is forced: with it, det rho(x_j) = qt (a unit, so
x_j^-1 has an exact matrix) and the defining relations
sigma_i x_j sigma_i^-1 = ... hold as matrix identities; flipping its sign
breaks both.  The relation suite in the tests certifies the whole family,
including the extension to every n.

The twist tau multiplies rho(G) by the scalar q^deg(G), where deg is the
exponent sum in the x-letters; so tau(sigma_i) = rho(sigma_i) while
tau(x_j) = q * rho(x_j).  tau extends multiplicatively over words and
Z-linearly over group-ring elements.  All pairing values live in the image
of tau.

The lower-right n x n blocks of tau on braid words are exactly the
unreduced Burau matrices.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from .laurent import ONE, Q, T, ZERO, LaurentPoly
from .words import BraidWord, FreeWord, WordError


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
        return MagnusElement(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(size))
                for i in range(size)
            )
        )

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
        m = self.size
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            live = [(k, p) for k, p in enumerate(row) if p]
            out.append(
                tuple(
                    _dot(live, col)
                    for col in cols
                )
            )
        return MagnusElement(tuple(out))

    def __add__(self, other: MagnusElement) -> MagnusElement:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return MagnusElement(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

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
# every other row c.  The block representation (krammer), the exact
# pairing fold (pairing, on RowMatrix rows) and the mod-p screen
# (modcheck) keep every generator image in this one format.  A table is
# built once, from exact entries, and map_table carries it to another ring
# or form (entries mod p, norm bounds, packed shifts), entry by entry.


def row_table(rows) -> tuple:
    """The table of the matrix with these rows (exact entries)."""
    copy, dense = [], []
    for c, line in enumerate(rows):
        live = tuple((k, g) for k, g in enumerate(line) if g)
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


@lru_cache(maxsize=None)
def rho_sigma(n: int, i: int, sign: int = 1) -> MagnusElement:
    """rho of sigma_i^sign in G_n, an (n+1) x (n+1) matrix."""
    if not 1 <= i <= n - 1:
        raise WordError(f"sigma_{i} out of range 1..{n - 1}")
    rows = [[ONE if r == c else ZERO for c in range(n + 1)] for r in range(n + 1)]
    if sign == 1:
        rows[i][i], rows[i][i + 1] = ZERO, Q
        rows[i + 1][i], rows[i + 1][i + 1] = ONE, _ONE_MINUS_Q
    else:
        qinv = LaurentPoly.monomial(-1, 0)
        rows[i][i], rows[i][i + 1] = ONE - qinv, ONE
        rows[i + 1][i], rows[i + 1][i + 1] = qinv, ZERO
    return MagnusElement(tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def rho_x(n: int, j: int, sign: int = 1) -> MagnusElement:
    """rho of x_j^sign in G_n, an (n+1) x (n+1) matrix."""
    if not 1 <= j <= n:
        raise WordError(f"x{j} out of range 1..{n}")
    if sign == -1:
        return _invert_x_matrix(rho_x(n, j, 1), j)
    rows = [[ONE if r == c else ZERO for c in range(n + 1)] for r in range(n + 1)]
    row0 = [ZERO] * (n + 1)
    row0[0] = Q
    for c in range(1, j):
        row0[c] = -(_ONE_MINUS_Q * _ONE_MINUS_Q)
    row0[j] = Q * _ONE_MINUS_Q
    rowj = [ZERO] * (n + 1)
    rowj[0] = _ONE_MINUS_T
    for c in range(1, j):
        rowj[c] = _ONE_MINUS_T * _ONE_MINUS_Q
    rowj[j] = ONE - Q + T * Q
    rows[0] = row0
    rows[j] = rowj
    return MagnusElement(tuple(tuple(r) for r in rows))


def _invert_x_matrix(m: MagnusElement, j: int) -> MagnusElement:
    # m = I + e_0 u^T + e_j v^T differs from the identity in rows 0 and j
    # only, so its inverse has the same shape:  m^-1 = I - [e_0 e_j] K [u; v]
    # with K the inverse of the 2x2 core [[m00, m0j], [mj0, mjj]], whose
    # determinant is the unit qt.
    size = m.size
    u = [m[0, c] - (ONE if c == 0 else ZERO) for c in range(size)]
    v = [m[j, c] - (ONE if c == j else ZERO) for c in range(size)]
    det = m[0, 0] * m[j, j] - m[0, j] * m[j, 0]
    terms = list(det.terms())
    if len(terms) != 1 or abs(terms[0][1]) != 1:
        raise ValueError("core determinant is not a unit monomial")
    (a, b), c = terms[0]
    inv_det = LaurentPoly.monomial(-a, -b, c)
    k00 = m[j, j] * inv_det
    k01 = -m[0, j] * inv_det
    k10 = -m[j, 0] * inv_det
    k11 = m[0, 0] * inv_det
    rows = [[ONE if r == c else ZERO for c in range(size)] for r in range(size)]
    for c in range(size):
        corr0 = k00 * u[c] + k01 * v[c]
        corrj = k10 * u[c] + k11 * v[c]
        if corr0:
            rows[0][c] = rows[0][c] - corr0
        if corrj:
            rows[j][c] = rows[j][c] - corrj
    return MagnusElement(tuple(tuple(r) for r in rows))


def rho_generator(n: int, kind: str, index: int, sign: int = 1) -> MagnusElement:
    """rho of a single generator; kind is "sigma" or "x"."""
    if kind == "sigma":
        return rho_sigma(n, index, sign)
    if kind == "x":
        return rho_x(n, index, sign)
    raise WordError(f"unknown generator kind {kind!r}")


@lru_cache(maxsize=None)
def _tau_letter(n: int, kind: str, index: int, sign: int) -> MagnusElement:
    if kind == "sigma":
        return rho_sigma(n, index, sign)
    return rho_x(n, index, sign).scale(LaurentPoly.monomial(sign, 0))


WordLike = Union[BraidWord, FreeWord]


def deg(pieces: Union[WordLike, Iterable[WordLike]]) -> int:
    """Exponent sum in the x-letters; braid letters contribute 0."""
    if isinstance(pieces, (BraidWord, FreeWord)):
        pieces = (pieces,)
    total = 0
    for piece in pieces:
        if isinstance(piece, FreeWord):
            total += piece.exponent_sum()
    return total


@lru_cache(maxsize=1 << 15)
def _tau_word(piece: WordLike) -> MagnusElement:
    n = piece.n
    kind = "sigma" if isinstance(piece, BraidWord) else "x"
    acc = MagnusElement.identity(n + 1)
    for idx, sign in piece.letters:
        acc = acc * _tau_letter(n, kind, idx, sign)
    return acc


def tau(arg, n: int | None = None) -> MagnusElement:
    """tau of a braid word, a free word, a sequence of such pieces, or a
    group-ring element (extended Z-linearly).

    Products of mixed sequences are taken left to right.  n is only needed
    to size the identity when the input is an empty sequence.
    """
    if isinstance(arg, (BraidWord, FreeWord)):
        return _tau_word(arg)
    if hasattr(arg, "tau_terms"):  # GroupRingElement-like
        size = arg.n + 1
        acc = MagnusElement.zero(size)
        for word, coeff in arg.tau_terms():
            acc = acc + _tau_word(word).scale(coeff)
        return acc
    pieces = list(arg)
    if not pieces:
        if n is None:
            raise ValueError("tau of an empty sequence needs an explicit n")
        return MagnusElement.identity(n + 1)
    acc = _tau_word(pieces[0])
    for piece in pieces[1:]:
        acc = acc * _tau_word(piece)
    return acc


def burau_block(m: MagnusElement) -> MagnusElement:
    """Lower-right n x n submatrix (rows/cols 1..n).

    On tau of a braid word this is the unreduced Burau matrix.
    """
    return MagnusElement(tuple(row[1:] for row in m.entries[1:]))


def unreduced_burau(b: BraidWord) -> MagnusElement:
    """The unreduced Burau matrix of a braid word, computed via tau."""
    return burau_block(_tau_word(b))
