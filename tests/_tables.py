"""Entry-by-entry references for the sparse generator tables, and the
table route of the block push.

A table (magnus.row_table) lists, for each row of a matrix, either the one
column the row copies or the row's nonzero entries.  The tests read a
table as the map {(row, col): entry} and compare it with the same map
built here straight from the rows of the matrix, one entry at a time,
with each entry of a computed row converted by a given function.

The compiled kernels of krammer are held to the table route: push runs
flat columns through the tables one magnus.apply_table step per letter,
in any ring given its dot product; rows_mod is the exact table reduced
mod P, and packed_table and packed_dot are the exact tables on
Kronecker-packed integers, each entry a list of shifts.
"""

from __future__ import annotations

from functools import lru_cache

from braidmoves.krammer import _rows
from braidmoves.laurent import ONE
from braidmoves.magnus import apply_table, map_table
from braidmoves.modcheck import poly_mod

COPY = "copy"


def table_entries(table, size: int) -> dict:
    """{(row, col): entry} of a table acting on columns of this size; a
    copied row shows as COPY at the column it copies."""
    copy, dense = table
    out = {(r, k): COPY for r, k in enumerate(copy(range(size)))}
    for c, live in dense:
        del out[c, c]  # the placeholder that the copy keeps for a computed row
        for k, g in live:
            out[c, k] = g
    return out


def reference_entries(rows, convert) -> dict:
    """The same map from the rows of the matrix: a row whose only nonzero
    entry is ONE is a copy, and every other row holds convert(g) for each
    of its nonzero entries g."""
    out = {}
    for r, row in enumerate(rows):
        live = [(k, g) for k, g in enumerate(row) if g]
        if len(live) == 1 and live[0][1] == ONE:
            out[r, live[0][0]] = COPY
        else:
            for k, g in live:
                out[r, k] = convert(g)
    return out


def push(n: int, letters, vecs: list, tables, dot) -> list:
    """Flat columns through the letters of a braid word on n strands, in
    the order they act (rightmost letter of the word first): tables(n, i,
    sign) gives the generator tables, and dot the ring's dot product."""
    for i, sign in letters:
        table = tables(n, i, sign)
        vecs = [apply_table(table, vec, dot) for vec in vecs]
    return vecs


@lru_cache(maxsize=None)
def exact_rows(n: int, i: int, sign: int) -> tuple:
    """_rows(n, i, sign), kept for the table route, which reads it once per
    letter; the package reads it once per kernel and does not keep it."""
    return _rows(n, i, sign)


def rows_mod(n: int, i: int, sign: int) -> tuple:
    """_rows(n, i, sign) reduced mod P, entry by entry."""
    return map_table(exact_rows(n, i, sign), poly_mod)


def packed_table(n: int, i: int, sign: int, s: int, w: int) -> tuple:
    """_rows(n, i, sign) on integers packed with slot bits s and window
    width w: each entry g as its (shift, coeff) terms, the term c q^a t^e
    shifting every slot by a w + e."""
    return map_table(
        exact_rows(n, i, sign),
        lambda g: tuple((s * (a * w + e), c) for (a, e), c in g._terms.items()),
    )


def packed_dot(live, vec) -> int:
    """sum g * vec[k] on packed integers, each g given by its (shift,
    coeff) terms."""
    acc = 0
    for k, terms in live:
        x = vec[k]
        if x:
            for shift, c in terms:
                y = x << shift if shift >= 0 else x >> -shift
                if c == 1:
                    acc += y
                elif c == -1:
                    acc -= y
                else:
                    acc += c * y
    return acc
