"""Entry-by-entry references for the sparse generator tables.

A table (magnus.row_table) lists, for each row of a matrix, either the one
column the row copies or the row's nonzero entries.  The tests read a
table as the map {(row, col): entry} and compare it with the same map
built here straight from the rows of the matrix, one entry at a time,
with each entry of a computed row converted by a given function.
"""

from __future__ import annotations

from braidmoves.laurent import ONE

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
