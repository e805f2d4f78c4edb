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
product.  tau_plus_act pushes the n+1 flat columns of a block column,
tau_plus assembles the matrix from its n block columns, entry reads one
block of one column, and the identity screen pushes a probe column
through the tables reduced mod P.  The exact tables are built on first
use, once per (n, i, sign); every other form of them (mod P, the bounds
and the packed shifts below) is made from them by magnus.map_table.
BlockMatrix.__mul__, the generic block product, stays as the reference
the tests hold them to.

The exact push (_push_exact) runs on integers, by Kronecker
substitution (Kronecker 1882; Harvey 2009), in three steps:

* A bound pass pushes, through the same tables, one bound per flat row:
  the largest absolute value of a coefficient, and the least and greatest
  exponents of q and of t.  A computed row gets sum |g|_1 * bound over its
  entries g, with the exponent ranges shifted by those of g.  Over the
  steps of a stretch (below) this gives a coefficient bound, and so a slot width s (its bits
  and a sign bit, in whole bytes), and an exponent window q0..q1, t0..t1.
* Each entry is packed into one integer, sum c 2^(s ((a - q0) W + e - t0))
  over its terms c q^a t^e, with W = t1 - t0 + 1; the tables' entries,
  converted once per stretch, act as one shift per term.  A right shift (a
  negative exponent) is exact because no term of any step leaves the
  window, and no slot can overflow because the coefficients stay within
  the bound.
* Only the blocks the caller returns are unpacked: adding 2^(s-1) to
  every slot leaves each slot's digit c + 2^(s-1) in its own s bits, read
  off one to_bytes of the entry.

The bound only grows, letter by letter, and soon outgrows the true values
(on a random 60-letter B_3 column, 152-bit slots for 26-bit coefficients),
so a long word is pushed in stretches.  A stretch ends when its predicted
size has doubled (see REBOUND_GROWTH); the next one starts from bounds
read off the packed integers by whole-integer operations, and the
integers are repacked in the new layout byte lane by byte lane, without
unpacking a coefficient.

The bound pass also predicts the size of the packed columns before any is
packed.  Past MAX_PACKED_BITS, with bounds read off the true values one
letter before, the push raises WordError: an exact image too large to
hold is refused rather than attempted.

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

from .laurent import ZERO, LaurentPoly
from .magnus import MagnusElement, apply_table, map_table, row_table, tau
from .modcheck import P, dot_mod, poly_mod, probe_vectors
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
    return map_table(_rows(n, i, sign), poly_mod)


def _push(n: int, letters, vecs: list, tables, dot) -> list:
    """Flat columns through the letters of a braid word on n strands, in
    the order they act (rightmost letter of the word first), in any ring:
    tables(n, i, sign) gives the generator tables, and dot the ring's dot
    product (see magnus.apply_table)."""
    for i, sign in letters:
        table = tables(n, i, sign)
        vecs = [apply_table(table, vec, dot) for vec in vecs]
    return vecs


# -- the exact push on Kronecker-packed integers ---------------------------

MAX_PACKED_BITS = 1 << 30
"""The most bits that the packed columns of one exact push may take, as
the bound pass predicts them (slot width x window x flat entries) one
letter past columns whose true values it has just read; see _bound_pass."""

REBOUND_GROWTH = 2
REBOUND_FLOOR_BITS = 1 << 18
REBOUND_LETTERS = 16
"""A stretch of an exact push ends once the predicted packed size passes
REBOUND_GROWTH times its size at the start of the stretch, and
REBOUND_FLOOR_BITS, while at least REBOUND_LETTERS letters are left; the
next stretch starts from bounds read off the true values.  The bound only
grows, letter by letter, while the true values grow more slowly or shrink
back (as on products of conjugated relators).  Reading the true bounds and
repacking cost about as much as pushing a few letters, so small columns
and the last letters of a word go on with the bound they have."""


def _bound(polys) -> list | None:
    """[norm, min q, max q, min t, max t] of some polynomials, or None when
    all are zero: norm is the largest absolute value of a coefficient, and
    the rest the exponent window of all their terms."""
    bounds = []
    for p in polys:
        if p:
            terms = p._terms
            qs = [a for a, _ in terms]
            ts = [e for _, e in terms]
            bounds.append([max(map(abs, terms.values())), min(qs), max(qs), min(ts), max(ts)])
    return _merge(bounds)


def _merge(bounds) -> list | None:
    """The bound of the union of some bounds (None for zero)."""
    live = [x for x in bounds if x is not None]
    if not live:
        return None
    return [
        max(x[0] for x in live),
        min(x[1] for x in live),
        max(x[2] for x in live),
        min(x[3] for x in live),
        max(x[4] for x in live),
    ]


@lru_cache(maxsize=None)
def _rows_bound(n: int, i: int, sign: int) -> tuple:
    """_rows(n, i, sign) with each entry g given by its L1 norm and window,
    [sum |c|, min q, max q, min t, max t]."""
    return map_table(
        _rows(n, i, sign), lambda g: [sum(map(abs, g._terms.values()))] + _bound((g,))[1:]
    )


def _bound_dot(live, vec) -> list | None:
    """The bound of a computed row, sum g * x over its entries (k, g) with
    x in row k, from the bounds vec of the rows: each coefficient of g * x
    is at most |g|_1 times the largest one of x, and its terms lie in the
    sum of the two windows."""
    out = None
    for k, (gn, gq0, gq1, gt0, gt1) in live:
        x = vec[k]
        if x is None:
            continue
        xn, q0, q1, t0, t1 = x
        q0 += gq0
        q1 += gq1
        t0 += gt0
        t1 += gt1
        if out is None:
            out = [gn * xn, q0, q1, t0, t1]
            continue
        out[0] += gn * xn
        if q0 < out[1]:
            out[1] = q0
        if q1 > out[2]:
            out[2] = q1
        if t0 < out[3]:
            out[3] = t0
        if t1 > out[4]:
            out[4] = t1
    return out


def _slot_bits(norm: int) -> int:
    """Bits per slot for coefficients of absolute value at most norm: their
    bits and a sign bit, rounded up to whole bytes."""
    return (norm.bit_length() + 8) // 8 * 8


def _packed_size(norm: int, q0: int, q1: int, t0: int, t1: int, entries: int) -> int:
    return _slot_bits(norm) * (q1 - q0 + 1) * (t1 - t0 + 1) * entries


def _bound_pass(n: int, letters: Sequence, start: int, bounds: list, entries: int) -> tuple:
    """Push the _bounds of the flat rows, read off true values, through the
    tables of letters[start:] (in the order they act) for one stretch.
    Returns stop, the end of the stretch; the bounds pushed through
    letters[start:stop]; and [norm, q0, q1, t0, t1], the largest norm and
    the exponent window over every step of the stretch.

    The stretch ends before the letter that would take the predicted packed
    size past MAX_PACKED_BITS, or past both REBOUND_GROWTH times its
    starting size and REBOUND_FLOOR_BITS with REBOUND_LETTERS letters left,
    but takes at least one letter.  Raises WordError when the packed size
    passes MAX_PACKED_BITS at the start or after that first letter."""
    window = _merge(bounds)
    size = _packed_size(*window, entries)
    if size > MAX_PACKED_BITS:
        raise _too_large(n, size)
    limit = max(REBOUND_FLOOR_BITS, REBOUND_GROWTH * size)
    for stop in range(start, len(letters)):
        table = _rows_bound(n, *letters[stop])
        pushed = apply_table(table, bounds, _bound_dot)
        norm, q0, q1, t0, t1 = window
        # copied rows hold bounds met before; only the computed ones are new
        for c, _ in table[1]:
            x = pushed[c]
            if x is not None:
                if x[0] > norm:
                    norm = x[0]
                if x[1] < q0:
                    q0 = x[1]
                if x[2] > q1:
                    q1 = x[2]
                if x[3] < t0:
                    t0 = x[3]
                if x[4] > t1:
                    t1 = x[4]
        size = _packed_size(norm, q0, q1, t0, t1, entries)
        if size > MAX_PACKED_BITS or size > limit and len(letters) - stop >= REBOUND_LETTERS:
            if stop > start:
                return stop, bounds, window
            if size > MAX_PACKED_BITS:
                raise _too_large(n, size)
        bounds, window = pushed, [norm, q0, q1, t0, t1]
    return len(letters), bounds, window


def _too_large(n: int, size: int) -> WordError:
    return WordError(
        f"an exact image on {n} strands would take {size} bits packed, "
        f"more than MAX_PACKED_BITS = {MAX_PACKED_BITS}"
    )


def _packed_dot(live, vec) -> int:
    """sum g * vec[k] on packed integers, each g given by its (shift, coeff)
    terms: the term c q^a t^e shifts every slot by a W + e."""
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


def _push_exact(n: int, letters: Sequence, vecs: list, keep: Sequence[int]) -> list:
    """Flat columns of Laurent polynomials through the letters of a braid
    word on n strands (in the order they act), exactly, on Kronecker-packed
    integers, one stretch at a time (see the module docstring).  Returns,
    for each column, its entries in the flat rows keep, the only ones
    unpacked."""
    bounds = [_bound(row) for row in zip(*vecs)]
    layout = None  # (slot bits, window width, q0, t0), once the columns are packed
    start = 0
    while True:
        if not any(bounds):
            return [[ZERO] * len(keep) for _ in vecs]
        stop, pushed, (norm, q0, _, t0, t1) = _bound_pass(
            n, letters, start, bounds, len(vecs) * len(bounds)
        )
        new = s, w, _, _ = _slot_bits(norm), t1 - t0 + 1, q0, t0
        if layout is None:
            vecs = [[_pack(p, bound, new) for p, bound in zip(vec, bounds)] for vec in vecs]
        else:
            vecs = [[_reslot(x, bound, layout, new) for x, bound in zip(vec, bounds)] for vec in vecs]
        layout = new
        tables: dict = {}

        def packed(n, i, sign):
            if (i, sign) not in tables:
                tables[i, sign] = map_table(
                    _rows(n, i, sign),
                    lambda g: tuple((s * (a * w + e), c) for (a, e), c in g._terms.items()),
                )
            return tables[i, sign]

        vecs = _push(n, letters[start:stop], vecs, packed, _packed_dot)
        if stop == len(letters):
            return [[_unpack(vec[r], pushed[r], layout) for r in keep] for vec in vecs]
        # the next stretch starts from the true values, bounded in place
        bounds = [
            _merge([_packed_bound(x, bound, layout) for x in row])
            for row, bound in zip(zip(*vecs), pushed)
        ]
        start = stop


# The slots of a packed integer x in the layout (s, w, q0, t0) hold the
# coefficients c of q^a t^e at slot (a - q0) w + e - t0, s bits each.  Read
# with 2^(s-1) added to every slot, each slot holds c + 2^(s-1), in
# 0 .. 2^s: no slot borrows from the next, and each is read off its own
# s/8 bytes.  A window a0 .. a1, e0 .. e1 that holds every term of x tells
# which slots to read.


def _empty(s: int) -> bytes:
    """The bytes of an empty slot, 2^(s-1)."""
    return bytes(s // 8 - 1) + b"\x80"


def _biased(x: int, s: int, low: int, size: int) -> int:
    """The slots low .. low + size - 1 of x, each plus 2^(s-1), as one
    integer; every slot of x outside them must be zero."""
    return (x >> s * low) + int.from_bytes(_empty(s) * size, "little")


def _pack(p: LaurentPoly, bound, layout) -> int:
    """p as one packed integer, written slot by slot into the bytes of one
    int.from_bytes; bound is a window that holds its terms."""
    if not p:
        return 0
    s, w, q0, t0 = layout
    _, a0, a1, e0, e1 = bound
    low = (a0 - q0) * w + e0 - t0  # the slot of q^a0 t^e0
    size = (a1 - a0) * w + e1 - e0 + 1  # slots from there to q^a1 t^e1
    nbytes = s // 8
    half = 1 << (s - 1)
    empty = _empty(s)
    data = bytearray(empty * size)
    for (a, e), c in p._terms.items():
        start = ((a - a0) * w + e - e0) * nbytes
        data[start:start + nbytes] = (c + half).to_bytes(nbytes, "little")
    bias = int.from_bytes(empty * size, "little")
    return (int.from_bytes(data, "little") - bias) << s * low


def _unpack(x: int, bound, layout) -> LaurentPoly:
    """The polynomial packed in x; bound is a window that holds its terms,
    so only the slots of that window are read."""
    if not x:
        return ZERO
    s, w, q0, t0 = layout
    _, a0, a1, e0, e1 = bound
    low = (a0 - q0) * w + e0 - t0  # the slot of q^a0 t^e0
    size = (a1 - a0) * w + e1 - e0 + 1  # slots from there to q^a1 t^e1
    nbytes = s // 8
    half = 1 << (s - 1)
    empty = _empty(s)
    data = _biased(x, s, low, size).to_bytes(size * nbytes, "little")
    terms = {}
    for a in range(a0, a1 + 1):
        base = (a - a0) * w - e0
        for e in range(e0, e1 + 1):
            start = (base + e) * nbytes
            chunk = data[start:start + nbytes]
            if chunk != empty:
                terms[a, e] = int.from_bytes(chunk, "little") - half
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = terms
    return poly


def _packed_bound(x: int, bound, layout) -> list | None:
    """A _bound of the polynomial packed in x, read off whole-integer
    operations without unpacking it; bound is a window that holds its
    terms.  The norm is a power of two at most twice the largest absolute
    value of a coefficient; the exponent window is exact."""
    if not x:
        return None
    s, w, q0, t0 = layout
    size = (bound[2] - bound[1] + 1) * w  # the window's rows, whole
    bias = int.from_bytes(_empty(s) * size, "little")
    xb = _biased(x, s, (bound[1] - q0) * w, size)
    nonzero = xb ^ bias  # a slot is nonzero exactly when its coefficient is
    # c for c >= 0 and -c - 1 for c < 0, slot by slot: the low s - 1 bits of
    # c + 2^(s-1), flipped in the slots whose top bit is clear
    ones = bias >> (s - 1)
    negative = ((xb & bias) ^ bias) >> (s - 1)
    magnitude = (xb & (bias - ones)) ^ negative * ((1 << (s - 1)) - 1)
    # or the rows together, then the slots of that row
    step = w * s // 8
    data = nonzero.to_bytes(size * s // 8, "little"), magnitude.to_bytes(size * s // 8, "little")
    columns = spread = 0
    for k in range(0, len(data[0]), step):
        columns |= int.from_bytes(data[0][k:k + step], "little")
        spread |= int.from_bytes(data[1][k:k + step], "little")
    top, mask = 0, (1 << s) - 1
    while spread:
        top |= spread & mask
        spread >>= s
    first = ((nonzero & -nonzero).bit_length() - 1) // s
    last = (nonzero.bit_length() - 1) // s
    return [
        1 << top.bit_length(),
        bound[1] + first // w,
        bound[1] + last // w,
        t0 + ((columns & -columns).bit_length() - 1) // s,
        t0 + (columns.bit_length() - 1) // s,
    ]


_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b < 0x80 else 0 for b in range(256))


def _reslot(x: int, bound, old, new) -> int:
    """x, packed in the layout old, packed in the layout new without
    unpacking it; bound is a window that holds its terms, in both layouts,
    and the new slots are wide enough for its coefficients."""
    if not x:
        return 0
    s, w, q0, t0 = old
    s2, w2, q2, t2 = new
    _, a0, a1, e0, e1 = bound
    nb, nb2 = s // 8, s2 // 8
    size, size2 = (a1 - a0 + 1) * w, (a1 - a0 + 1) * w2
    data = _biased(x, s, (a0 - q0) * w, size).to_bytes(size * nb, "little")
    # byte j of every slot at once: the low bytes of c + 2^(s-1) are those
    # of c; c's top byte is the slot's with bit 7 flipped, and sign-extends
    # into wider slots; the top byte of c + 2^(s2-1) is c's with bit 7 flipped
    resized = bytearray(size * nb2)
    high = data[nb - 1::nb]
    for j in range(nb2):
        lane = data[j::nb] if j < nb - 1 else high.translate(_FLIP if j == nb - 1 else _SIGN)
        resized[j::nb2] = lane.translate(_FLIP) if j == nb2 - 1 else lane
    # then each row's slots e0 .. e1 into its place in rows of width w2
    out = bytearray(_empty(s2) * size2)
    span = (e1 - e0 + 1) * nb2
    for r in range(a1 - a0 + 1):
        i, k = (r * w + e0 - t0) * nb2, (r * w2 + e0 - t2) * nb2
        out[k:k + span] = resized[i:i + span]
    bias = int.from_bytes(_empty(s2) * size2, "little")
    return (int.from_bytes(out, "little") - bias) << s2 * (a0 - q2) * w2


def tau_plus(b: BraidWord) -> BlockMatrix:
    """The block matrix of a braid word (product of generator images),
    assembled from its block columns."""
    columns = [tau_plus_column(b, j) for j in range(1, b.n + 1)]
    return BlockMatrix(b.n, tuple(zip(*columns)))


def tau_plus_act(b: BraidWord, col: Sequence[MagnusElement]) -> tuple[MagnusElement, ...]:
    """The block matrix of b times a block column, one generator at a time
    (rightmost letter first), without forming the full product."""
    return tuple(_act(b, col, range(b.n)))


def _act(b: BraidWord, col: Sequence[MagnusElement], rows: Sequence[int]) -> list[MagnusElement]:
    """The blocks in block rows rows (0-based) of the block matrix of b
    times a block column; only those blocks are unpacked."""
    m = b.n + 1
    col = tuple(col)
    # the block column as m flat columns of length n(n+1)
    vecs = [[blk.entries[a][c] for blk in col for a in range(m)] for c in range(m)]
    vecs = _push_exact(b.n, b.letters[::-1], vecs, [k * m + a for k in rows for a in range(m)])
    return [
        MagnusElement(tuple(tuple(v[r * m + a] for v in vecs) for a in range(m)))
        for r in range(len(rows))
    ]


def _basis_column(n: int, j: int) -> tuple[MagnusElement, ...]:
    """The basis block column e_j (1-based) of B_n."""
    if not 1 <= j <= n:
        raise WordError(f"column {j} out of range 1..{n}")
    zero = MagnusElement.zero(n + 1)
    return tuple(MagnusElement.identity(n + 1) if k == j - 1 else zero for k in range(n))


def tau_plus_column(b: BraidWord, j: int) -> tuple[MagnusElement, ...]:
    """Column j of the block matrix of b: tau_plus_act on the basis column e_j."""
    return tau_plus_act(b, _basis_column(b.n, j))


def entry(b: BraidWord, i: int, j: int) -> MagnusElement:
    """The block r_ij of the image of b (1-based)."""
    n = b.n
    if not 1 <= i <= n:
        raise WordError(f"row {i} out of range 1..{n}")
    (block,) = _act(b, _basis_column(n, j), (i - 1,))
    return block


def certainly_not_identity(b: BraidWord) -> bool:
    """True only when b is exactly nontrivial in B_n.

    Pushes the probe column v through the generator tables mod P and tests
    u^T M v != u^T v for the image M of b: then M != I mod P, so M != I.
    False says nothing.
    """
    n = b.n
    u, v = probe_vectors(n * (n + 1))
    (mv,) = _push(n, reversed(b.letters), [v], _rows_mod, dot_mod)
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
    budget is the exact block matrix compared with the identity; that
    product raises WordError when its packed size would pass
    MAX_PACKED_BITS.
    """
    if certainly_not_identity(b):
        return False
    fixed = _fixes_generators(b)
    if fixed is not None:
        return fixed
    return tau_plus(b).is_identity()
