import gc
import random
import tracemalloc

import pytest

import braidmoves.krammer as K
import braidmoves.magnus as M
from _tables import packed_dot, packed_table, push, reference_entries, rows_mod, table_entries
from braidmoves.homology import evaluate_x, fox_x, fox_y, tau_components_x
from braidmoves.krammer import (
    BlockMatrix,
    _fixes_generators,
    _kernel_exact,
    _kernel_mod,
    _push_mod,
    _rows,
    certainly_not_identity,
    entry,
    is_identity,
    tau_plus,
    tau_plus_act,
    tau_plus_column,
    tau_plus_generator,
)
from braidmoves.laurent import ZERO, LaurentPoly
from braidmoves.magnus import MagnusElement, _dot, apply_table, tau
from braidmoves.modcheck import P, dot_mod, poly_mod, probe_vectors
from braidmoves.pairing import pair, t_element
from braidmoves.words import BraidWord, FreeWord, WordError, y_basis_word


def rand_braid(rng, n, max_len=8):
    k = rng.randrange(0, max_len + 1)
    return BraidWord(n, tuple((rng.randrange(1, n), rng.choice([1, -1])) for _ in range(k)))


# -- generator blocks ----------------------------------------------------------


def test_generator_block_layout():
    n = 4
    m = tau_plus_generator(n, 1)
    ts = tau(BraidWord.generator(n, 1))
    one = MagnusElement.identity(n + 1)
    assert m.block(1, 1).is_zero()
    assert m.block(1, 2) == ts * tau(FreeWord.generator(n, 1))
    assert m.block(2, 1) == ts
    assert m.block(2, 2) == ts * (one - tau(FreeWord.generator(n, 2)))
    assert m.block(3, 3) == ts and m.block(4, 4) == ts
    assert m.block(1, 3).is_zero() and m.block(3, 1).is_zero()


def test_generator_inverse_blocks():
    for n in (3, 4):
        for i in range(1, n):
            prod = tau_plus_generator(n, i) * tau_plus_generator(n, i, -1)
            assert prod.is_identity()


def test_total_rank():
    # n = 4: 4 x 5 = 20
    m = tau_plus(BraidWord.identity(4))
    assert m.n == 4 and m.block(1, 1).size == 5


# -- relations -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_relations_block_level(n):
    for i in range(1, n - 1):
        lhs = tau_plus(BraidWord.parse(f"{i} {i+1} {i}", n))
        rhs = tau_plus(BraidWord.parse(f"{i+1} {i} {i+1}", n))
        assert lhs == rhs
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            assert tau_plus(BraidWord.parse(f"{i} {j}", n)) == tau_plus(
                BraidWord.parse(f"{j} {i}", n)
            )


def test_identity_images():
    assert tau_plus(BraidWord.identity(3)).is_identity()
    for i, j in [(1, 1), (1, 2), (2, 1)]:
        e = entry(BraidWord.identity(3), i, j)
        assert e.is_identity() if i == j else e.is_zero()


# -- word problem -----------------------------------------------------------------


def test_relator_words_are_identity():
    assert is_identity(BraidWord.parse("1 2 1 -2 -1 -2", 3))
    assert is_identity(BraidWord.parse("1 3 -1 -3", 4))
    b2 = BraidWord.parse("-2 -2 -1 -2 -3 2 2 2 1 2 3", 4)
    assert is_identity(b2.inverse() * b2)


def test_nontrivial_words():
    # oracle: nonzero exponent sum already forces nontriviality
    assert BraidWord.parse("1 1", 3).exponent_sum() != 0
    assert not is_identity(BraidWord.parse("1 1", 3))
    assert not is_identity(BraidWord.parse("1 2", 3))
    assert not is_identity(BraidWord.parse("1 -2", 3))


# -- column extraction and the cross-route identity -------------------------------


def test_column_matches_full_product():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.choice([3, 4])
        b = rand_braid(rng, n, 7)
        full = tau_plus(b)
        for j in range(1, n + 1):
            assert tau_plus_column(b, j) == full.column(j)


def test_beta2_column_three():
    # the image of e_3 is e_1 tau(beta2): column 3 has a single block
    b2 = BraidWord.parse("-2 -2 -1 -2 -3 2 2 2 1 2 3", 4)
    col = tau_plus_column(b2, 3)
    assert col[0] == tau(b2)
    assert all(col[k].is_zero() for k in (1, 2, 3))
    assert entry(b2, 2, 3).is_zero()


def test_cross_route_identity():
    # tau of the components of [beta(x_j)]_x equals column j of the block
    # matrix of beta, right-multiplied blockwise by tau(beta)^-1
    rng = random.Random(22)
    for _ in range(12):
        n = rng.choice([3, 4])
        beta = rand_braid(rng, n, 6)
        tb_inv = tau(beta.inverse())
        for j in range(1, n + 1):
            lhs = tau_components_x(beta(FreeWord.generator(n, j)))
            col = tau_plus_column(beta, j)
            rhs = tuple(r * tb_inv for r in col)
            assert lhs == rhs


def test_entry_pairing_contract():
    # <f_i, beta e_j> = t_i r_ij, via the free-group route: the pairing
    # <f_i, [beta x_j]_x> equals t_i r_ij tau(beta)^-1
    rng = random.Random(23)
    for _ in range(10):
        n = 3
        beta = rand_braid(rng, n, 5)
        tb_inv = tau(beta.inverse())
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fi = fox_y(y_basis_word(i, n))
                value = pair(fi, fox_x(beta(FreeWord.generator(n, j)))).evaluated
                assert value == t_element(n, i) * entry(beta, i, j) * tb_inv


def test_entry_zero_iff_pairing_zero():
    rng = random.Random(24)
    for _ in range(15):
        n = rng.choice([3, 4])
        beta = rand_braid(rng, n, 6)
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        fi = fox_y(y_basis_word(i, n))
        lhs = entry(beta, i, j).is_zero()
        rhs = pair(fi, fox_x(beta(FreeWord.generator(n, j)))).is_zero()
        assert lhs == rhs


def test_block_matrix_json():
    m = tau_plus(BraidWord.parse("1 -2", 3))
    data = m.to_json()
    assert len(data) == 3 and len(data[0]) == 3
    rebuilt = BlockMatrix(
        3, [[MagnusElement.from_json(b) for b in row] for row in data]
    )
    assert rebuilt == m


# -- the sparse action against the generic block product ---------------------------


def reference_tau_plus(b):
    """The image of b as a product of generator block matrices, through the
    generic BlockMatrix.__mul__."""
    acc = BlockMatrix.identity(b.n)
    for i, sign in b.letters:
        acc = acc * tau_plus_generator(b.n, i, sign)
    return acc


def reduced_word(rng, n, length):
    """A random braid word of exactly length letters, none cancelling the next."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(1, n), rng.choice([1, -1]))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return BraidWord(n, tuple(letters))


def reference_act(b, col):
    """The image of b times a block column: BlockMatrix.__mul__ over the
    generator images, rightmost first, on the block matrix whose first
    block column is col and whose other blocks are zero."""
    n = b.n
    zero = MagnusElement.zero(n + 1)
    acc = BlockMatrix(n, [[col[r] if c == 0 else zero for c in range(n)] for r in range(n)])
    for i, sign in reversed(b.letters):
        acc = tau_plus_generator(n, i, sign) * acc
    return acc.column(1)


def test_sparse_routes_equal_the_block_product():
    rng = random.Random(31)
    samples = []
    for _ in range(18):
        n = rng.choice([3, 4, 5])
        samples.append(rand_braid(rng, n, 9 if n < 5 else 6))
    samples += [
        reduced_word(rng, n, length)
        for n, length in ((3, 12), (3, 20), (4, 12), (4, 16), (5, 10), (5, 14))
    ]
    for b in samples:
        n = b.n
        ref = reference_tau_plus(b)
        assert tau_plus(b) == ref
        for j in range(1, n + 1):
            assert tau_plus_column(b, j) == ref.column(j)
            for i in range(1, n + 1):
                assert entry(b, i, j) == ref.block(i, j)
    # one column and one block of a 60-letter word on each strand count
    for n in (3, 4, 5):
        b = reduced_word(rng, n, 60)
        i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        ref = reference_act(b, K._basis_column(n, j))
        assert tau_plus_column(b, j) == ref
        assert entry(b, i, j) == ref[i - 1]


def act_samples(rng):
    """(b, col): columns of Fox components, with negative exponents and
    coefficients above one, the same scaled by large integers of either
    sign, zero columns, and the empty braid among the braids."""
    for k in range(6):
        n = rng.choice([3, 4, 5])
        b = BraidWord.identity(n) if k == 0 else reduced_word(rng, n, rng.randrange(3, 12))
        w = FreeWord(n, tuple((rng.randrange(1, n + 1), rng.choice([1, -1])) for _ in range(8)))
        col = evaluate_x(fox_x(w * w))
        yield b, col
        yield b, tuple(blk.scale(c) for blk, c in zip(col, (2**71 - 1, -(2**71) + 1, 3, -5, 7)))
        yield b, (MagnusElement.zero(n + 1),) * n


def test_sparse_action_on_a_block_column_equals_the_block_product():
    # a column with no zero or identity blocks, so every table entry counts
    rng = random.Random(32)
    for _ in range(8):
        n = rng.choice([3, 4])
        b = rand_braid(rng, n, 7)
        col = tuple(tau(rand_braid(rng, n, 3)).scale(k + 2) for k in range(n))
        ref = reference_tau_plus(b)
        expected = tuple(
            sum((ref.block(r, k) * col[k - 1] for k in range(1, n + 1)), MagnusElement.zero(n + 1))
            for r in range(1, n + 1)
        )
        assert tau_plus_act(b, col) == expected
    # Fox columns, the same with 71-bit coefficients of either sign (their
    # slots are full), zero columns and the empty braid
    big = 0
    for b, col in act_samples(rng):
        assert tau_plus_act(b, col) == reference_act(b, col)
        if not b.letters:
            assert tau_plus_act(b, col) == col
        big += any(abs(c) > 1 for blk in col for row in blk.entries for p in row
                   for c in p._terms.values())
    assert big >= 12


# -- the bound pass of the exact push -------------------------------------------------


def test_bound_pass_bounds_every_pushed_coefficient():
    rng = random.Random(53)
    samples = list(act_samples(rng))
    samples += [(reduced_word(rng, n, 16), K._basis_column(n, n)) for n in (3, 4, 5)]
    for b, col in samples:
        m = b.n + 1
        vecs = [[blk.entries[a][c] for blk in col for a in range(m)] for c in range(m)]
        start = [K._bound(row) for row in zip(*vecs)]
        if not any(start):
            continue
        letters = b.letters[::-1]
        stop, bounds, (norm, q0, q1, t0, t1), kernels = K._bound_pass(
            b.n, letters, 0, start, m * len(start)
        )
        assert kernels == [_kernel_exact(b.n, *letter) for letter in letters[:stop]]
        pushed = K._push_exact(b.n, letters[:stop], vecs, range(len(start)))
        for r, bound in enumerate(bounds):
            for p in (vec[r] for vec in pushed):
                for (a, e), c in p._terms.items():
                    assert abs(c) <= bound[0] <= norm
                    assert q0 <= bound[1] <= a <= bound[2] <= q1
                    assert t0 <= bound[3] <= e <= bound[4] <= t1


def test_packed_bounds_and_reslotting_equal_unpacking():
    # the true bounds read off packed integers, and the repacking into
    # narrower, wider and shifted layouts, against the dict route
    rng = random.Random(55)
    for _ in range(40):
        polys = [
            LaurentPoly({
                (rng.randrange(-6, 7), rng.randrange(-4, 5)): rng.choice([1, -1])
                * rng.randrange(1, 2 ** rng.choice([1, 7, 20, 70]))
                for _ in range(rng.randrange(0, 12))
            })
            for _ in range(4)
        ]
        bound = K._bound(polys)
        if bound is None:
            continue
        old = (K._slot_bits(bound[0]) + 8 * rng.randrange(3), 9 + rng.randrange(3), -6, -4)
        packed = [K._pack(p, bound, old) for p in polys]
        assert [K._unpack(x, bound, old) for x in packed] == polys
        held = [bound[0], -6, 6, -4, 4]  # the layout's whole window
        assert K._merge(K._packed_bound(x, held, old) for x in packed)[1:] == bound[1:]
        for p, x in zip(polys, packed):
            got = K._packed_bound(x, held, old)
            if not p:
                assert got is None
                continue
            assert got[1:] == K._bound([p])[1:]
            assert K._bound([p])[0] <= got[0] <= 2 * K._bound([p])[0]
        for s in {K._slot_bits(bound[0]), K._slot_bits(bound[0]) + 16}:
            new = (s, bound[4] - bound[3] + 1 + rng.randrange(3), bound[1] - rng.randrange(3), bound[3])
            assert [K._unpack(K._reslot(x, bound, old, new), bound, new) for x in packed] == polys


def conjugated_relator_product(rng, n, pieces, strands):
    """pieces conjugated relators w r w^-1 on strands 1 .. strands, as a
    braid word on n strands."""
    letters = []
    for _ in range(pieces):
        w = rand_braid(rng, strands, 5)
        letters += w.letters + relator(rng, strands).letters + w.inverse().letters
    return BraidWord(n, tuple(letters))


def test_long_relator_products_are_pushed_in_stretches(monkeypatch):
    # the bound of a push only grows, while the true column of a product of
    # conjugated relators keeps returning to a small one: P s_{n-1}^-1 Q on
    # about 500 letters needs fresh bounds, stretch by stretch
    rng = random.Random(56)
    stretches = []
    bound_pass = K._bound_pass

    def counted(*args):
        out = bound_pass(*args)
        stretches.append(out[0])
        return out

    monkeypatch.setattr(K, "_bound_pass", counted)
    for n, strands in ((3, 3), (4, 3)):
        s = BraidWord.generator(n, n - 1, -1)
        b = conjugated_relator_product(rng, n, 28, strands) * s
        b = b * conjugated_relator_product(rng, n, 28, strands)
        assert len(b) >= 400
        stretches.clear()
        r_nn = entry(b, n, n)
        assert len(stretches) > 3 and stretches[-1] == len(b)
        assert r_nn == reference_act(b, K._basis_column(n, n))[n - 1]
        if strands < n:  # P, Q on strands 1 .. n-1: r_nn vanishes
            assert r_nn.is_zero()


def packed_columns(rng, n, layout, es):
    """Four flat columns packed in layout, with coefficients of either
    sign that fill up to s - 2 bits of their s-bit slots and t-exponents
    from es, zero entries among them."""
    s, w, q0, t0 = layout
    size = n * (n + 1)
    vecs = []
    for _ in range(4):
        polys = [
            LaurentPoly({
                (rng.randrange(-2, 3), rng.choice(es)):
                rng.choice([1, -1]) * rng.randrange(1, 2 ** rng.choice([1, 8, s - 2]))
                for _ in range(rng.randrange(0, 4))
            })
            for _ in range(size)
        ]
        window = [1, q0, q0 + 12, t0, t0 + w - 1]
        vecs.append([K._pack(p, window, layout) for p in polys])
    return vecs


def test_exact_kernels_equal_the_packed_tables():
    """Each compiled exact kernel gives the values of its table on packed
    integers under the table route, for every generator of B_3 .. B_6, in
    layouts of one t-exponent (W = 1, where q^1 t^-1 does not shift) and of
    several, with 16-, 24- and 80-bit slots for coefficients of either sign."""
    rng = random.Random(1601)
    for n in range(3, 7):
        for i in range(1, n):
            for sign in (1, -1):
                kernel = _kernel_exact(n, i, sign)
                for layout, es in (((16, 1, -6, 0), [0]), ((80, 1, -6, 2), [2]),
                                   ((80, 5, -6, -2), [-1, 0, 1]), ((24, 3, -6, -1), [-1, 0, 1])):
                    s, w, _, _ = layout
                    shifts = K._shifts(kernel.monomials, s, w)
                    table = packed_table(n, i, sign, s, w)
                    for vec in packed_columns(rng, n, layout, es):
                        assert kernel(vec, shifts) == apply_table(table, vec, packed_dot)
                        assert kernel(tuple(vec), shifts) == kernel(vec, shifts)


def test_long_products_push_through_kernels_as_through_tables(monkeypatch):
    """Every kernel call of a push of more than three stretches, on the
    long relator products of the stretch test above, equals the packed
    table of its layout under the table route."""
    rng = random.Random(56)
    layouts, calls = {}, [0]
    shifts, kernel_exact = K._shifts, K._kernel_exact

    def recorded(monomials, s, w):
        out = shifts(monomials, s, w)
        layouts[monomials, out] = s, w
        return out

    def checked(n, i, sign):
        kernel = kernel_exact(n, i, sign)

        def run(vec, S):
            out = kernel(vec, S)
            layout = layouts[kernel.monomials, S]
            assert out == apply_table(packed_table(n, i, sign, *layout), vec, packed_dot)
            calls[0] += 1
            return out

        run.monomials, run.bounds = kernel.monomials, kernel.bounds
        return run

    monkeypatch.setattr(K, "_shifts", recorded)
    monkeypatch.setattr(K, "_kernel_exact", checked)
    for n, strands in ((3, 3), (4, 3)):
        s = BraidWord.generator(n, n - 1, -1)
        b = conjugated_relator_product(rng, n, 28, strands) * s
        b = b * conjugated_relator_product(rng, n, 28, strands)
        layouts.clear()
        calls[0] = 0
        assert entry(b, n, n).is_zero()  # b equals s_{n-1}^-1 in B_n
        assert len(set(layouts.values())) > 3 and calls[0] == (n + 1) * len(b)


def krammer_caches() -> dict:
    """The lru caches of the functions that krammer defines, by name."""
    return {
        name: value
        for name, value in vars(K).items()
        if hasattr(value, "cache_info") and value.__module__ == K.__name__
    }


def test_kernel_caches_hold_every_small_generator():
    """The two kernel caches keep every generator of B_3 .. B_5 in both
    signs: a second round builds nothing, and the exact kernels keep the
    bound tables they were built with."""
    generators = [(n, i, sign) for n in (3, 4, 5) for i in range(1, n) for sign in (1, -1)]
    for cache in (_kernel_mod, _kernel_exact):
        for g in generators:
            cache(*g)
        misses = cache.cache_info().misses
        for g in generators:
            cache(*g)
        assert cache.cache_info().misses == misses
    bounds = [_kernel_exact(*g).bounds for g in generators]
    assert all(_kernel_exact(*g).bounds is b for g, b in zip(generators, bounds))


def test_large_generator_tables_stay_small_once_built():
    """From empty caches, is_identity of a three-letter braid on B_20, B_40
    and B_60 keeps at most 3 MB once tau on words is cleared: the mod-P
    kernels, the probe vectors and the table of each letter, but neither
    the generators' blocks nor their exact tables, which the screen's
    kernels are compiled from and do not keep."""
    for cache in (*krammer_caches().values(), M.letter_right, M._tau_word):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for n in (20, 40, 60):
            assert not is_identity(BraidWord.parse("1 -2 3", n))
        M._tau_word.cache_clear()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3_000_000


def test_oversized_exact_products_rejected(monkeypatch):
    # a column whose own exponents span 2 x 10^7 powers of q is refused
    # before the first letter
    far = MagnusElement.identity(4).scale(LaurentPoly({(10**7, 0): 1, (-(10**7), 0): 1}))
    zero = MagnusElement.zero(4)
    tracemalloc.start()
    try:
        for b in (BraidWord.identity(3), BraidWord.generator(3, 1)):
            with pytest.raises(WordError, match="MAX_PACKED_BITS"):
                tau_plus_act(b, (far, zero, zero))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    # a long word is refused once its true values, one letter on, pass the
    # cap; at the real cap that takes about 520 letters, minutes and 0.5 GB,
    # so the cap is lowered here to 2^20 bits (128 kB); the peak also holds
    # the reversed 100 000-letter word (0.8 MB)
    monkeypatch.setattr(K, "MAX_PACKED_BITS", 1 << 20)
    rng = random.Random(54)
    words = [reduced_word(rng, 5, 100_000), BraidWord.parse("s1^50000 s2^50000", 3)]
    tracemalloc.start()
    try:
        for b in words:
            with pytest.raises(WordError, match="MAX_PACKED_BITS"):
                entry(b, b.n, b.n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    # is_identity's fallback to the block matrix raises the same error
    b = BraidWord.parse("1 2 1 -2 -1 -2", 3)
    monkeypatch.setattr(K, "ACTION_LETTER_BUDGET", 2)
    assert is_identity(b)
    monkeypatch.setattr(K, "MAX_PACKED_BITS", 1000)
    with pytest.raises(WordError, match="MAX_PACKED_BITS"):
        is_identity(b)


def flat_rows(m):
    """The rows of a block matrix as an n(n+1) x n(n+1) matrix."""
    return [
        [p for block in brow for p in block.entries[a]]
        for brow in m.blocks
        for a in range(m.n + 1)
    ]


def rand_poly(rng):
    return LaurentPoly(
        {(rng.randrange(-2, 3), rng.randrange(-2, 3)): rng.randrange(-3, 4) for _ in range(3)}
    )


def test_generator_tables_act_like_their_matrices():
    """Exact and mod-P tables against the dense product with the flattened
    generator image (reduced entrywise for the mod-P table)."""
    rng = random.Random(33)
    for n in (3, 4, 5):
        size = n * (n + 1)
        for i in range(1, n):
            for sign in (1, -1):
                rows = flat_rows(tau_plus_generator(n, i, sign))
                for _ in range(2):
                    vec = [rand_poly(rng) for _ in range(size)]
                    expected = [sum((g * x for g, x in zip(row, vec)), ZERO) for row in rows]
                    assert apply_table(_rows(n, i, sign), vec, _dot) == expected
                    vec = [rng.randrange(P) for _ in range(size)]
                    expected = [
                        sum(poly_mod(g) * x for g, x in zip(row, vec)) % P for row in rows
                    ]
                    assert apply_table(rows_mod(n, i, sign), vec, dot_mod) == expected


def norm_and_window(g):
    """[sum |c|, min q, max q, min t, max t] over the terms c q^a t^e of g."""
    terms = list(g.terms())
    qs = [a for (a, _), _ in terms]
    ts = [e for (_, e), _ in terms]
    return [sum(abs(c) for _, c in terms), min(qs), max(qs), min(ts), max(ts)]


def test_generator_tables_equal_their_entry_by_entry_reference():
    """The exact, mod-P and bound tables of each generator against the
    entries of its flattened block matrix, one at a time."""
    for n in (3, 4, 5):
        for i in range(1, n):
            for sign in (1, -1):
                rows = flat_rows(tau_plus_generator(n, i, sign))
                for table, convert in (
                    (_rows(n, i, sign), lambda g: g),
                    (rows_mod(n, i, sign), poly_mod),
                    (_kernel_exact(n, i, sign).bounds, norm_and_window),
                ):
                    assert table_entries(table, n * (n + 1)) == reference_entries(rows, convert)


def test_generator_tables_are_read_off_their_nonzero_blocks(monkeypatch):
    """On B_60 the tables of a three-letter braid visit at most two blocks
    of n + 1 entries per flat row, about 0.8 M nonzero tests in all, where
    a scan of the flattened matrices makes (n(n+1))^2 = 13.4 M per table."""
    n = 60
    tests = [0]
    nonzero = LaurentPoly.__bool__

    def counted(p):
        tests[0] += 1
        return nonzero(p)

    monkeypatch.setattr(LaurentPoly, "__bool__", counted)
    assert not is_identity(BraidWord.parse("1 -2 3", n))
    assert tests[0] < 3 * 2 * n * (n + 1) ** 2


# -- the mod-p identity screen ---------------------------------------------------------


def relator(rng, n):
    i = rng.randrange(1, n - 1)
    rel = BraidWord.parse(f"{i} {i + 1} {i} -{i + 1} -{i} -{i + 1}", n)
    return rel if rng.random() < 0.5 else rel.inverse()


def conjugated_relators(rng, n, pieces):
    acc = BraidWord.identity(n)
    for _ in range(pieces):
        w = rand_braid(rng, n, 5)
        acc = acc * w * relator(rng, n) * w.inverse()
    return acc


def respelled(rng, w):
    """w with about half its letters replaced by equal five-letter words:
    sigma_i = sigma_j sigma_i sigma_j sigma_i^-1 sigma_j^-1 for j = i +- 1."""
    out = []
    for i, s in w.letters:
        js = [j for j in (i - 1, i + 1) if 1 <= j < w.n]
        if rng.random() < 0.5:
            j = rng.choice(js)
            five = BraidWord(w.n, ((j, 1), (i, 1), (j, 1), (i, -1), (j, -1)))
            out.extend((five if s == 1 else five.inverse()).letters)
        else:
            out.append((i, s))
    return BraidWord(w.n, tuple(out))


def test_screen_never_fires_on_trivial_words():
    # conjugated relator products, and w w'^-1 and w'^-1 w for a respelling
    # w' of w, which free reduction does not cancel
    rng = random.Random(33)
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        w = rand_braid(rng, n, 10)
        w2 = respelled(rng, w)
        for b in (conjugated_relators(rng, n, 3), w * w2.inverse(), w2.inverse() * w):
            assert not certainly_not_identity(b)
            assert is_identity(b)


def test_screen_answers_agree_with_the_exact_route():
    # every word the screen certifies is nontrivial in the exact block
    # matrix, and every word it leaves is trivial there: it misses no
    # flipped relator product and no nontrivial random word of the sample
    rng = random.Random(34)
    certified = 0
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        flip = relator(rng, n)
        flip = BraidWord(n, ((flip.letters[0][0], -flip.letters[0][1]),) + flip.letters[1:])
        for b in (
            conjugated_relators(rng, n, 2) * flip,
            rand_braid(rng, n, 8 if n < 5 else 6),
        ):
            exact = tau_plus(b).is_identity()
            if certainly_not_identity(b):
                certified += 1
                assert not exact
                assert not is_identity(b)
            else:
                assert exact, f"the screen missed {b!r}"
    assert certified >= 60


def mod_vectors(rng, size, count):
    """Seeded vectors mod P, with entries 0 and P - 1 among them, and one
    vector of each."""
    edge = [0, P - 1]
    vecs = [[0] * size, [P - 1] * size]
    vecs += [[rng.choice(edge) if rng.random() < 0.3 else rng.randrange(P) for _ in range(size)]
             for _ in range(count)]
    return vecs


def test_mod_kernels_equal_the_mod_tables():
    """Each compiled kernel gives the values of its table under dot_mod, on
    every generator of B_2 .. B_6; a push of 40 letters through the kernels
    equals the table push."""
    rng = random.Random(1501)
    for n in range(2, 7):
        size = n * (n + 1)
        for i in range(1, n):
            for sign in (1, -1):
                kernel = _kernel_mod(n, i, sign)
                for vec in mod_vectors(rng, size, 6):
                    assert kernel(vec) == apply_table(rows_mod(n, i, sign), vec, dot_mod)
                    assert kernel(tuple(vec)) == kernel(vec)
        for vec in mod_vectors(rng, size, 3):
            letters = [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(40)]
            assert _push_mod(n, letters, vec) == push(n, letters, [vec], rows_mod, dot_mod)[0]


def test_screen_verdicts_equal_the_table_push():
    """certainly_not_identity, which pushes through the kernels, answers as
    the probe pushed through the mod-P tables does, on relator products
    (trivial), relator products with one flipped relator and random words."""
    rng = random.Random(1502)
    verdicts = set()
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        for b in (
            conjugated_relators(rng, n, 3),
            conjugated_relators(rng, n, 2) * flipped(rng, n),
            rand_braid(rng, n, 12),
        ):
            u, v = probe_vectors(n * (n + 1))
            (mv,) = push(n, reversed(b.letters), [v], rows_mod, dot_mod)
            verdict = sum(x * y for x, y in zip(u, mv)) % P != sum(x * y for x, y in zip(u, v)) % P
            assert certainly_not_identity(b) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- Artin's action and the block fallback ----------------------------------------------


def flipped(rng, n):
    """A relator with its first letter inverted: one letter off trivial."""
    rel = relator(rng, n)
    return BraidWord(n, ((rel.letters[0][0], -rel.letters[0][1]),) + rel.letters[1:])


def action_samples(rng):
    """Long conjugated-relator products (trivial), the same with one
    flipped relator in the middle (near-trivial) and random words."""
    for _ in range(12):
        n = rng.choice([3, 4, 5])
        yield conjugated_relators(rng, n, 5)
        yield conjugated_relators(rng, n, 2) * flipped(rng, n) * conjugated_relators(rng, n, 2)
        yield rand_braid(rng, n, 8 if n < 5 else 6)


def test_action_decides_like_the_block_matrix():
    rng = random.Random(41)
    trivial = 0
    for b in action_samples(rng):
        exact = tau_plus(b).is_identity()
        assert _fixes_generators(b) is exact
        assert is_identity(b) is exact
        trivial += exact
    assert trivial >= 12


def spy_tau_plus(monkeypatch):
    calls = []
    original = K.tau_plus

    def spy(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(K, "tau_plus", spy)
    return calls


def test_shrunk_budget_falls_back_to_the_block_matrix(monkeypatch):
    rng = random.Random(42)
    samples = list(action_samples(rng))
    verdicts = [is_identity(b) for b in samples]
    calls = spy_tau_plus(monkeypatch)
    monkeypatch.setattr(K, "ACTION_LETTER_BUDGET", 2)
    assert [is_identity(b) for b in samples] == verdicts
    # the screen leaves only the trivial samples, and on each nonempty one
    # the action passes through a word of three letters or more
    assert len(calls) == sum(v for b, v in zip(samples, verdicts) if b.letters) > 0


def test_trivial_braids_never_reach_the_block_matrix(monkeypatch):
    rng = random.Random(43)
    calls = spy_tau_plus(monkeypatch)
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        w = rand_braid(rng, n, 10)
        w2 = respelled(rng, w)
        for b in (conjugated_relators(rng, n, 6), w * w2.inverse(), w2.inverse() * w):
            assert is_identity(b)
    assert calls == []
