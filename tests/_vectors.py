"""Matrix-level braid actions on tau-evaluated coefficient vectors.

Detection never uses these; the tests use them to check the free-group
route (the braid action on loop words, then the Fox sweeps) against the
matrix route.  The left action on an x-side vector is the block matrix of
the braid acting on a column (krammer.tau_plus_act); the right action on a
y-side vector is written out here generator by generator.
"""

from __future__ import annotations

from braidmoves.homology import XVector, YVector
from braidmoves.magnus import MagnusElement, tau
from braidmoves.words import BraidWord, y_basis_word


def x_vector_right_mul(vec: XVector, m: MagnusElement) -> XVector:
    return tuple(r * m for r in vec)


def y_vector_apply_sigma(n: int, i: int, sign: int, vec: YVector) -> YVector:
    """Right action of sigma_i^sign on a y-side coefficient vector."""
    out = list(vec)
    ts = tau(BraidWord.generator(n, i, sign))
    one = MagnusElement.identity(n + 1)
    yi = tau(y_basis_word(i, n))
    if sign == -1:
        ci, cj = vec[i - 1], vec[i]
        yj = tau(y_basis_word(i + 1, n))
        out[i - 1] = ci * (one - yi) * ts + cj * ts
        out[i] = ci * yj * ts
    else:
        ci, cj = vec[i - 1], vec[i]
        fwd = ts * tau(y_basis_word(i + 1, n).inverse())  # tau(sigma_i y_{i+1}^-1)
        out[i - 1] = cj * fwd
        out[i] = ci * ts - cj * fwd * (one - yi)
    for k in range(n):
        if k not in (i - 1, i):
            out[k] = vec[k] * ts
    return tuple(out)


def y_vector_act(vec: YVector, b: BraidWord) -> YVector:
    """Right action of a braid word: v . (gh) = (v . g) . h."""
    for i, sign in b.letters:
        vec = y_vector_apply_sigma(b.n, i, sign, vec)
    return vec


def y_vector_left_mul(m: MagnusElement, vec: YVector) -> YVector:
    return tuple(m * c for c in vec)
