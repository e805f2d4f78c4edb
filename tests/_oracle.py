"""Independent oracle: the representation built from first principles.

The production code ships closed-form generator matrices.  This oracle
derives them the long way: elements of the strand-0-fixing subgroup of the
(n+1)-strand braid group act as automorphisms of the free group on
y_0 .. y_n (y_k a loop around puncture k); the matrix of such an element
is the transposed Jacobian of Fox derivatives of the generator images,
pushed through the character y_0 -> t, y_k -> q.  Nothing here imports the
production matrix code, so agreement between the two is meaningful.
"""

from __future__ import annotations

from braidmoves.laurent import LaurentPoly

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def reduce_word(letters) -> Word:
    out: list[Letter] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def inv(word: Word) -> Word:
    return tuple((i, -s) for i, s in reversed(word))


def gen(i: int, sign: int = 1) -> Word:
    return ((i, sign),)


class Automorphism:
    """An automorphism of the free group on y_0 .. y_n, by generator images."""

    def __init__(self, n: int, images: dict[int, Word]):
        self.n = n
        self.images = images

    @staticmethod
    def identity(n: int) -> "Automorphism":
        return Automorphism(n, {})

    @staticmethod
    def strand_swap(n: int, k: int, sign: int = 1) -> "Automorphism":
        """The elementary braid exchanging punctures k and k+1 (0-based)."""
        if sign == 1:
            images = {k: gen(k + 1), k + 1: reduce_word(inv(gen(k + 1)) + gen(k) + gen(k + 1))}
        else:
            images = {k: reduce_word(gen(k) + gen(k + 1) + inv(gen(k))), k + 1: gen(k)}
        return Automorphism(n, images)

    def apply(self, word: Word) -> Word:
        out: list[Letter] = []
        for idx, sign in word:
            img = self.images.get(idx, gen(idx))
            out.extend(img if sign == 1 else inv(img))
        return reduce_word(out)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        idxs = set(self.images) | set(other.images)
        return Automorphism(
            self.n, {i: self.apply(other.images.get(i, gen(i))) for i in idxs}
        )


def b1n_automorphism(n: int, letters) -> Automorphism:
    """Automorphism of a word over the alphabet ("sigma", i, sign) /
    ("x", j, sign); rightmost letter acts first."""
    phi = Automorphism.identity(n)
    for kind, index, sign in letters:
        if kind == "sigma":
            piece = Automorphism.strand_swap(n, index, sign)
        else:
            piece = x_automorphism(n, index, sign)
        phi = phi.compose(piece)
    return phi


def x_automorphism(n: int, j: int, sign: int = 1) -> Automorphism:
    # x_j = s_{j-1} .. s_1 s_0^2 s_1^-1 .. s_{j-1}^-1 (strand 0 around
    # puncture j, passing in front of punctures 1..j-1)
    phi = Automorphism.identity(n)
    for k in range(j - 1, 0, -1):
        phi = phi.compose(Automorphism.strand_swap(n, k))
    phi = phi.compose(Automorphism.strand_swap(n, 0))
    phi = phi.compose(Automorphism.strand_swap(n, 0))
    for k in range(1, j):
        phi = phi.compose(Automorphism.strand_swap(n, k, -1))
    if sign == -1:
        # x_j^-1 is the conjugate of s_0^-2 by the same fronting word
        psi = Automorphism.identity(n)
        for k in range(j - 1, 0, -1):
            psi = psi.compose(Automorphism.strand_swap(n, k))
        psi = psi.compose(Automorphism.strand_swap(n, 0, -1))
        psi = psi.compose(Automorphism.strand_swap(n, 0, -1))
        for k in range(1, j):
            psi = psi.compose(Automorphism.strand_swap(n, k, -1))
        return psi
    return phi


def character(n: int, word: Word) -> LaurentPoly:
    a = b = 0
    for idx, sign in word:
        if idx == 0:
            b += sign
        else:
            a += sign
    return LaurentPoly.monomial(a, b)


def fox_row(n: int, word: Word) -> list[LaurentPoly]:
    """Character values of the Fox derivatives d(word)/d(y_j), j = 0..n."""
    row = [LaurentPoly.zero() for _ in range(n + 1)]
    suffix = LaurentPoly.one()
    for idx, sign in reversed(word):
        if sign == 1:
            row[idx] = row[idx] + suffix
        else:
            row[idx] = row[idx] - character(n, gen(idx, -1)) * suffix
        suffix = character(n, gen(idx, sign)) * suffix
    return row


def magnus_matrix(phi: Automorphism) -> list[list[LaurentPoly]]:
    """Transposed Fox Jacobian of the automorphism (a homomorphism)."""
    n = phi.n
    rows = [fox_row(n, phi.apply(gen(i))) for i in range(n + 1)]
    return [[rows[j][i] for j in range(n + 1)] for i in range(n + 1)]


def oracle_rho(n: int, kind: str, index: int, sign: int = 1):
    """rho of a single generator, derived from scratch."""
    return magnus_matrix(b1n_automorphism(n, [(kind, index if kind == "x" else index, sign)]))


def _product(a, b):
    """The product of two square matrices of Laurent polynomials."""
    cols = list(zip(*b))
    return [
        [sum((p * c for p, c in zip(row, col) if p and c), LaurentPoly.zero()) for col in cols]
        for row in a
    ]


def oracle_tau_word(n: int, letters):
    """tau of a mixed word, derived from scratch: the product of the
    letters' matrices, each q^deg times the matrix of its automorphism.
    Multiplying them keeps long free words cheap, where composing their
    automorphisms first would grow the images of the y_k with each letter."""
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    acc = [[one if i == j else zero for j in range(n + 1)] for i in range(n + 1)]
    for kind, index, sign in letters:
        m = magnus_matrix(b1n_automorphism(n, [(kind, index, sign)]))
        if kind == "x":
            scale = LaurentPoly.monomial(sign, 0)
            m = [[p * scale for p in row] for row in m]
        acc = _product(acc, m)
    return acc
