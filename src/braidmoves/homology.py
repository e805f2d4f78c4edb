"""Homology classes of based loops in the punctured plane, via Fox calculus.

Two relative first-homology modules appear, one for each of two basepoints
on the boundary.  Both are free of rank n over the matrix ring, but here
coefficients are kept in the integral group ring ZF_n for as long as
possible: the * anti-involution is explicit there (reverse the word and
invert it), and evaluation through tau happens only when a pairing is
tested for zero.

* The x-based module has basis e_1 .. e_n with e_i = [x_i]; the class of a
  loop word w is d(w), where d is the derivation

      d(x_i) = e_i,    d(uv) = d(u) v + d(v),    d(u^-1) = -d(u) u^-1,

  with coefficients multiplying the basis on the right.

* The y-based module has basis f_1 .. f_n with f_i = [y_i], where
  y_i = x_1 .. x_{i-1} x_i^-1 x_{i-1}^-1 .. x_1^-1; the class of a loop
  word is e(w) for the derivation

      e(y_i) = f_i,    e(uv) = u e(v) + e(u),

  with coefficients on the left.  Input in the x-basis is rewritten
  through the involution that swaps the two bases.

HomologyClassX and HomologyClassY share one implementation (the private
base _HomologyClass); a sum of classes from the two modules raises
TypeError.

Each derivation is computed by one sweep (sweep_x, sweep_y) that runs in
any ring: fox_x/fox_y run it in ZF_n, tau_components_x/y in the Magnus
matrices (flat rows pushed through the sparse tables x_left and y_right),
and modcheck on probe vectors mod p (a row times the y-side prefix, the
x-side suffix times a column).  fold_x gives the x-side of a pairing
without its components: it folds the letters of an x-loop over given
y-side steps, and the pairing module runs it on one map of packed terms
through the tables pairing.letter_scatter.

Classes built from a loop word carry that word as provenance; the star
correspondence and the braid action use it ([w]^* = [w^-1] in the other
module, and beta.[w] = [beta(w)]).  The braid action here is this
free-group route alone; the tests check it against the matrix-level
actions on tau-evaluated vectors, which live with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .magnus import (
    TABLES_KEPT,
    MagnusElement,
    RowMatrix,
    _tau_letter,
    row_table,
    tau,
    transposed_table,
)
from .words import (
    BraidWord,
    FreeWord,
    WordError,
    _reduce,
    x_in_y_letters,
)


class GroupRingElement:
    """A finite Z-linear combination of free words: an element of ZF_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[FreeWord, int] | None = None):
        self.n = n
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @staticmethod
    def zero(n: int) -> GroupRingElement:
        return GroupRingElement(n)

    @staticmethod
    def one(n: int) -> GroupRingElement:
        return GroupRingElement(n, {FreeWord.identity(n): 1})

    @staticmethod
    def from_word(w: FreeWord, coeff: int = 1) -> GroupRingElement:
        return GroupRingElement(w.n, {w: coeff})

    def _check(self, other: GroupRingElement):
        if self.n != other.n:
            raise WordError(f"puncture count mismatch: {self.n} vs {other.n}")

    @staticmethod
    def _lift(other: GroupRingElement | FreeWord) -> GroupRingElement:
        return GroupRingElement.from_word(other) if isinstance(other, FreeWord) else other

    def __add__(self, other: GroupRingElement | FreeWord) -> GroupRingElement:
        other = GroupRingElement._lift(other)
        try:
            self._check(other)
        except AttributeError:  # not an element of ZF_n
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        res = GroupRingElement(self.n)
        res.terms = out
        return res

    def __neg__(self) -> GroupRingElement:
        res = GroupRingElement(self.n)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other: GroupRingElement | FreeWord) -> GroupRingElement:
        return self + (-GroupRingElement._lift(other))

    def __mul__(self, other) -> GroupRingElement:
        if isinstance(other, int):
            return self.scale(other)
        other = GroupRingElement._lift(other)
        try:
            self._check(other)
        except AttributeError:  # not an element of ZF_n
            return NotImplemented
        out: dict[FreeWord, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        res = GroupRingElement(self.n)
        res.terms = out
        return res

    def __rmul__(self, other) -> GroupRingElement:
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, FreeWord):
            return GroupRingElement.from_word(other) * self
        return NotImplemented

    def scale(self, c: int) -> GroupRingElement:
        res = GroupRingElement(self.n)
        res.terms = {} if c == 0 else {w: c * v for w, v in self.terms.items()}
        return res

    def star(self) -> GroupRingElement:
        """The anti-involution of ZF_n: each word is inverted."""
        out: dict[FreeWord, int] = {}
        for w, c in self.terms.items():
            wi = w.inverse()
            out[wi] = out.get(wi, 0) + c
        return GroupRingElement(self.n, out)

    def augmentation(self) -> int:
        """Sum of integer coefficients (image under F_n -> 1)."""
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def tau_terms(self):
        """(word, coefficient) pairs; hook for the Z-linear extension of tau."""
        return self.terms.items()

    def sorted_terms(self) -> list[tuple[FreeWord, int]]:
        return sorted(self.terms.items(), key=lambda wc: (len(wc[0]), wc[0].letters))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for w, c in self.sorted_terms():
            body = str(w) if abs(c) == 1 else f"{abs(c)}*{w}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"GroupRingElement({self.n}, {self})"


@dataclass(frozen=True)
class _HomologyClass:
    """What the x- and y-based classes share: n coefficients in ZF_n, an
    optional loop word, and the module operations.  A subclass names its
    basis vectors _BASIS + "1" .. _BASIS + str(n); a sum with a class of
    the other module is NotImplemented."""

    n: int
    coeffs: tuple[GroupRingElement, ...]
    loop: FreeWord | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != self.n:
            raise WordError(f"expected {self.n} coefficients, got {len(self.coeffs)}")

    def coefficient(self, i: int) -> GroupRingElement:
        return self.coeffs[i - 1]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise WordError("puncture count mismatch")
        return type(self)(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(self.n, tuple(-c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self) -> str:
        parts = [f"{self._BASIS}{i}*({c})" for i, c in enumerate(self.coeffs, 1) if c]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyClassX(_HomologyClass):
    """An element of the x-based module, written sum_i e_i c_i."""

    _BASIS = "e"

    def right_mul(self, r: GroupRingElement | FreeWord | int) -> HomologyClassX:
        """Componentwise right multiplication; drops loop provenance."""
        return HomologyClassX(self.n, tuple(c * r for c in self.coeffs))


@dataclass(frozen=True)
class HomologyClassY(_HomologyClass):
    """An element of the y-based module, written sum_i c_i f_i."""

    _BASIS = "f"

    def left_mul(self, r: GroupRingElement | FreeWord | int) -> HomologyClassY:
        """Componentwise left multiplication; drops loop provenance."""
        return HomologyClassY(self.n, tuple(r * c for c in self.coeffs))


# -- the derivations ----------------------------------------------------
#
# A sweep takes the ring's identity, its zero and image(idx, sign), the
# image of the letter idx^sign; in ZF_n the images are FreeWords and the
# accumulators GroupRingElements.  It keeps the image of the running suffix
# or prefix, so it makes one pass over the word.  Passing a column (x-side)
# or a row (y-side) as one, with the zero of its shape, gives each
# component times that vector.


def sweep_x(w: FreeWord, one, zero, image) -> tuple:
    """The components of [w]_x: d(l_1 .. l_m) = sum_k d(l_k) (l_{k+1} .. l_m),
    one right-to-left pass over the x-letters."""
    if not isinstance(w, FreeWord):
        raise TypeError(f"a sweep reads a FreeWord, not a {type(w).__name__}")
    comps = [zero] * w.n
    suffix = one
    for idx, sign in reversed(w.letters):
        if sign == 1:
            comps[idx - 1] = comps[idx - 1] + suffix
            suffix = image(idx, 1) * suffix
        else:
            suffix = image(idx, -1) * suffix
            comps[idx - 1] = comps[idx - 1] - suffix
    return tuple(comps)


def fold_x(w: FreeWord, steps, zero, image):
    """sum_i R_i d_i over the components d_i of [w]_x, without forming the
    components: one left-to-right pass over the x-letters.

    After the letters l_1 .. l_k the accumulator is the sum for
    [l_1 .. l_k]_x.  d(u l) = d(u) l + d(l), with d(x_i) = e_i and
    d(x_i^-1) = -e_i x_i^-1, updates it by acc <- acc X + K, with
    X = image(i, sign), which multiplies acc on the right, and the constant
    K = steps(i, sign): R_i for l = x_i and -R_i X for l = x_i^-1, which
    gives (acc - R_i) X without pushing R_i through X.  K is added in place
    (acc += K) to the fresh product acc X.
    """
    acc = zero
    for idx, sign in w.letters:
        acc = acc * image(idx, sign)
        acc += steps(idx, sign)
    return acc


def _y_letters_of(w: FreeWord) -> tuple:
    out: list = []
    for idx, sign in w.letters:
        out.extend(x_in_y_letters(idx, sign))
    return _reduce(tuple(out))


def sweep_y(w: FreeWord, one, zero, image) -> tuple:
    """The components of [w]_y: e(l_1 .. l_m) = sum_k (l_1 .. l_{k-1}) e(l_k),
    one left-to-right pass over w rewritten in the y-letters; image(idx,
    sign) is the image of y_idx^sign."""
    if not isinstance(w, FreeWord):
        raise TypeError(f"a sweep reads a FreeWord, not a {type(w).__name__}")
    comps = [zero] * w.n
    prefix = one
    for idx, sign in _y_letters_of(w):
        if sign == 1:
            comps[idx - 1] = comps[idx - 1] + prefix
            prefix = prefix * image(idx, 1)
        else:
            prefix = prefix * image(idx, -1)
            comps[idx - 1] = comps[idx - 1] - prefix
    return tuple(comps)


@lru_cache(maxsize=TABLES_KEPT)
def _y_word(n: int, idx: int, sign: int) -> FreeWord:
    return FreeWord(n, x_in_y_letters(idx, sign))


def fox_x(w: FreeWord) -> HomologyClassX:
    """[w]_x = d(w), with w carried as provenance."""
    n = w.n
    comps = sweep_x(
        w, FreeWord.identity(n), GroupRingElement.zero(n), partial(FreeWord.generator, n)
    )
    return HomologyClassX(n, comps, loop=w)


def fox_y(w: FreeWord) -> HomologyClassY:
    """[w]_y = e(w), with w carried as provenance.

    The coefficients are x-basis words: the running prefix is kept as the
    product of the y-basis words, and reduced words are unique.
    """
    n = w.n
    comps = sweep_y(w, FreeWord.identity(n), GroupRingElement.zero(n), partial(_y_word, n))
    return HomologyClassY(n, comps, loop=w)


# -- the star correspondence and the braid action -----------------------


class ProvenanceError(ValueError):
    """An operation needed the defining loop word, but none was carried."""


def star_x_to_y(v: HomologyClassX) -> HomologyClassY:
    """[w]_x^* = [w^-1]_y.  Requires loop provenance."""
    if v.loop is None:
        raise ProvenanceError(
            "star of an x-class needs its loop word; "
            "a basis-expansion form exists only at the group-ring level "
            "(see star_x_components)"
        )
    return fox_y(v.loop.inverse())


def star_y_to_x(w: HomologyClassY) -> HomologyClassX:
    """[w]_y^* = [w^-1]_x.  Requires loop provenance."""
    if w.loop is None:
        raise ProvenanceError("star of a y-class needs its loop word")
    return fox_x(w.loop.inverse())


@lru_cache(maxsize=TABLES_KEPT)
def _e_star(n: int, i: int) -> HomologyClassY:
    return fox_y(FreeWord.generator(n, i, -1))


def star_x_components(v: HomologyClassX) -> HomologyClassY:
    """Star computed from the basis expansion: sum e_i r_i |-> sum r_i^* e_i^*.

    Valid because the coefficients live in ZF_n, where * is word
    inversion; agrees with star_x_to_y on classes of loops (tested).
    """
    acc = HomologyClassY(v.n, tuple(GroupRingElement.zero(v.n) for _ in range(v.n)))
    for i in range(1, v.n + 1):
        r = v.coefficient(i)
        if not r.is_zero():
            acc = acc + _e_star(v.n, i).left_mul(r.star())
    return acc


def left_action(b: BraidWord, v: HomologyClassX) -> HomologyClassX:
    """[beta gamma]_x from [gamma]_x, via the free-group route."""
    if v.loop is None:
        raise ProvenanceError("braid action on an x-class needs its loop word")
    if b.n != v.n:
        raise WordError("strand count mismatch")
    return fox_x(b(v.loop))


def left_action_y(b: BraidWord, w: HomologyClassY) -> HomologyClassY:
    """[beta delta]_y from [delta]_y, via the free-group route."""
    if w.loop is None:
        raise ProvenanceError("braid action on a y-class needs its loop word")
    if b.n != w.n:
        raise WordError("strand count mismatch")
    return fox_y(b(w.loop))


# -- tau-evaluated components, computed in one sweep ----------------------


def _tau_y(n: int, idx: int, sign: int) -> MagnusElement:
    return tau(_y_word(n, idx, sign))


# The exact generator tables of the sweeps, in the one format of
# magnus.row_table, on flat rows held in magnus.RowMatrix: y_right
# multiplies on the right (r -> r G, the transposed_table of G), x_left on
# the left, applied to the rows of a transpose (the row_table of G); the
# fold reads pairing.letter_scatter.  modcheck reduces x_left and y_right
# mod P.
# Only y_right is kept: the pairing runs tau_components_y, no query runs
# tau_components_x, and modcheck.x_mod keeps x_left mod P.


def x_left(n: int, j: int, sign: int) -> tuple:
    """v -> tau(x_j^sign) v."""
    return row_table(_tau_letter(n, "x", j, sign).entries)


@lru_cache(maxsize=TABLES_KEPT)
def y_right(n: int, idx: int, sign: int) -> tuple:
    """r -> r tau(y_idx^sign)."""
    return transposed_table(_tau_y(n, idx, sign))


def tau_components_x(w: FreeWord) -> tuple[MagnusElement, ...]:
    """tau of each coefficient of [w]_x, by one sweep over the x-letters.

    The running suffix is held transposed, as rows (magnus.RowMatrix),
    each pushed through x_left, so no matrix product is formed.  Agrees
    with evaluate_x(fox_x(w)) (tested).
    """
    size = w.n + 1
    comps = sweep_x(w, RowMatrix.identity(size), RowMatrix.zero(size), partial(x_left, w.n))
    return tuple(c.transposed_element() for c in comps)


def tau_components_y(w: FreeWord) -> tuple[MagnusElement, ...]:
    """tau of each coefficient of [w]_y, by one sweep over the y-letters.

    The running prefix is kept as rows (magnus.RowMatrix), each pushed
    through y_right, so no matrix product is formed.  Agrees with
    evaluate_y(fox_y(w)) (tested).
    """
    size = w.n + 1
    comps = sweep_y(w, RowMatrix.identity(size), RowMatrix.zero(size), partial(y_right, w.n))
    return tuple(c.element() for c in comps)


# -- tau-evaluation of classes --------------------------------------------
#
# tau applied coefficient by coefficient; the pairing module uses it for
# classes without a loop word, and the tests use it to check the sweeps
# and the matrix-level braid actions (tests/_vectors.py).

XVector = tuple[MagnusElement, ...]
YVector = tuple[MagnusElement, ...]


def evaluate_x(v: HomologyClassX) -> XVector:
    return tuple(tau(c) if c else MagnusElement.zero(v.n + 1) for c in v.coeffs)


def evaluate_y(w: HomologyClassY) -> YVector:
    return tuple(tau(c) if c else MagnusElement.zero(w.n + 1) for c in w.coeffs)
