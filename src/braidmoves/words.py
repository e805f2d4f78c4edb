"""Braid words, free-group words, and the braid action on the free group.

Conventions, fixed once and used everywhere:

* A braid word lives in B_n, with Artin generators sigma_1 .. sigma_{n-1}.
  Letters are (index, sign) pairs; words are stored freely reduced
  (adjacent sigma_i sigma_i^-1 pairs cancelled).

* A free word lives in F_n, free on x_1 .. x_n (the loops around the n
  punctures of the plane, all based at a common point).  Words are stored
  freely reduced, so equality is plain sequence equality.

* B_n acts on F_n by the generator rules

      sigma_i:  x_i |-> x_{i+1},   x_{i+1} |-> x_{i+1}^-1 x_i x_{i+1},

  all other generators fixed, and a braid word g_1 g_2 ... g_k acts
  *functionally*: the rightmost letter acts first, so
  (g_1 ... g_k)(w) = g_1(g_2(... g_k(w))).  This orientation is pinned by
  anchors in the test suite, e.g. the 4-braid
  sigma_2^-2 sigma_1^-1 sigma_2^-1 sigma_3^-1 sigma_2^3 sigma_1 sigma_2 sigma_3
  must send x_3 to x_1.

Every value carries its strand/puncture count n, and binary operations
check it: the generator rules depend on n.  Both word types share one
implementation (the private base _Word) of the checks, free reduction and
the group operations.  A product takes two words of one type, and a braid
acts on free words only; a mixed operand raises TypeError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

Letter = tuple[int, int]  # (index, sign) with sign in {+1, -1}


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    # letters that are tuples already are kept, not copied: the words of a
    # search then share the few letter objects of the generator tables
    out: list[Letter] = []
    for letter in letters:
        idx, sign = letter
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append(letter if type(letter) is tuple else (idx, sign))
    return tuple(out)


def _inverse(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple((i, -s) for i, s in reversed(letters))


def _join(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The reduced form of a + b for reduced a and b: only the junction
    can cancel."""
    k, top = 0, min(len(a), len(b))
    while k < top and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
        k += 1
    return a[: len(a) - k] + b[k:]


def _trusted(cls, n: int, letters: tuple[Letter, ...]):
    """A word of cls from letters already checked against n and reduced."""
    word = object.__new__(cls)
    object.__setattr__(word, "n", n)
    object.__setattr__(word, "letters", letters)
    return word


class WordError(ValueError):
    """Malformed word text or out-of-range generator index."""


MAX_WORD_LETTERS = 100_000
"""The most letters a parsed word may expand to, counted before reduction."""


def _parse_tokens(
    text: str, prefix: str, top: int, name: str, kind: str
) -> tuple[Letter, ...]:
    """Expand tokens "<prefix>K^N" into letters, checking the index against
    1..top and the running length against MAX_WORD_LETTERS before any
    letter is produced.  Braid words also take signed integers k / -k."""
    letters: list[Letter] = []
    for tok in text.replace(",", " ").split():
        m = re.fullmatch(prefix + r"(\d+)(?:\^(-?\d+))?", tok)
        if m:
            idx, exp = int(m.group(1)), int(m.group(2) or 1)
        elif prefix == "s" and re.fullmatch(r"[-+]?\d+", tok):
            k = int(tok)
            if k == 0:
                raise WordError("0 is not a braid generator")
            idx, exp = abs(k), 1 if k > 0 else -1
        else:
            raise WordError(f"bad {kind} token {tok!r}")
        if not 1 <= idx <= top:
            raise WordError(f"{name.format(idx)} out of range 1..{top}")
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters")
        letters.extend([(idx, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(letters)


@dataclass(frozen=True)
class _Word:
    """What FreeWord and BraidWord share.  A subclass names its generators
    _NAME.format(i) for i = 1 .. n - _DROP, and its count _COUNT; a product
    with a word of the other type is NotImplemented."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.n < 1:
            raise WordError(f"{self._COUNT} count must be >= 1, got {self.n}")
        top = self.n - self._DROP
        for idx, sign in self.letters:
            if not 1 <= idx <= top:
                raise WordError(f"{self._NAME.format(idx)} out of range 1..{top}")
            if sign not in (1, -1):
                raise WordError(f"bad sign {sign}")
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def identity(cls, n: int):
        return cls(n, ())

    @classmethod
    def generator(cls, n: int, i: int, sign: int = 1):
        return cls(n, ((i, sign),))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise WordError(f"{self._COUNT} count mismatch: {self.n} vs {other.n}")
        return _trusted(type(self), self.n, _join(self.letters, other.letters))

    def inverse(self):
        return type(self)(self.n, _inverse(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)


@dataclass(frozen=True)
class FreeWord(_Word):
    """A freely reduced word in x_1 .. x_n and their inverses."""

    _NAME = "x{}"
    _DROP = 0
    _COUNT = "puncture"

    @staticmethod
    def parse(text: str, n: int) -> FreeWord:
        """Parse whitespace-separated tokens "xK" / "xK^-1" / "xK^N"."""
        return FreeWord(n, _parse_tokens(text, "x", n, FreeWord._NAME, "free-word"))

    def is_identity(self) -> bool:
        return not self.letters

    def exponent_sum(self, i: int | None = None) -> int:
        """Net exponent of x_i, or of all letters if i is None."""
        return sum(s for idx, s in self.letters if i is None or idx == i)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self.n}, {self})"


@dataclass(frozen=True)
class BraidWord(_Word):
    """A freely reduced word in sigma_1 .. sigma_{n-1} and their inverses."""

    _NAME = "sigma_{}"
    _DROP = 1
    _COUNT = "strand"

    @staticmethod
    def parse(text: str, n: int) -> BraidWord:
        """Parse a braid word.

        Accepts whitespace/comma-separated signed integers (k for sigma_k,
        -k for sigma_k^-1) or symbolic tokens "sK" / "sK^-1" / "sK^N".
        """
        return BraidWord(n, _parse_tokens(text, "s", n - 1, BraidWord._NAME, "braid"))

    def __pow__(self, k: int) -> BraidWord:
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(k))

    def is_trivial_word(self) -> bool:
        """True iff the reduced word is empty (not a solution of the word problem)."""
        return not self.letters

    def exponent_sum(self) -> int:
        return sum(s for _, s in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Image of strand positions 1..n under the underlying permutation."""
        perm = list(range(self.n + 1))  # perm[k] = where position k ends up
        for i, _ in reversed(self.letters):
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm[1:])

    def __call__(self, w: FreeWord) -> FreeWord:
        """Apply the braid automorphism to a free word (rightmost letter first)."""
        if not isinstance(w, FreeWord):
            raise TypeError(f"a braid acts on a FreeWord, not on {type(w).__name__}")
        if self.n != w.n:
            raise WordError(f"strand count mismatch: {self.n} vs {w.n}")
        letters = w.letters
        for i, sign in reversed(self.letters):
            letters = _apply_sigma(i, sign, letters)
        return _trusted(FreeWord, self.n, letters)

    def __str__(self) -> str:
        if not self.letters:
            return ""
        return " ".join(str(i * s) for i, s in self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.n}, {str(self) or '1'})"


@lru_cache(maxsize=None)
def _sigma_table(i: int, sign: int) -> dict[Letter, tuple[Letter, ...]]:
    """The image of each signed letter that sigma_i^sign moves, by the
    generator rules of the module docstring; other letters are fixed."""
    if sign == 1:
        images = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}
    else:
        images = {i + 1: ((i, 1),), i: ((i, 1), (i + 1, 1), (i, -1))}
    table = {}
    for idx, img in images.items():
        table[(idx, 1)] = img
        table[(idx, -1)] = _inverse(img)
    return table


def _apply_sigma(i: int, sign: int, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    table = _sigma_table(i, sign)
    out: list[Letter] = []
    for letter in letters:
        img = table.get(letter)
        if img is None:
            out.append(letter)
        else:
            out += img
    return _reduce(out)


def act_letters(b: BraidWord, letters: tuple[Letter, ...]) -> Iterator[tuple[Letter, ...]]:
    """The reduced words g_k(letters), g_{k-1}(g_k(letters)), ..., b(letters)
    for b = g_1 ... g_k, one per letter of b (rightmost first), so that a
    caller can stop the action early."""
    for i, sign in reversed(b.letters):
        letters = _apply_sigma(i, sign, letters)
        yield letters


def act_braid_on_free(b: BraidWord, w: FreeWord) -> FreeWord:
    """The automorphism image b(w); see the module docstring for orientation."""
    return b(w)


def y_basis_word(i: int, n: int) -> FreeWord:
    """The second basis element y_i = x_1 ... x_{i-1} x_i^-1 x_{i-1}^-1 ... x_1^-1,
    spelled by the letters of x_in_y_letters(i, 1) read as x-letters."""
    if not 1 <= i <= n:
        raise WordError(f"y{i} out of range 1..{n}")
    return FreeWord(n, x_in_y_letters(i, 1))


@lru_cache(maxsize=None)
def x_in_y_letters(i: int, sign: int) -> tuple[Letter, ...]:
    """x_i^sign rewritten in the y-basis (the involution swapping the bases).

    x_i = y_1 ... y_{i-1} y_i^-1 y_{i-1}^-1 ... y_1^-1, mirroring the
    definition of y_i in the x-basis.  Letters here are (index, sign) pairs
    read as y-generators.
    """
    pre = [(k, 1) for k in range(1, i)]
    post = [(k, -1) for k in range(i - 1, 0, -1)]
    word = tuple(pre + [(i, -1)] + post)
    return word if sign == 1 else _inverse(word)
