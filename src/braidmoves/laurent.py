"""Exact arithmetic in the Laurent polynomial ring Z[q, q^-1, t, t^-1].

A polynomial is stored as a map from exponent pairs (a, b) to nonzero
integer coefficients, where (a, b) stands for the monomial q^a t^b.
Coefficients are arbitrary-precision ints: products of matrices over this
ring grow quickly, and an overflow would silently corrupt zero tests.

Values are immutable once constructed; all operations return new values.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _term_key(exps: tuple[int, int]) -> tuple[int, int, int]:
    # graded-lex order on (a, b): total degree first, then lexicographic
    a, b = exps
    return (a + b, a, b)


class LaurentPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        """Build from an exponent-pair -> coefficient map; zeros are dropped."""
        if terms:
            self._terms = {k: v for k, v in terms.items() if v}
        else:
            self._terms = {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return _ZERO

    @staticmethod
    def one() -> LaurentPoly:
        return _ONE

    @staticmethod
    def monomial(a: int, b: int, coeff: int = 1) -> LaurentPoly:
        """coeff * q^a * t^b"""
        return LaurentPoly({(a, b): coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        try:
            terms = other._terms
        except AttributeError:  # no type test on the hot path
            return NotImplemented
        out = dict(self._terms)
        for k, v in terms.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                del out[k]
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    def __neg__(self) -> LaurentPoly:
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {k: -v for k, v in self._terms.items()}
        return res

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return self.scale(other)
        try:
            oterms = other._terms
        except AttributeError:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in oterms.items():
                k = (a1 + a2, b1 + b2)
                w = out.get(k, 0) + c1 * c2
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def scale(self, c: int) -> LaurentPoly:
        if c == 0:
            return _ZERO
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {k: c * v for k, v in self._terms.items()}
        return res

    # -- predicates and access ----------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in canonical (graded-lex) order."""
        return iter(sorted(self._terms.items(), key=lambda kv: _term_key(kv[0])))

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Canonically ordered list of [a, b, coeff] triples."""
        return [[a, b, c] for (a, b), c in self.terms()]

    @staticmethod
    def from_json(data: Iterable[Iterable[int]]) -> LaurentPoly:
        out: dict[tuple[int, int], int] = {}
        for a, b, c in data:
            k = (int(a), int(b))
            w = out.get(k, 0) + int(c)
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        return LaurentPoly(out)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (a, b), c in self.terms():
            mon = "*".join(
                s
                for s in (
                    _var_str("q", a),
                    _var_str("t", b),
                )
                if s
            )
            if not mon:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mon
            else:
                body = f"{abs(c)}*{mon}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _var_str(name: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({(0, 0): 1})

ZERO = _ZERO
ONE = _ONE
Q = LaurentPoly({(1, 0): 1})
T = LaurentPoly({(0, 1): 1})
