import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidmoves.homology import GroupRingElement
from braidmoves.laurent import ONE, Q, T, ZERO, LaurentPoly
from braidmoves.magnus import MagnusElement
from braidmoves.words import FreeWord

polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-20, 20),
    max_size=6,
).map(LaurentPoly)


def test_basic_products():
    assert (ONE - Q) * Q == Q - Q * Q
    p = LaurentPoly({(2, -1): 3, (0, 0): -1})
    assert (p + (-p)).is_zero()
    assert (ONE - T) * (ONE - Q) == ONE - Q - T + Q * T


def test_zero_detection_brute_force():
    # independent oracle: accumulate the same combination term by term
    combo = [
        ((0, 0), 1), ((1, 0), -1), ((1, 1), 1),
        ((1, 0), -1), ((1, 1), -1), ((1, 0), 1),
        ((0, 0), -1), ((1, 0), 2),
    ]
    acc: dict[tuple[int, int], int] = {}
    for key, c in combo:
        acc[key] = acc.get(key, 0) + c
    expected = LaurentPoly({k: v for k, v in acc.items() if v})
    value = (
        ONE - Q + T * Q - Q * ONE - (T * Q - Q) - (ONE - Q.scale(2))
    )
    assert value.is_zero() == expected.is_zero()
    assert value == expected
    assert (value - value).is_zero()


def test_units():
    for a, b in [(1, 0), (-2, 3), (0, -1), (5, 5)]:
        m = LaurentPoly.monomial(a, b)
        assert m * LaurentPoly.monomial(-a, -b) == ONE


@given(polys, polys, polys)
@settings(max_examples=150)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p + r == r + p
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p + ZERO == p
    assert p * ONE == p


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


def test_text_form():
    assert str(ZERO) == "0"
    assert str(ONE - Q + Q * T) == "1 - q + q*t"
    assert str(LaurentPoly.monomial(-1, 2, -3)) == "-3*q^-1*t^2"


X1 = FreeWord.generator(3, 1)


@pytest.mark.parametrize(
    "mixed",
    [
        lambda: Q + 1,
        lambda: Q - 1,
        lambda: Q + X1,
        lambda: Q * X1,
        lambda: GroupRingElement.from_word(X1) + Q,
        lambda: GroupRingElement.from_word(X1) * "x",
        lambda: MagnusElement.identity(4) + 1,
        lambda: MagnusElement.identity(4) - 1,
    ],
    ids=["poly+int", "poly-int", "poly+word", "poly*word", "ring+poly", "ring*str",
         "matrix+int", "matrix-int"],
)
def test_mixed_type_ring_arithmetic_raises_type_error(mixed):
    with pytest.raises(TypeError):
        mixed()
