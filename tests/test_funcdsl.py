from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compwiretap import (
    MultilinearPolynomial,
    ParseError,
    TruthTable,
    degree,
    parse_poly,
    parse_table,
    serialize_poly,
    serialize_table,
    term_count,
    wht,
)
from helpers import maj3_poly, maj3_table, random_rational_poly, zchannel_g_poly


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

def test_parse_maj3():
    poly = parse_poly("1/2*(x1 + x2 + x3 - x1*x2*x3)")
    assert poly == maj3_poly()
    assert all(isinstance(v, Fraction) for v in poly.coeffs.values())


def test_parse_square_reduces():
    assert parse_poly("x1*x1").coeffs == {0: Fraction(1)}


def test_parse_zchannel_polynomial():
    poly = parse_poly(
        "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)")
    assert poly == zchannel_g_poly()
    assert degree(poly) == 3
    assert term_count(poly) == 8


def test_parse_precedence_and_unary_minus():
    # '*' binds tighter than '+'/'-'
    assert parse_poly("1 - x1*x2").coeffs == {0: Fraction(1), 3: Fraction(-1)}
    assert parse_poly("-x1*x2").coeffs == {3: Fraction(-1)}
    assert parse_poly("1 + -x1").coeffs == {0: Fraction(1), 1: Fraction(-1)}
    assert parse_poly("2*(x1 + 1)").coeffs == {0: Fraction(2), 1: Fraction(2)}


def test_parse_whitespace_insignificant():
    a = parse_poly("1/2*x1+1/2*x2")
    b = parse_poly("  1/2 * x1   +   1/2 * x2 ")
    assert a == b


def test_parse_decimals_exact():
    assert parse_poly("0.25*x1").coeffs == {1: Fraction(1, 4)}
    assert parse_poly(".5").coeffs == {0: Fraction(1, 2)}


def test_parse_exact_thirds():
    assert parse_poly("1/3 + 1/3 + 1/3").coeffs == {0: Fraction(1)}


def test_parse_declared_n():
    poly = parse_poly("x1", declared_n=4)
    assert poly.n == 4
    assert parse_poly("3").n == 1  # constants live on one variable
    assert parse_poly("x2*x5").n == 5  # implicit n = max index


def test_parse_cancellation_drops_terms():
    assert parse_poly("x1*x2 - x2*x1").coeffs == {}
    assert serialize_poly(parse_poly("x1 - x1")) == "0"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("   ")
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x0 + 1")
    with pytest.raises(ParseError):
        parse_poly("x3", declared_n=2)
    with pytest.raises(ParseError):
        parse_poly("1/0")
    with pytest.raises(ParseError):
        parse_poly("(x1 + x2")
    with pytest.raises(ParseError):
        parse_poly("x1 x2")  # missing operator
    with pytest.raises(ParseError):
        parse_poly("x1 / 2")  # '/' only inside fraction literals


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_maj3_canonical():
    assert serialize_poly(maj3_poly()) == \
        "1/2*x1 + 1/2*x2 + 1/2*x3 - 1/2*x1*x2*x3"


def test_serialize_zero_and_units():
    assert serialize_poly(MultilinearPolynomial(2, {})) == "0"
    assert serialize_poly(MultilinearPolynomial(2, {1: Fraction(1)})) == "x1"
    assert serialize_poly(MultilinearPolynomial(2, {1: Fraction(-1)})) == "-x1"
    assert serialize_poly(MultilinearPolynomial(1, {0: Fraction(7)})) == "7"


def test_serialize_orders_by_size_then_mask():
    poly = MultilinearPolynomial(3, {
        0b111: Fraction(1), 0b100: Fraction(1), 0b011: Fraction(1),
        0: Fraction(2)})
    assert serialize_poly(poly) == "2 + x3 + x1*x2 + x1*x2*x3"


def test_parse_serialize_roundtrip_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        poly = random_rational_poly(rng, n, max_terms=10)
        text = serialize_poly(poly)
        again = parse_poly(text, declared_n=n)
        assert again == poly
        assert serialize_poly(again) == text  # idempotent on text


def test_serialize_float_coefficients_roundtrip():
    # dyadic floats from a transform serialize as exact fractions
    poly = wht(maj3_table())
    text = serialize_poly(poly)
    assert text == "1/2*x1 + 1/2*x2 + 1/2*x3 - 1/2*x1*x2*x3"
    assert parse_poly(text) == poly  # Fraction(1,2) == 0.5


# Coefficients the canonical form writes as exact fractions: rationals,
# and dyadic floats such as transforms of ±1 or quarter-valued tables.
_EXACT_COEFFICIENTS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    st.builds(lambda k, e: k / 2.0 ** e,
              st.integers(-(1 << 30), 1 << 30), st.integers(0, 40)))


@st.composite
def _exact_polynomials(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    coeffs = draw(st.dictionaries(
        st.integers(0, (1 << n) - 1),
        _EXACT_COEFFICIENTS.filter(lambda c: c != 0), max_size=24))
    return MultilinearPolynomial(n, coeffs)


@given(_exact_polynomials())
def test_parse_serialize_roundtrip_property(poly):
    text = serialize_poly(poly)
    again = parse_poly(text, declared_n=poly.n)
    assert again == poly
    assert serialize_poly(poly) == text
    assert serialize_poly(again) == text


@st.composite
def _float_polynomials(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    coeffs = draw(st.dictionaries(
        st.integers(0, (1 << n) - 1),
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0),
        max_size=24))
    return MultilinearPolynomial(n, coeffs)


@given(_float_polynomials())
def test_parse_serialize_roundtrip_float_property(poly):
    # a float written as its repr reads back as that decimal's rational,
    # whose float is the original; the text settles after one more pass
    text = serialize_poly(poly)
    again = parse_poly(text, declared_n=poly.n)
    assert set(again.coeffs) == set(poly.coeffs)
    for mask, value in poly.coeffs.items():
        assert float(again.coeffs[mask]) == value
    settled = serialize_poly(again)
    assert serialize_poly(parse_poly(settled, declared_n=poly.n)) == settled


@pytest.mark.parametrize("value", [1e-20, 1.5e-07, 1e16, -2.5e300, 5e-324])
def test_serialize_exponent_floats_parse_back(value):
    text = serialize_poly(MultilinearPolynomial(2, {1: value}))
    assert "e" in text
    assert float(parse_poly(text).coeffs[1]) == value


def test_parse_decimal_exponent():
    assert parse_poly("2E3 + .5e-1*x2").coeffs == {0: 2000, 2: Fraction(1, 20)}
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("1e1000*x1")


# ---------------------------------------------------------------------------
# Truth-table files
# ---------------------------------------------------------------------------

def test_parse_table_csv_dictator():
    text = "# n=1\nindex,value\n0,1\n1,-1\n"
    table = parse_table(text)
    assert wht(table).coeffs == {1: 1.0}


def test_parse_table_csv_maj3():
    lines = ["# n=3", "index,value"]
    lines += [f"{i},{v}" for i, v in enumerate(maj3_table().values)]
    assert parse_table("\n".join(lines)) == maj3_table()


def test_parse_table_csv_point_rows():
    text = "\n".join([
        "# n=2", "index,value",
        "+1 +1,4", "-1 +1,3", "+1 -1,2", "-1 -1,1"])
    table = parse_table(text)
    assert list(table.values) == [4.0, 3.0, 2.0, 1.0]


def test_parse_table_csv_fraction_values():
    text = "# n=1\nindex,value\n0,1/2\n1,-0.25\n"
    assert list(parse_table(text).values) == [0.5, -0.25]


def test_parse_table_infers_n():
    text = "index,value\n0,1\n1,2\n2,3\n3,4\n"
    assert parse_table(text).n == 2


def test_parse_table_errors():
    with pytest.raises(ParseError):
        parse_table("# n=3\nindex,value\n" +
                    "\n".join(f"{i},1" for i in range(7)))  # missing row
    with pytest.raises(ParseError):
        parse_table("# n=1\nindex,value\n0,1\n0,2\n")  # duplicate index
    with pytest.raises(ParseError):
        parse_table("# n=1\nindex,value\n0,1\n1,abc\n")
    with pytest.raises(ParseError):
        parse_table("# n=2\nindex,value\n+1 0,1\n" +
                    "\n".join(f"{i},1" for i in range(1, 4)))  # non-±1 point
    with pytest.raises(ParseError):
        parse_table("index,value\n0,1\n1,2\n2,3\n")  # not a power of two
    with pytest.raises(ParseError):
        parse_table("")


def test_parse_table_json():
    table = parse_table('{"n": 2, "values": [1, -1, -1, 1]}')
    assert wht(table).coeffs == {0b11: 1.0}
    with pytest.raises(ParseError):
        parse_table('{"n": 2, "values": [1, -1]}')
    with pytest.raises(ParseError):
        parse_table('{"values": [1, -1]}')
    with pytest.raises(ParseError):
        parse_table('{not json')


def test_serialize_table_roundtrip():
    table = maj3_table()
    assert parse_table(serialize_table(table, "csv")) == table
    assert parse_table(serialize_table(table, "json")) == table
    with pytest.raises(ValueError):
        serialize_table(table, "xml")
