import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compwiretap import (
    MultilinearPolynomial,
    ParseError,
    TruthTable,
    degree,
    parse_poly,
    parse_table,
    serialize_poly,
    term_count,
    wht,
)
from compwiretap import boolfn, funcdsl
from helpers import (
    PRODUCT_20,
    ReferenceParser,
    expand_expression,
    maj3_poly,
    maj3_table,
    random_rational_poly,
    reference_parse_poly,
    reference_parse_table_csv,
    reference_serialize_poly,
    reference_tokenize,
    serialize_table,
    zchannel_g_poly,
)


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


def _terms(poly) -> list:
    return [(mask, type(value), value)
            for mask, value in zip(poly.masks.tolist(), poly.values.tolist())]


def test_parse_term_order_keeps_the_first_place_of_a_cancelled_mask():
    # x1 cancels inside the parentheses and comes back: it keeps its
    # first place, ahead of the constant
    assert _terms(parse_poly("(x1 - x1 + 2 + x1)*x1 - 3")) == [
        (0, Fraction, -2), (1, Fraction, 2)]
    assert _terms(parse_poly("x1 - x1 + x2 + x1")) == [
        (1, Fraction, 1), (2, Fraction, 1)]
    # a parenthesised sum drops its zeros when it ends
    assert _terms(parse_poly("(x1 - x1 + x2) + x1")) == [
        (2, Fraction, 1), (1, Fraction, 1)]


_CONSTANTS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])


@st.composite
def _expressions(draw, n, depth=2):
    """``(text, tree)`` of a random expression over x1..xn, with up to
    ``depth`` levels of parentheses; see ``helpers.expand_expression``."""
    terms, texts, bodies = [], [], []
    for k in range(draw(st.integers(1, 4))):
        if k and draw(st.booleans()):
            # an earlier term with the opposite sign, so that its masks'
            # running sums pass through zero
            j = draw(st.integers(0, k - 1))
            op = "-" if terms[j][0] == "+" else "+"
            terms.append((op, terms[j][1]))
            bodies.append(bodies[j])
            texts.append(f" {op} {bodies[j]}")
            continue
        op = draw(st.sampled_from("+-")) if k else "+"
        negate = draw(st.booleans())
        factors, factor_texts = [], []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("num", "var", "var", "sum")[:4 if depth else 3]))
            if kind == "num":
                factor = ("num", draw(_CONSTANTS))
                text = str(factor[1])
            elif kind == "var":
                factor = ("var", draw(st.integers(1, n)))
                text = f"x{factor[1]}"
            else:
                text, factor = draw(_expressions(n, depth - 1))
                text = f"({text})"
            factors.append(factor)
            factor_texts.append(text)
        terms.append((op, ("term", negate, factors)))
        bodies.append(("-" if negate else "") + "*".join(factor_texts))
        texts.append(f" {op} {bodies[-1]}" if k else bodies[-1])
    return "".join(texts), ("sum", terms)


# a few percent of these expressions order their terms differently
# where a cancelled mask loses its place, so the test draws more
@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(_expressions))
def test_parse_term_order_matches_the_documented_rule(case):
    text, tree = case
    expected = [(mask, type(value), value)
                for mask, value in expand_expression(tree)]
    assert _terms(parse_poly(text, 6)) == expected


def test_parse_refuses_a_product_over_the_pair_cap():
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        parse_poly(PRODUCT_20)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (
        "exact product of 1024 by 1024 terms exceeds the cap of "
        "65536 term pairs")


def test_parse_product_at_the_pair_cap_computes(monkeypatch):
    monkeypatch.setattr(boolfn, "_MAX_EXACT_PAIRS", 4)
    assert parse_poly("(1 + x1)*(1 + x2)").coeffs == {
        0: 1, 1: 1, 2: 1, 3: 1}
    with pytest.raises(ValueError, match="of 4 by 2 terms exceeds the cap of 4 "):
        parse_poly("(1 + x1)*(1 + x2)*(1 + x3)")


SUM_OF_PRODUCTS = "(1+x1)*(1+x2) + (1+x3)*(1+x4) + (1+x5)*(1+x6)"


def test_parse_cap_counts_every_product_of_one_expression(monkeypatch):
    # 4 term pairs per product, 12 in all
    monkeypatch.setattr(funcdsl, "_MAX_PARSE_PAIRS", 12)
    assert len(parse_poly(SUM_OF_PRODUCTS).coeffs) == 10
    assert len(parse_poly(SUM_OF_PRODUCTS).coeffs) == 10  # no count carried over
    monkeypatch.setattr(funcdsl, "_MAX_PARSE_PAIRS", 11)
    real = funcdsl._convolve
    convolved = []

    def counting(a, b, out=None):
        if out is None:  # a product (or a negation), not a sum
            convolved.append(len(a) * len(b))
        return real(a, b, out)

    monkeypatch.setattr(funcdsl, "_convolve", counting)
    with pytest.raises(ValueError) as err:
        parse_poly(SUM_OF_PRODUCTS)
    assert str(err.value) == (
        "exact products of the expression exceed the cap of 11 term pairs in all")
    assert sum(convolved) == 8  # refused before the third product ran


def test_parse_cap_admits_the_canonical_text_of_a_dense_table(monkeypatch):
    # a term of degree d is written with at most d one-pair products, so
    # the text of a dense table needs at most n * 2**(n-1) pairs: 2**19
    # at n = 16
    assert 16 << 15 <= funcdsl._MAX_PARSE_PAIRS
    n = 10
    rng = np.random.default_rng(12)
    poly = wht(TruthTable(n, rng.integers(-8, 9, 1 << n) / 4))
    assert len(poly.coeffs) > 1000
    monkeypatch.setattr(funcdsl, "_MAX_PARSE_PAIRS", n << (n - 1))
    parsed = parse_poly(serialize_poly(poly), n)
    assert {m: float(v) for m, v in parsed.coeffs.items()} == poly.coeffs


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


def _parsed(parser_class, text: str) -> tuple:
    """The terms one parser class gives ``text``, with their value types,
    and the term pairs its products counted."""
    parser = parser_class(text)
    terms = [(mask, type(value), value) for mask, value in parser.expr().items()]
    return terms, parser.pairs


@settings(max_examples=300)
@given(st.one_of(
    st.sampled_from(["(1 + x1)*x1 - x1", "x1*x2 - x2*x1", "-(1 + x2)*x2*x2 + x2*x2",
                     "(x1 - x1 + 2 + x1)*x1 - 3", "(x1 + x2)*x1*x2 - x1 - x2 + 1"]),
    st.integers(1, 6).flatmap(_expressions).map(lambda case: case[0]),
    _exact_polynomials().map(serialize_poly)))
def test_parse_times_a_variable_matches_the_convolution_property(text):
    assert _parsed(funcdsl._Parser, text) == _parsed(ReferenceParser, text)


def _parse_outcome(parse, text: str) -> tuple:
    """n and the terms ``parse`` gives ``text``, in order, with their value
    types; or the type, message and position of its error."""
    try:
        poly = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return poly.n, [(mask, type(value), value)
                    for mask, value in zip(poly.masks.tolist(), poly.values.tolist())]


#: Valid texts: random expressions and canonical texts of exact polynomials,
#: with each space written as any run of whitespace, none included.
_VALID_TEXTS = st.one_of(
    st.integers(1, 6).flatmap(_expressions).map(lambda case: case[0]),
    _exact_polynomials().map(serialize_poly),
).flatmap(lambda text: st.lists(
    st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "]),
    min_size=text.count(" "), max_size=text.count(" ")).map(
        lambda spaces: "".join(piece + space for piece, space in
                               zip(text.split(" "), [*spaces, ""]))))


@settings(max_examples=300)
@given(_VALID_TEXTS)
def test_parse_matches_the_list_parser_on_valid_texts_property(text):
    assert _parse_outcome(parse_poly, text)[0] != ParseError
    assert _parse_outcome(parse_poly, text) == _parse_outcome(reference_parse_poly, text)


@settings(max_examples=300)
@given(_VALID_TEXTS, st.sampled_from("$@#!?;&^'é"), st.integers(0))
def test_parse_matches_the_list_parser_on_one_character_error_property(text, bad, at):
    # what precedes the character is a prefix of a valid text, whose last
    # token may be cut short, so both parsers reach the character first
    at %= len(text) + 1
    text = text[:at] + bad + text[at:]
    outcome = _parse_outcome(parse_poly, text)
    assert outcome[0] == ParseError
    assert outcome == _parse_outcome(reference_parse_poly, text)


@settings(max_examples=300)
@given(_VALID_TEXTS, st.sampled_from(["+", "-", "*", "(", ")", "", "1", "x2"]),
       st.integers(0), st.integers(0, 2))
def test_parse_matches_the_list_parser_on_syntax_errors_property(text, insert, at, cut):
    # one insertion and one cut: a syntax error or none, and no character error
    at %= len(text) + 1
    text = text[:at] + insert + text[at + cut:]
    try:
        reference_tokenize(text)
    except ParseError:
        assume(False)
    assert _parse_outcome(parse_poly, text) == _parse_outcome(reference_parse_poly, text)


@pytest.mark.parametrize("text, error, message, listed", [
    ("x1 x2 $", ParseError, "unexpected 'var' (at position 3)",
     "unexpected character '$' (at position 6)"),
    ("x30 + $", ValueError, "n = 30 exceeds the dense enumeration cap of 24",
     "unexpected character '$' (at position 6)"),
    ("x1 + * y", ParseError, "expected a number, variable or '(', got '*' (at position 5)",
     "unexpected character 'y' (at position 7)"),
])
def test_parse_reports_the_first_error_in_text_order(text, error, message, listed):
    # the list parser raised any character error before any syntax error
    assert _parse_outcome(parse_poly, text)[:2] == (error, message)
    assert _parse_outcome(reference_parse_poly, text)[:2] == (ParseError, listed)


def _dense_canonical_text(n: int) -> str:
    rng = np.random.default_rng(n)
    return serialize_poly(wht(TruthTable(n, rng.integers(-8, 9, 1 << n) / 4)))


def test_parse_of_a_dense_canonical_text_holds_no_token_list():
    text = _dense_canonical_text(12)
    assert len(text) > 100_000
    tracemalloc.start()
    try:
        poly = parse_poly(text, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poly.masks.size > 4000
    # the list parser held every token at once: 6.5 MiB
    assert peak < 2 << 20


def test_parse_refuses_at_the_pair_cap_without_reading_the_tail(monkeypatch):
    monkeypatch.setattr(funcdsl, "_MAX_PARSE_PAIRS", 11)
    # the second product passes the cap; a million tokens follow it
    text = "(x1 + x2 + x3)*(x1 + x2 + x3)*(x1 + x2 + x3)" + " + x1" * 500_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^exact products of the expression "
                                             r"exceed the cap of 11 term pairs in all$"):
            parse_poly(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("opening", ["(", " ( ", "(\n\t", "x1*x2 - (", "(x1 + "])
def test_nesting_error_names_the_position_the_list_parser_names(opening):
    # the position is the next token's, pulled or not; both parsers are
    # called at one stack depth, where each '(' costs them the same frames
    text = opening * 2000 + "x1" + ")" * 2000
    assert _parse_outcome(parse_poly, text) == _parse_outcome(reference_parse_poly, text)
    assert _parse_outcome(parse_poly, text)[1].startswith("expression nests too deeply")


def test_nesting_error_comes_before_a_later_character_error():
    text = "(" * 2000 + "x1 $" + ")" * 2000
    assert _parse_outcome(parse_poly, text)[1].startswith("expression nests too deeply")
    assert _parse_outcome(reference_parse_poly, text)[1] == (
        "unexpected character '$' (at position 2003)")


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


# Every kind of coefficient a polynomial may hold; equal floats and
# Fractions (0.5, Fraction(1, 2)) keep their own strings.
_ANY_COEFFICIENT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=1 << 60),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([0.5, Fraction(1, 2), 0.1, Fraction(1, 10), 1, 1.0, -1]),
).filter(lambda c: c != 0)


@st.composite
def _mixed_polynomials(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    # up to 64 masks: dense at small n, sparse (parents absent) at large n
    coeffs = draw(st.dictionaries(
        st.integers(0, (1 << n) - 1), _ANY_COEFFICIENT, max_size=64))
    return MultilinearPolynomial(n, coeffs)


@given(_mixed_polynomials())
def test_serialize_matches_reference_property(poly):
    assert serialize_poly(poly) == reference_serialize_poly(poly)


def test_serialize_sparse_masks_without_parents():
    poly = MultilinearPolynomial(10, {0b1000000001: 0.5, 0b1100000001: Fraction(1, 2),
                                      0b11: 0.1, 0b111: 1})
    assert serialize_poly(poly) == reference_serialize_poly(poly) == (
        "0.1*x1*x2 + 1/2*x1*x10 + x1*x2*x3 + 1/2*x1*x9*x10")


@pytest.mark.parametrize("value", [1e-20, 1.5e-07, 1e16, -2.5e300, 5e-324])
def test_serialize_exponent_floats_parse_back(value):
    text = serialize_poly(MultilinearPolynomial(2, {1: value}))
    assert "e" in text
    assert float(parse_poly(text).coeffs[1]) == value


@pytest.mark.parametrize("kind", [np.float32, np.float16])
def test_serialize_numpy_float_coefficients(kind):
    poly = MultilinearPolynomial(2, {1: kind(0.5), 3: kind(-0.25)})
    assert serialize_poly(poly) == "1/2*x1 - 1/4*x1*x2"


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


# Malformed tables and the exact message each one raises.
_ONE_VAR = "# n=1\nindex,value\n"
_TABLE_ERRORS = [
    ("# n=3\nindex,value\n" + "\n".join(f"{i},1" for i in range(7)),
     "expected 8 rows for n=3, found 7"),  # missing row
    (_ONE_VAR + "0,1\n0,2\n", "line 4: duplicate index 0"),
    (_ONE_VAR + "0,1\n2,2\n", "line 4: index 2 out of range"),
    (_ONE_VAR + "0,1\n1,abc\n", "line 4: unparseable value 'abc'"),
    (_ONE_VAR + "0,inf\n1,2\n", "line 3: unparseable value 'inf'"),
    (_ONE_VAR + "0,1\n1,nan\n", "line 4: unparseable value 'nan'"),
    (_ONE_VAR + "0,1\n1,1/0\n", "line 4: unparseable value '1/0'"),
    (_ONE_VAR + "0,1\n1,2,3\n", "line 4: expected 'index,value'"),
    (_ONE_VAR + "0,1e999\n1,2\n", "line 3: value '1e999' is outside float range"),
    (_ONE_VAR + "0,1\n1,-1e999\n", "line 4: value '-1e999' is outside float range"),
    (_ONE_VAR + "0,1 0\n1,2\n", "line 3: unparseable value '1 0'"),
    (_ONE_VAR + "0,1\n1,1e1000\n",
     "line 4: value '1e1000' has an exponent of more than 3 digits"),
    ("# n=2\nindex,value\n+1 0,1\n" + "\n".join(f"{i},1" for i in range(1, 4)),
     "line 3: non-±1 point entry '0'"),
    ("# n=2\nindex,value\n+1 -1,1\n0,2\n2,3\n3,4\n", "line 5: duplicate index 2"),
    ("index,value\n0,1\n1,2\n2,3\n",
     "no 'n=' header and row count 3 is not a power of two"),
    ("", "empty table file"),
]


def test_parse_table_errors():
    for text, message in _TABLE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_table(text)
        assert str(err.value) == message


def test_parse_table_csv_caps_the_exponent():
    # a long exponent fails at once instead of building a huge rational
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_table(_ONE_VAR + "0,1e10000000\n1,1\n")
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == (
        "line 3: value '1e10000000' has an exponent of more than 3 digits")
    # three digits still read as before; the 1/2 row keeps the file off
    # the fast path, so the row-by-row reader reads them
    table = parse_table(_ONE_VAR + "0,1e308\n1,1/2\n")
    assert table.values.tolist() == [1e308, 0.5]
    table = parse_table(_ONE_VAR + "0,1e-400\n1,1/2\n")
    assert table.values.tobytes() == np.array([0.0, 0.5]).tobytes()


#: An integer literal longer than the interpreter's default limit (4300
#: digits) for converting a decimal string to an int.
_LONG = "1" * 5000


def _assert_plain_digit_error(err) -> None:
    """A short message that names the digits and no interpreter setting."""
    message = str(err.value)
    assert "more than 4300 digits" in message
    assert "sys" not in message and "set_int_max_str_digits" not in message
    assert len(message) < 120


@pytest.mark.parametrize("text, position", [
    (f"x{_LONG}", 0),  # variable index
    (f"2 + {_LONG}*x1", 4),  # integer
    (f"x1*{_LONG}/3", 3),  # fraction numerator
    (f"x1 - 1/{_LONG}", 5),  # fraction denominator
    (f"{_LONG}.5*x1", 0),  # decimal
    (f"x1 + 0.{'0' * 5000}1", 5),  # decimal with a long fraction part
], ids=["variable", "integer", "numerator", "denominator", "decimal", "fraction_part"])
def test_expression_number_over_the_digit_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert err.value.position == position
    _assert_plain_digit_error(err)


@pytest.mark.parametrize("text, line", [
    (f"# n={_LONG}\nindex,value\n0,1\n1,-1\n", 1),  # comment header
    (f"index,value\nn={_LONG}\n0,1\n1,-1\n", 2),  # bare header line
    (f"{_ONE_VAR}0,1\n{_LONG},-1\n", 4),  # index field
], ids=["comment_header", "bare_header", "index"])
def test_csv_integer_over_the_digit_limit_is_a_parse_error(text, line):
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert str(err.value).startswith(f"line {line}: ")
    _assert_plain_digit_error(err)


@pytest.mark.parametrize("text, position", [
    (f'{{"n": {_LONG}, "values": [1, -1]}}', 6),
    # a longer float before it reads as a float, so it is not the culprit
    (f'{{"n": 1, "values": [{_LONG}.5, -{_LONG}]}}', 5024),
], ids=["n", "value"])
def test_json_integer_over_the_digit_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert err.value.position == position
    _assert_plain_digit_error(err)


@pytest.mark.parametrize("values, index", [
    ('[{"a": 1}, 1]', 0), ('[1, -1, 1, {}]', 3), ('[[{}], [1]]', 0),
    # np.array read a string or a bool as a number and null as NaN
    ('["0.5", true]', 0), ('[1, true]', 1), ('[0.5, null]', 1),
    ('[1, -1, 1, false]', 3), ('[0, 1, "x", 3]', 2), ('[[1], [2]]', 0),
])
def test_json_entry_that_is_no_number_is_a_parse_error(values, index):
    n = 1 if values.count(",") == 1 else 2
    with pytest.raises(ParseError, match=rf"^'values' entry {index} is not a number, got "):
        parse_table(f'{{"n": {n}, "values": {values}}}')


@pytest.mark.parametrize("text, expected", [
    ('{"n": 2, "values": [1, -1, 0, 3]}', [1.0, -1.0, 0.0, 3.0]),
    ('{"values": [1, 0.5], "n": 1}', [1.0, 0.5]),
    ('{"n": 1, "values": [-0, 2e0]}', [0.0, 2.0]),
    # other keys may hold anything: the entries are then looked at one by one
    ('{"n": 1, "note": "true, null", "values": [1, -1]}', [1.0, -1.0]),
])
def test_json_entries_that_are_ints_or_floats_load(text, expected):
    table = parse_table(text)
    assert table.values.dtype == np.float64
    assert table.values.tolist() == expected


def test_expression_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^expression nests too deeply \(at position \d+\)$"):
        parse_poly("(" * 2000 + "x1" + ")" * 2000)


#: A decimal of more than 4300 digits that rounds to 0.0, and others
#: that round to ordinary doubles.
_TINY = "0." + "0" * 5000 + "1"


@pytest.mark.parametrize("value", [
    _TINY, "-" + _TINY, "0." + "3" * 5000, "0." + "12" * 2500 + "e-300",
    "." + "9" * 4400, "-" + "7" * 300 + "." + "1" * 4400,
], ids=["tiny", "negative_tiny", "third", "exponent", "leading_point", "negative"])
def test_csv_long_decimal_reads_the_same_on_both_readers(value):
    # the fast path reads plain rows with float; a point row sends the
    # file to the row-by-row reader, which must give the same bytes
    expected = np.array([float(value) + 0.0, 1.0])
    plain = parse_table(_ONE_VAR + f"0,{value}\n1,1\n")
    by_rows = parse_table(f"# n=1\nindex,value\n+1,{value}\n-1,1\n")
    assert plain.values.tobytes() == expected.tobytes()
    assert by_rows.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("value, digits", [
    ("1/" + _LONG, 5001), (_LONG + "/7", 5001), ("1_" + _LONG, 5001),
], ids=["denominator", "numerator", "underscore"])
def test_csv_value_over_the_digit_limit_names_line_and_digits(value, digits):
    with pytest.raises(ParseError) as err:
        parse_table(_ONE_VAR + f"0,1\n1,{value}\n")
    message = str(err.value)
    assert message.startswith("line 4: ")
    assert f"{digits} digits" in message and "4300" in message
    assert len(message) < 120


def test_parse_table_accepts_what_fraction_reads():
    # spaces around a field are stripped, and -0 is stored as +0.0
    table = parse_table(_ONE_VAR + " 0 , -0.0 \n1,-0\n")
    assert table.values.tobytes() == np.zeros(2).tobytes()
    # Fraction reads PEP 515 underscores
    assert parse_table(_ONE_VAR + "0,1\n1,1_0\n").values.tolist() == [1.0, 10.0]


def _table_value(rng, form: str) -> str:
    """A value string in one of the forms a table file may hold."""
    if form == "decimal":
        return repr(rng.choice([rng.randint(-8, 8) / 4, rng.uniform(-1e3, 1e3)]))
    if form == "exponent":
        # at most 7e307, and down into the subnormals and zero
        mantissa = rng.choice(["1", "2.5", ".125", "7.", "3.0625"])
        exponent = rng.randint(-330, 307)
        sign = "+" if exponent >= 0 and rng.random() < 0.5 else ""
        return f"{mantissa}{rng.choice('eE')}{sign}{exponent}"
    if form == "signed":
        return rng.choice("+-") + repr(abs(rng.randint(-8, 8) / 8))
    if form == "negzero":
        return rng.choice(["-0", "-0.0", "-.0", "-0e5", "+0.0"])
    if form == "long":
        # more digits than a double holds, or a halfway case between two
        # doubles, such as 9007199254740993 = 2**53 + 1: rounds to even
        if rng.random() < 0.5:
            m = rng.randrange(1 << 52, 1 << 53)
            return str((2 * m + 1) << rng.randint(0, 60))
        digits = "".join(rng.choices("0123456789", k=rng.randint(18, 40)))
        point = rng.randint(0, len(digits))
        return rng.choice(["", "-", "+"]) + f"{digits[:point]}.{digits[point:]}"
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"  # a/b


@st.composite
def _csv_tables(draw, max_n=10):
    """CSV table text: shuffled rows in mixed value forms, blank lines,
    comments, and sometimes explicit ±1 points."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    forms = draw(st.lists(st.sampled_from(
        ["decimal", "exponent", "signed", "negzero", "long", "a/b"]),
        min_size=1, max_size=5))
    points = draw(st.booleans())
    extra = draw(st.sampled_from(["", "\n", "  \t\n", "# a comment\n"]))
    lines = []
    for index in range(1 << n):
        first = str(index)
        if points and n > 1 and rng.random() < 0.2:  # "1" alone is an index
            first = " ".join(rng.choice(["-1"] if index >> j & 1 else ["1", "+1"])
                             for j in range(n))
        lines.append(f"{first},{_table_value(rng, rng.choice(forms))}\n")
        if rng.random() < 0.05:
            lines.append(extra)
    rng.shuffle(lines)
    header = draw(st.sampled_from([f"# n={n}\nindex,value\n", f"n = {n}\n",
                                   "index, value\n\n", f"\n# n={n}\n"]))
    return header + "".join(lines)


@given(_csv_tables())
def test_parse_table_csv_matches_reference_property(text):
    expected = reference_parse_table_csv(text)
    assert parse_table(text).values.tobytes() == expected.tobytes()


def _row_value(rng) -> str:
    """A value field: a repr, a short decimal, an exponent or a zero,
    sometimes signed."""
    form = rng.choice(["repr", "short", "exponent", "zero"])
    if form == "repr":
        return repr(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12))
    if form == "short":
        return rng.choice(["", "+", "-"]) + rng.choice(
            ["0.25", "1.5", ".5", "5.", "2", "0.125", "10"])
    if form == "exponent":
        return (rng.choice(["", "+", "-"]) + rng.choice(["1", "2.5", ".125", "7."])
                + rng.choice("eE") + rng.choice(["", "+", "-"])
                + str(rng.randint(0, 330)).zfill(rng.choice([1, 2, 3])))
    return rng.choice(["0", "-0", "+0", "-0.0", "0e0", "-.0"])


#: One odd row or line each; the file that holds it either keeps to the
#: fast path or must be declined to the row-by-row reader.
_ODD_ROWS = {
    "index_zeros": lambda rng, i, v: (f"{'0' * rng.randint(1, 20)}{i}", v),
    "index_over_the_digit_limit": lambda rng, i, v: ("0" * 4300 + str(i), v),
    "signed_index": lambda rng, i, v: (rng.choice("+-") + str(i), v),
    "four_digit_exponent": lambda rng, i, v: (
        str(i), rng.choice(["1e0005", "2.5E-0010", "-3e+1234", "1e1000"])),
    "beyond_float_range": lambda rng, i, v: (
        str(i), rng.choice(["1e400", "-2e308", "1" * 400, "1e999"])),
    "long_decimal": lambda rng, i, v: (str(i), "0." + "3" * 4400),
    "fraction": lambda rng, i, v: (str(i), "1/3"),
    "float_index": lambda rng, i, v: (f"{i}.0", v),
    "three_fields": lambda rng, i, v: (str(i), f"{v},1"),
    # whitespace that is a line break to str.splitlines, or not ASCII
    "stray_space": lambda rng, i, v: (
        str(i), rng.choice(["\v", "\f", "\x1c", "\x1e", "\x85", "\xa0", "\u2028"]) + v),
}


@st.composite
def _table_files(draw):
    """CSV table text at the fast path's edges: permuted, duplicated and
    missing rows, line breaks of every kind, padded fields, blank and
    whitespace-only lines, disagreeing headers, n=1 files of ±1 point
    rows, and one odd row of ``_ODD_ROWS`` at a time."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    indices = list(range(1 << n))
    shape = draw(st.sampled_from(
        ["in order", "in order", "permuted", "permuted", "duplicate", "missing"]))
    if shape != "in order":
        rng.shuffle(indices)
    if shape == "duplicate":
        indices[0] = indices[-1]
    elif shape == "missing":
        indices.pop()
    rows = [(str(i), _row_value(rng)) for i in indices]
    if n == 1 and draw(st.booleans()):
        # "+1" is the point x1 = +1, index 0
        rows = [({"0": "+1", "1": "-1"}.get(i, i), v) for i, v in rows]
    odd = draw(st.sampled_from([None] * len(_ODD_ROWS) + [*_ODD_ROWS]))
    if odd:
        # not the first row, when there are two: a data row leads the body
        k = rng.randrange(min(1, len(rows) - 1), len(rows))
        rows[k] = _ODD_ROWS[odd](rng, *rows[k])
    pad = draw(st.sampled_from(["", " ", "\t", " \t"]))
    lines = [rng.choice(["", pad]) + i + rng.choice(["", pad]) + ","
             + rng.choice(["", pad]) + v + rng.choice(["", pad]) for i, v in rows]
    gap = draw(st.sampled_from([None, None, "", " ", "\t "]))  # a blank line
    if gap is not None:
        lines.insert(rng.randint(1, len(lines)), gap)
    header = draw(st.sampled_from(
        [f"# n={n}\nindex,value", f"# n={n + 1}\nindex,value", f"n = {n}",
         "index, value", "", f"# n={n}", f"# n={max(n - 1, 1)}"]))
    lines = ([header] if header else []) + lines
    newline = draw(st.sampled_from(
        ["\n", "\n", "\n", "\r\n", "\r\n", "\r", "\r", "\v", "\f"]))
    if draw(st.integers(0, 3)) == 0:  # another line break here and there
        lines = [line + rng.choice(["\n", "\r\n", "\r"]) * (rng.random() < 0.2)
                 for line in lines]
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=500)
@given(_table_files())
def test_plain_rows_read_as_the_row_reader_reads_property(text):
    # the fast path either declines a file or reads what the row-by-row
    # reader reads, bit for bit, or fails with its error
    try:
        expected = funcdsl._parse_rows(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_table(text)
        assert str(got.value) == str(err)
    else:
        assert parse_table(text).values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("rows", [
    "0,1\n+1,2\n2,3\n3,4\n",  # a signed index, which loadtxt reads as 1
    "0,1\n -0,2\n2,3\n3,4\n",
    "0,1\n1,2\n2,1e0005\n3,4\n",  # a 4-digit exponent
    "0,1\n1,2\n" + "0" * 4300 + "2,3\n3,4\n",  # an index int() refuses
    "0,1\n1,\v2\n2,3\n3,4\n",  # a line break to str.splitlines
    "0,1\n1,\x1c2\n2,3\n3,4\n",
], ids=["plus", "minus_zero", "exponent", "index_digits", "vt", "file_separator"])
def test_parse_table_declines_rows_the_row_reader_reads_otherwise(rows):
    text = "# n=2\nindex,value\n" + rows
    assert funcdsl._parse_plain_rows(text) is None
    with pytest.raises(ParseError) as err:
        parse_table(text)
    with pytest.raises(ParseError) as by_rows:
        funcdsl._parse_rows(text)
    assert str(err.value) == str(by_rows.value)


def test_parse_table_plain_rows_take_the_fast_path(monkeypatch):
    # no value of a plain file goes through the row-by-row reader
    def refuse(field, lineno):
        raise AssertionError("row-by-row reader used")
    monkeypatch.setattr(funcdsl, "_parse_value", refuse)
    text = "# n=2\nindex,value\n\n3,-0\n 1,+2.5e-1 \n\n0,1E3\r\n2,.5\n\n"
    expected = np.array([1000.0, 0.25, 0.5, 0.0]).tobytes()
    assert parse_table(text).values.tobytes() == expected
    # CRLF and lone-CR line breaks, and rows spaced as "i, v"
    header, rows = text.split("value")
    for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                    header + "value" + rows.replace(",", ", "),
                    header + "value" + rows.replace(",", "\t,\t")):
        assert parse_table(variant).values.tobytes() == expected
    with pytest.raises(AssertionError):
        parse_table(text.replace(".5", "1/2"))


def _blank_lines(text):
    return text.replace("\n3,", "\n \t \n3,").replace("\n9,", "\n\t\n\n9,") + "  "


@pytest.mark.parametrize("form", [
    _blank_lines,
    lambda text: _blank_lines(text).replace("\n", "\r\n"),
    lambda text: _blank_lines(text).replace("\n", "\r"),
    lambda text: text.replace("\n", "\v"),
    lambda text: text.replace("\n", "\f"),
    lambda text: _blank_lines(text).replace("\n1", "\v1").replace("\n2", "\f\r\n2"),
], ids=["blank", "blank_crlf", "blank_cr", "vt", "ff", "mixed"])
def test_plain_rows_read_blank_lines_and_vt_ff_breaks(form):
    # the text reader refuses a line of spaces and tabs, and reads \v and
    # \f inside a row; str.splitlines skips the first and breaks at the
    # others, and so does the fast path now
    values = np.random.default_rng(10).integers(-4, 5, 1 << 10) / 4.0
    text = form("# n=10\nindex,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values.tolist())))
    table = funcdsl._parse_plain_rows(text)
    assert table is not None
    assert table.values.tobytes() == values.tobytes()
    assert funcdsl._parse_rows(text).values.tobytes() == values.tobytes()


def test_parse_table_csv_load_peak_memory():
    # a quarter-valued n=16 table: no list of row strings or fields
    rng = np.random.default_rng(16)
    values = rng.integers(-4, 5, 1 << 16) / 4.0
    text = "# n=16\nindex,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
    tracemalloc.start()
    try:
        table = parse_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.tobytes() == values.tobytes()
    assert peak < 8 << 20


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
