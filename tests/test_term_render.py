"""Rendered text: analyze's term list, the canonical text and the JSON
report they are spliced into.

The JSON text must be the bytes ``json.dumps(..., sort_keys=True,
indent=2)`` gives for the list of dicts in ``helpers``, and pretty and
csv output must print that same list.  The expression built from the
same arrays must be the canonical text, joined as the per-term loop in
``helpers`` joins it.  A report's JSON, with its canonical texts and
term list spliced in verbatim, must be the bytes ``json.dumps`` gives
for the same report with plain values.
"""

import json
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwiretap import MultilinearPolynomial, cli, funcdsl
from helpers import (reference_analyze_terms, reference_join_terms,
                     reference_serialize_poly)

MAX_FLOAT = sys.float_info.max
EDGE_FLOATS = [
    5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
    2.0**-53, 2.0**-54, 3 * 2.0**-54, 1 - 2.0**-53, 0.1, 0.3, 1e-7, 0.5,
    1.0, 1.5, 2.0**52 + 0.5, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**54,
    1e16, 0.1234567890123456, 1.7976931348623155e308, MAX_FLOAT,
]
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(bool),
    st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]))
EXACT = st.one_of(
    st.fractions(max_denominator=10**6).filter(bool),
    st.integers(-2**70, 2**70).filter(bool),
    st.sampled_from([2**53, 2**53 + 1, 2**53 + 2, -2**60 - 1]))
VALUES = {"float": FLOATS, "exact": EXACT, "mixed": st.one_of(FLOATS, EXACT)}


@st.composite
def polynomials(draw):
    """Polynomials with n <= 24, biased towards the variables x17..x24
    of the third mask byte."""
    n = draw(st.integers(1, 24))
    high = st.integers(0, (1 << n) - 1).map(
        lambda m: m | ((m << 16) & ((1 << n) - 1)))
    masks = st.one_of(st.integers(0, (1 << n) - 1), high)
    values = VALUES[draw(st.sampled_from(sorted(VALUES)))]
    return MultilinearPolynomial(
        n, dict(draw(st.lists(st.tuples(masks, values), max_size=20))))


def rendered(poly, fmt: str, terms) -> str:
    return cli._render({"n": poly.n, "terms": terms, "variance": 0.5}, fmt)


@settings(max_examples=300)
@given(polynomials())
@example(MultilinearPolynomial(3, {}))  # "terms": []
@example(MultilinearPolynomial(2, {0: Fraction(-3, 2)}))  # "variables": []
@example(MultilinearPolynomial(24, {0: 1.0, 1 << 23: -5e-324, 0xFF0001: MAX_FLOAT}))
@example(MultilinearPolynomial(1, {1: Fraction(-1, 10**400)}))  # -0.0
def test_terms_render_as_the_list_of_dicts(poly):
    want = reference_analyze_terms(poly)
    assert cli._Terms(poly).expression() == reference_serialize_poly(poly)
    for fmt in ("json", "pretty", "csv"):
        assert rendered(poly, fmt, cli._Terms(poly)) == rendered(poly, fmt, want)
    assert json.loads(rendered(poly, "json", cli._Terms(poly)))["terms"] == want


def test_exact_value_beyond_float_range_raises_overflow():
    with pytest.raises(OverflowError):
        cli._Terms(MultilinearPolynomial(1, {1: 10**400}))



def test_numpy_float_coefficients_render_as_their_floats():
    poly = MultilinearPolynomial(2, {0: np.float16(-0.25), 1: np.float32(0.5),
                                     3: np.float32(0.1)})
    want = [
        {"variables": [], "coefficient": -0.25, "exact": "-1/4"},
        {"variables": [1], "coefficient": 0.5, "exact": "1/2"},
        {"variables": [1, 2], "coefficient": float(np.float32(0.1)),
         "exact": "13421773/134217728"},
    ]
    terms = cli._Terms(poly)
    assert terms.expression() == "-1/4 + 1/2*x1 + 13421773/134217728*x1*x2"
    for fmt in ("json", "pretty", "csv"):
        assert rendered(poly, fmt, terms) == rendered(poly, fmt, want)


# ---------------------------------------------------------------------------
# The join from whole-array pieces, against the per-term loop
# ---------------------------------------------------------------------------

def _significant_digits(value: float) -> int:
    return len(repr(abs(value)).split("e")[0].replace(".", "").strip("0"))


#: Floats whose repr has 17 significant digits, the most a repr has.
SEVENTEEN_DIGITS = st.one_of(
    st.sampled_from([0.30000000000000004, 1.0000000000000002,
                     2.2250738585072014e-308, 1.7976931348623157e308]),
    st.builds(lambda digits, exponent: float(f"{digits}e{exponent}"),
              st.integers(10**16, 10**17 - 1), st.integers(-40, 20))
    .filter(lambda v: _significant_digits(v) == 17))
ONES = st.sampled_from([1, -1, Fraction(1), Fraction(-1)])
RATIOS = st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 64))
#: Per kind of coefficient array: ±1, ±k/d and 17-digit floats.
JOIN_VALUES = {
    "float": st.one_of(ONES.map(float), RATIOS.map(float), SEVENTEEN_DIGITS,
                       SEVENTEEN_DIGITS.map(lambda v: -v)),
    "exact": st.one_of(ONES, RATIOS),
}
JOIN_VALUES["mixed"] = st.one_of(*JOIN_VALUES.values())
#: Masks over x1..x24: any, the constant, and one nonzero byte of three.
MASKS_24 = st.one_of(
    st.integers(0, (1 << 24) - 1), st.just(0),
    *(st.integers(1, 255).map(lambda b, s=shift: b << s) for shift in (0, 8, 16)))


@st.composite
def join_polynomials(draw):
    values = JOIN_VALUES[draw(st.sampled_from(sorted(JOIN_VALUES)))]
    return MultilinearPolynomial(
        24, dict(draw(st.lists(st.tuples(MASKS_24, values), max_size=60))))


JOIN_EXAMPLES = [
    MultilinearPolynomial(24, {}),  # the zero polynomial
    MultilinearPolynomial(24, {0: Fraction(5, 3)}),  # a lone constant
    MultilinearPolynomial(24, {0: -1.0}),
    # a negative constant first, then terms whose first nonzero byte is
    # each of the three
    MultilinearPolynomial(24, {0: Fraction(-1), 1 << 8: 1, 1 << 16: -1,
                               (1 << 20) | (1 << 9): Fraction(1), 5: 1}),
    MultilinearPolynomial(24, {0: -0.30000000000000004, 0xFFFFFF: 1.0,
                               0xFF0000: -1.0, 0x00FF00: 1.0000000000000002}),
    # 48 terms over all three bytes
    MultilinearPolynomial(24, {m * 0x050301: Fraction((-1) ** m, 1 + m % 3)
                               for m in range(48)}),
    # the first-term fix-ups: a constant 1 keeps its magnitude, a leading
    # -1 before variables keeps its sign alone
    MultilinearPolynomial(24, {0: 1, 1: 1}),  # 1 + x1
    MultilinearPolynomial(24, {1: -1}),  # -x1
    MultilinearPolynomial(24, {0: -1}),
    MultilinearPolynomial(24, {1 << 23: 1}),  # x24: two zero bytes first
    MultilinearPolynomial(24, {1 << 8: -1, 1: 1}),  # x1 - x9
]


def _with_examples(test):
    for poly in JOIN_EXAMPLES:
        test = example(poly)(test)
    return test


@settings(max_examples=300)
@given(join_polynomials())
@_with_examples
def test_join_from_pieces_matches_the_per_term_loop(poly):
    masks, _, negative, texts, which = funcdsl.canonical_terms(poly)
    want = reference_join_terms(masks, negative, texts, which)
    assert funcdsl._join_terms(masks, negative, texts, which) == want
    assert funcdsl.serialize_poly(poly) == want == reference_serialize_poly(poly)


@settings(max_examples=300)
@given(join_polynomials())
@_with_examples
def test_terms_json_from_pieces_matches_json_dumps(poly):
    terms = cli._Terms(poly)
    # json() is the list as the value of a top-level key: one level deeper
    want = json.dumps(terms.dicts(), sort_keys=True, indent=2).replace("\n", "\n  ")
    assert terms.json() == want


#: Every character a canonical text may hold: none that JSON escapes.
CANONICAL = re.compile(r"[0-9x*/+\-.e ]+")


@settings(max_examples=300)
@given(st.one_of(polynomials(), join_polynomials()))
@_with_examples
def test_canonical_text_needs_no_json_escape(poly):
    text = funcdsl.serialize_poly(poly)
    assert CANONICAL.fullmatch(text)
    assert json.dumps(text) == f'"{text}"'


# ---------------------------------------------------------------------------
# Reports: rendered values spliced into the JSON
# ---------------------------------------------------------------------------

MAJ3 = "1/2*(x1 + x2 + x3 - x1*x2*x3)"
ZCHAN_F = "x1*x2*x3"
ZCHAN_G = "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)"
CHAIN = "1/8*(x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7 + x7*x8)"
SUM = "1/8*(x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8)"

#: One request per report kind, with the number of values it splices in.
SPLICED = {
    "analyze": (["analyze", "--f", f"-3/2 + {MAJ3} - 1/3*x9*x17"], 2),
    "channel_multiplicative": (["channel", "--f", MAJ3, "--g", "x1*x2"], 4),
    "channel_refused": (["channel", "--f", CHAIN, "--g", SUM], 3),
    "commute": (["commute", "--f", ZCHAN_F, "--g", ZCHAN_G], 2),
    "lemmas": (["lemmas", "--f", ZCHAN_F, "--g", ZCHAN_G], 2),
    "invariance_single": (["invariance", "--f", MAJ3, "--samples", "2000"], 1),
    "invariance_additive": (
        ["invariance", "--f", CHAIN, "--g", SUM, "--samples", "2000"], 1),
    "invariance_multiplicative": (
        ["invariance", "--f", MAJ3, "--g", "x4*x5*x6", "--samples", "2000"], 1),
}


def plain(report: dict, spliced: list) -> dict:
    """``report`` with ordinary values: each ``_Text`` a plain ``str``
    and the ``_Terms`` its list of dicts, each appended to ``spliced``."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            value = plain(value, spliced)
        elif isinstance(value, cli._Terms):
            spliced.append(value)
            value = value.dicts()
        elif isinstance(value, cli._Text):
            spliced.append(value)
            value = str(value)
        out[key] = value
    return out


@pytest.mark.parametrize("kind", sorted(SPLICED))
def test_report_json_splices_rendered_values_as_json_dumps_writes_them(kind):
    argv, count = SPLICED[kind]
    args = cli._PARSER.parse_args(argv)
    report, _ = args.run(args)
    spliced = []
    want = plain(report, spliced)
    assert len(spliced) == count
    if kind == "channel_refused":
        assert want["multiplicative"]["applicable"] is False
    assert cli._render(report, "json") == json.dumps(want, sort_keys=True, indent=2) + "\n"
    for fmt in ("pretty", "csv"):
        assert cli._render(report, fmt) == cli._render(want, fmt)
    for value in spliced:
        if isinstance(value, cli._Text):
            assert CANONICAL.fullmatch(value)
