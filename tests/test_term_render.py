"""analyze's term list, rendered from the canonical term arrays.

The JSON text must be the bytes ``json.dumps(..., sort_keys=True,
indent=2)`` gives for the list of dicts in ``helpers``, and pretty and
csv output must print that same list.  The expression built from the
same arrays must be the canonical text.
"""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwiretap import MultilinearPolynomial, cli
from helpers import reference_analyze_terms, reference_serialize_poly

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
