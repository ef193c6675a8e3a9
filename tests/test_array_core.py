"""The array-backed polynomial against the dict-backed oracle.

Every operation must give the same terms in the same order, with the
same value types, and floats with the same bits, as the per-term dict
loops of :class:`helpers.DictPolynomial`: the term order is
``evaluate_batch``'s addition order, and influence and variance sums are
left folds in that order.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compwiretap import (
    MultilinearPolynomial,
    TruthTable,
    degree,
    evaluate_batch,
    influence_profile,
    influence_spectral,
    max_influence,
    mul,
    serialize_poly,
    sub,
    variance,
    wht,
)
from compwiretap import boolfn, funcdsl
from helpers import (
    DictPolynomial,
    reference_canonical_terms,
    reference_evaluate_batch,
    reference_serialize_poly,
    reference_values,
)

FLOATS = st.floats(-8, 8, allow_nan=False)
VALUES = {
    "float": FLOATS,
    "fraction": st.fractions(-4, 4, max_denominator=64),
    "int": st.integers(-3, 3),
}
VALUES["mixed"] = st.one_of(*VALUES.values())


@st.composite
def coefficient_maps(draw, n, kind, masks=None, values=None):
    if masks is None:
        masks = st.integers(0, (1 << n) - 1)
    if values is None:
        values = VALUES[kind]
    return dict(draw(st.lists(st.tuples(masks, values), max_size=24)))


@st.composite
def pairs(draw):
    """``(array polynomial, dict oracle)`` with the same coefficients."""
    n = draw(st.integers(1, 10))
    coeffs = draw(coefficient_maps(n, draw(st.sampled_from(sorted(VALUES)))))
    return MultilinearPolynomial(n, coeffs), DictPolynomial(n, coeffs)


def typed(value):
    return type(value), value


def terms(poly) -> list:
    """Every term in order, with the type of its value."""
    return [(mask, *typed(value)) for mask, value in poly.coeffs.items()]


def outcome(build):
    """The terms ``build()`` gives, or the exception type it raises."""
    try:
        return terms(build())
    except ValueError as exc:
        return type(exc)


@settings(max_examples=200)
@given(st.data())
def test_constructor_matches_dict(data):
    n = data.draw(st.integers(1, 10))
    kind = data.draw(st.sampled_from(sorted(VALUES)))
    coeffs = data.draw(coefficient_maps(
        n, kind, masks=st.integers(-2, (1 << n) + 2),
        values=st.one_of(VALUES[kind], st.sampled_from(
            [0.0, -0.0, float("nan"), float("inf"), -float("inf")]))))
    assert (outcome(lambda: MultilinearPolynomial(n, coeffs))
            == outcome(lambda: DictPolynomial(n, coeffs)))


@given(pairs(), st.integers(1, 12))
def test_with_n_matches_dict(pair, n):
    poly, oracle = pair
    assert outcome(lambda: poly.with_n(n)) == outcome(lambda: oracle.with_n(n))


@settings(max_examples=200)
@given(st.data())
def test_sub_and_mul_match_dict(data):
    n = data.draw(st.integers(1, 10))
    f_coeffs, g_coeffs = (
        data.draw(coefficient_maps(n, data.draw(st.sampled_from(sorted(VALUES)))))
        for _ in range(2))
    f, g = MultilinearPolynomial(n, f_coeffs), MultilinearPolynomial(n, g_coeffs)
    fd, gd = DictPolynomial(n, f_coeffs), DictPolynomial(n, g_coeffs)
    assert terms(sub(f, g)) == terms(fd.sub(gd))
    assert terms(sub(g, f)) == terms(gd.sub(fd))
    assert terms(sub(f, f)) == []
    assert terms(mul(f, g)) == terms(fd.mul(gd))


@settings(max_examples=200)
@given(pairs())
def test_fourier_quantities_match_dict(pair):
    poly, oracle = pair
    assert degree(poly) == oracle.degree()
    assert typed(variance(poly)) == typed(oracle.variance())
    influences = [typed(oracle.influence(t)) for t in range(1, poly.n + 1)]
    assert [typed(influence_spectral(poly, t))
            for t in range(1, poly.n + 1)] == influences
    profile = influence_profile(poly)
    assert list(map(typed, profile.influences)) == influences
    assert typed(max_influence(poly)) == typed(profile.max_influence)
    assert profile.max_influence == max(v for _, v in influences)


@settings(max_examples=200)
@given(pairs())
def test_canonical_text_matches_dict(pair):
    poly, oracle = pair
    masks, values, negative, texts, which = funcdsl.canonical_terms(poly)
    got = list(zip(masks.tolist(), map(typed, values.tolist()),
                   negative.tolist(), texts[which].tolist()))
    want = [(mask, typed(value), negative, text)
            for mask, value, negative, text in reference_canonical_terms(oracle)]
    assert got == want
    assert serialize_poly(poly) == reference_serialize_poly(oracle)


@given(pairs(), st.integers(0, 2 ** 32 - 1))
def test_values_and_evaluate_batch_match_dict(pair, seed):
    poly, oracle = pair
    assert (boolfn._values(poly).tobytes()
            == reference_values(oracle).tobytes())
    points = np.random.default_rng(seed).standard_normal((33, poly.n))
    assert (evaluate_batch(poly, points).tobytes()
            == reference_evaluate_batch(oracle, points).tobytes())


def test_dense_n16_influences_are_the_dict_loop_bits():
    # 3-decimal values: every coefficient, square and partial sum rounds
    rng = np.random.default_rng(16)
    table = TruthTable(16, rng.integers(-1000, 1001, 1 << 16) / 1000)
    poly = wht(table)
    oracle = DictPolynomial(16, dict(poly.coeffs))
    assert len(poly.coeffs) > 65000
    want = np.array([oracle.influence(t) for t in range(1, 17)])
    got = np.array(influence_profile(poly).influences)
    assert got.tobytes() == want.tobytes()
    assert (np.float64(variance(poly)).tobytes()
            == np.float64(oracle.variance()).tobytes())


def test_exact_and_float_terms_keep_their_arrays():
    exact = MultilinearPolynomial(3, {1: Fraction(1, 2), 6: 2})
    assert exact.values.dtype == object and exact.masks.dtype == np.int64
    floats = MultilinearPolynomial(3, {1: 0.5, 6: np.float64(2)})
    assert floats.values.dtype == np.float64
    # a difference whose exact terms all cancel into floats is float again
    diff = sub(MultilinearPolynomial(3, {1: 0.75}), exact)
    assert terms(diff) == [(1, float, 0.25), (6, int, -2)]
    assert sub(MultilinearPolynomial(3, {1: 0.75, 6: 1.0}),
               exact).values.dtype == np.float64


def test_terms_are_read_only():
    poly = MultilinearPolynomial(3, {1: 0.5, 5: Fraction(1, 3)})
    for array in (poly.masks, poly.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    assert poly.coeffs == {1: 0.5, 5: Fraction(1, 3)}


def test_constructor_does_not_share_the_callers_arrays():
    masks, values = np.array([1, 2]), np.array([0.5, 0.25])
    poly = MultilinearPolynomial(2, (masks, values))
    masks[0], values[0] = 3, 9.0
    assert terms(poly) == [(1, float, 0.5), (2, float, 0.25)]
