import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compwiretap import (
    MultilinearPolynomial,
    TruthTable,
    degree,
    evaluate_batch,
    index_to_point,
    influence_profile,
    influence_spectral,
    inverse_wht,
    is_boolean_function,
    max_influence,
    mean,
    mul,
    point_to_index,
    sub,
    term_count,
    variance,
    wht,
)
from compwiretap import boolfn, parse_poly, serialize_poly
from helpers import (
    all_points,
    block_grid,
    brute_product_coeffs,
    chain_pair_polys,
    convolve_coeffs,
    eval_poly_at,
    influence_flip,
    maj3_poly,
    maj3_table,
    random_boolean_table,
    random_rational_poly,
    reference_butterfly,
    reference_evaluate_batch,
    reference_values,
    refuse_threads,
    table_from_function,
    use_workers,
    zchannel_f_poly,
    zchannel_g_poly,
)


# ---------------------------------------------------------------------------
# Construction and conventions
# ---------------------------------------------------------------------------

def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [1.0, 1.0, 1.0])  # wrong length
    with pytest.raises(ValueError):
        TruthTable(0, [1.0])
    with pytest.raises(ValueError):
        TruthTable(1, [1.0, float("inf")])
    with pytest.raises(ValueError):
        TruthTable(25, np.ones(2))  # n over the enumeration cap


def test_index_point_convention():
    # bit (j-1) of the index clear -> x_j = +1
    assert index_to_point(0, 3) == (1, 1, 1)
    assert index_to_point(1, 3) == (-1, 1, 1)
    assert index_to_point(6, 3) == (1, -1, -1)
    assert point_to_index((1, -1, -1)) == 6
    for i, point in enumerate(all_points(3)):
        assert point == index_to_point(i, 3)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        MultilinearPolynomial(2, {4: 1.0})  # mask needs 3 bits
    with pytest.raises(ValueError):
        MultilinearPolynomial(2, {0: float("nan")})
    # zero coefficients are silently dropped
    p = MultilinearPolynomial(2, {0: 0.0, 1: 1.0})
    assert term_count(p) == 1


def test_polynomial_masks_are_integers():
    with pytest.raises(ValueError, match="mask 1.5 is not an integer"):
        MultilinearPolynomial(2, {1: 2.0, 1.5: 1.0})
    poly = MultilinearPolynomial(2, {np.int64(1): 1.0, True: 2.0, 2.0: 3.0})
    assert poly.coeffs == {1: 2.0, 2: 3.0}


def test_polynomial_coefficient_types():
    for bad in (float("inf"), np.float64("inf"), np.float64("nan")):
        with pytest.raises(ValueError, match="coefficient for mask 1 is not finite"):
            MultilinearPolynomial(2, {1: bad})
    for bad in ("1", 1j, None):
        with pytest.raises(ValueError, match="is not a real number"):
            MultilinearPolynomial(2, {1: bad})
    # bool and numpy scalars are reals, kept as given; False is a zero
    coeffs = {0: False, 1: True, 2: np.int64(3), 3: np.float64(0.5)}
    poly = MultilinearPolynomial(2, coeffs)
    assert poly.coeffs == {1: True, 2: 3, 3: 0.5}
    assert [type(v) for v in poly.coeffs.values()] == [bool, np.int64, np.float64]


def test_polynomial_coefficients_are_read_only():
    # a write through the mapping would skip the mask and finiteness checks
    poly = MultilinearPolynomial(3, {1: 0.5})
    with pytest.raises(TypeError):
        poly.coeffs[7] = float("nan")
    with pytest.raises(TypeError):
        poly.coeffs[1 << 10] = 2.0
    assert poly.coeffs == {1: 0.5} and serialize_poly(poly) == "1/2*x1"


def test_wht_overflow_is_not_finite():
    # 4 * 1e308 overflows in the butterfly: no coefficient is silently inf
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="is not finite"):
        wht(TruthTable(2, np.full(4, 1e308)))


# ---------------------------------------------------------------------------
# Transform examples
# ---------------------------------------------------------------------------

def test_wht_maj3():
    poly = wht(maj3_table())
    expected = {0b001: 0.5, 0b010: 0.5, 0b100: 0.5, 0b111: -0.5}
    assert set(poly.coeffs) == set(expected)
    for mask, value in expected.items():
        assert abs(poly.coeffs[mask] - value) <= 1e-12


def test_wht_constant():
    poly = wht(TruthTable(3, np.ones(8)))
    assert poly.coeffs == {0: 1.0}


def test_wht_dictator():
    table = table_from_function(2, lambda p: p[1])  # f(x) = x_2
    assert wht(table).coeffs == {0b10: 1.0}


def test_inverse_wht_constant():
    t = inverse_wht(MultilinearPolynomial(2, {0: 2.5}))
    assert np.array_equal(t.values, np.full(4, 2.5))


def test_inverse_wht_maj3():
    assert inverse_wht(maj3_poly()) == maj3_table()


def test_roundtrip_random_tables():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        t = TruthTable(n, rng.standard_normal(1 << n))
        back = inverse_wht(wht(t))
        assert np.max(np.abs(back.values - t.values)) <= 1e-12


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_maj3():
    poly = maj3_poly()
    assert eval_poly_at(poly.coeffs, (1, 1, -1)) == 1
    assert eval_poly_at(poly.coeffs, (-1, -1, 1)) == -1
    assert eval_poly_at(poly.coeffs, (1, 1, 1)) == sum(poly.coeffs.values())


def test_inverse_wht_keeps_one_table_copy():
    # the transform's fresh array becomes the table; nothing copies it
    f, _ = chain_pair_polys(20)
    table_bytes = 8 << 20
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = inverse_wht(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.nbytes == table_bytes
    assert not table.values.flags.writeable
    assert peak < 1.5 * table_bytes


def test_table_constructor_copies_its_input():
    values = np.array([1.0, -1.0, -1.0, 1.0])
    table = TruthTable(2, values)
    values[0] = 5.0
    assert table.values[0] == 1.0
    assert not table.values.flags.writeable
    with pytest.raises(ValueError):
        TruthTable(2, [1.0, np.inf, 1.0, 1.0])
    with pytest.raises(ValueError):
        TruthTable(2, [1.0, 1.0])


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(3)
    poly = random_rational_poly(rng, 5)
    X = rng.standard_normal((40, 5))
    batch = evaluate_batch(poly, X)
    for i in range(40):
        single = float(eval_poly_at(poly.coeffs, tuple(float(v) for v in X[i])))
        assert abs(batch[i] - single) <= 1e-12


_COEFFICIENTS = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.fractions(min_value=-8, max_value=8, max_denominator=64))


@st.composite
def _polynomials(draw, max_n=10, max_terms=48):
    n = draw(st.integers(1, max_n))
    coeffs = draw(st.dictionaries(
        st.integers(0, (1 << n) - 1), _COEFFICIENTS, max_size=max_terms))
    return MultilinearPolynomial(n, coeffs)


def _points(seed, rows, n, layout="C"):
    """Gaussian points with signed zeros mixed in, in C or F layout."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((rows, n))
    points[rng.random((rows, n)) < 0.05] = 0.0
    points[rng.random((rows, n)) < 0.05] = -0.0
    return np.asfortranarray(points) if layout == "F" else points


def _assert_same_bits(poly, points):
    got = evaluate_batch(poly, points)
    assert got.tobytes() == reference_evaluate_batch(poly, points).tobytes()


@given(poly=_polynomials(), rows=st.sampled_from([0, 1, 4095, 4097]),
       seed=st.integers(0, 2 ** 32 - 1), layout=st.sampled_from("CF"))
def test_evaluate_batch_matches_per_term_reference(poly, rows, seed, layout):
    _assert_same_bits(poly, _points(seed, rows, poly.n, layout))


@settings(max_examples=10)
@given(poly=_polynomials(max_terms=12), seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_batch_full_chunk_matches_reference(poly, seed):
    _assert_same_bits(poly, _points(seed, 1 << 16, poly.n, "F"))


@pytest.mark.parametrize("rows", [0, 1, 4095, 4097, 1 << 16])
@pytest.mark.parametrize("coeffs", [{}, {0: 0.1}, {0: Fraction(-7, 3)}],
                         ids=["zero", "float", "fraction"])
def test_evaluate_batch_zero_and_constant(rows, coeffs):
    _assert_same_bits(MultilinearPolynomial(3, coeffs), _points(5, rows, 3))


def test_evaluate_batch_dense_degree_ten():
    # every mask at n=10: monomials built on parents nine deep
    rng = np.random.default_rng(17)
    poly = MultilinearPolynomial(10, dict(enumerate(rng.standard_normal(1 << 10))))
    _assert_same_bits(poly, _points(18, 4097, 10, "F"))


def test_evaluate_batch_memo_stays_bounded():
    # 2**13 memoised monomials over 1024 rows would take 64 MiB; the
    # block shrinks to 512 rows so that the memo stays at 32 MiB
    rng = np.random.default_rng(23)
    poly = MultilinearPolynomial(13, dict(enumerate(rng.standard_normal(1 << 13))))
    points = _points(24, 1024, 13, "F")
    tracemalloc.start()
    try:
        evaluate_batch(poly, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_evaluate_batch_small_blocks(monkeypatch):
    # a memo budget below one row per slot leaves one-row blocks
    monkeypatch.setattr(boolfn, "_MEMO_POINTS", 100)
    monkeypatch.setattr(boolfn, "_EVAL_ROWS", 3)
    rng = np.random.default_rng(19)
    poly = MultilinearPolynomial(8, dict(enumerate(rng.standard_normal(1 << 8))))
    _assert_same_bits(poly, _points(20, 301, 8))
    _assert_same_bits(maj3_poly(), _points(21, 301, 3))


# ---------------------------------------------------------------------------
# Influences, variance, summaries
# ---------------------------------------------------------------------------

def test_influence_spectral_maj3():
    poly = maj3_poly()
    for t in (1, 2, 3):
        assert influence_spectral(poly, t) == Fraction(1, 2)
    with pytest.raises(ValueError):
        influence_spectral(poly, 4)


def test_influence_spectral_constant():
    poly = MultilinearPolynomial(3, {0: 5.0})
    assert all(influence_spectral(poly, t) == 0 for t in (1, 2, 3))


def test_influence_spectral_chain():
    n = 5
    f, _ = chain_pair_polys(n)
    # interior coordinates sit in two monomials, the ends in one
    assert influence_spectral(f, 2) == Fraction(2, n * n)
    assert influence_spectral(f, 1) == Fraction(1, n * n)
    assert influence_spectral(f, n) == Fraction(1, n * n)


def test_influence_flip_examples():
    t = maj3_table()
    assert [influence_flip(t, i) for i in (1, 2, 3)] == [0.5, 0.5, 0.5]
    dictator = table_from_function(2, lambda p: p[0])
    assert influence_flip(dictator, 1) == 1.0
    assert influence_flip(dictator, 2) == 0.0
    parity = table_from_function(3, lambda p: p[0] * p[1] * p[2])
    assert all(influence_flip(parity, i) == 1.0 for i in (1, 2, 3))


def test_variance_examples():
    assert variance(maj3_poly()) == 1
    assert variance(MultilinearPolynomial(2, {0: 3.0})) == 0
    n = 6
    _, g = chain_pair_polys(n)
    assert variance(g) == Fraction(1, n)


def test_summary_quantities():
    poly = maj3_poly()
    assert mean(poly) == 0
    assert degree(poly) == 3
    assert term_count(poly) == 4
    assert max_influence(poly) == Fraction(1, 2)

    const = MultilinearPolynomial(1, {0: 5.0})
    assert (mean(const), degree(const), term_count(const)) == (5.0, 0, 1)
    assert max_influence(const) == 0

    g = zchannel_g_poly()
    assert degree(g) == 3
    assert term_count(g) == 8


def test_influence_profile():
    prof = influence_profile(maj3_poly())
    assert prof.influences == (Fraction(1, 2),) * 3
    assert prof.max_influence == Fraction(1, 2)
    assert prof.variance == 1
    assert prof.mean == 0


def test_is_boolean_valued():
    def is_boolean_valued(table):  # a table decides from its own values
        return is_boolean_function(wht(table), table.values)

    assert is_boolean_valued(maj3_table())
    n = 3
    _, g = chain_pair_polys(n)
    assert not is_boolean_valued(inverse_wht(g))
    assert is_boolean_valued(inverse_wht(zchannel_g_poly()))
    # within tolerance counts as Boolean
    assert is_boolean_valued(TruthTable(1, [1.0 + 5e-10, -1.0]))
    # one off value, the last of 2^17, makes the table not Boolean
    values = np.where(np.arange(1 << 17) % 3 == 0, -1.0, 1.0)
    assert is_boolean_valued(TruthTable(17, values))
    values[-1] = 1.0 + 2e-9
    assert not is_boolean_valued(TruthTable(17, values))


@pytest.mark.parametrize("text, n, expected", [
    ("x1", 1, True),
    ("1/2*x1", 1, False),
    ("0", 2, False),
    ("1/2*(x1 + x2 + x3 - x1*x2*x3)", 3, True),
    ("x1*x7 + 1/1000000000000*x3", 7, True),
    ("x1*x7 + 1/500000000*x3", 7, False),
    ("-x5*x12", 12, True),
    ("x1*x16", 16, True),
    ("x1 + x16", 16, False),
    ("x1*x17", 17, True),
    ("x1 + x17", 17, False),
    ("x2*x18*x5", 18, True),
    ("1/20*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 20)) + ")", 20, False),
    ("-x21*x4", 21, True),
    ("x1*x22 + 1/1000000000000*x3", 22, True),
    ("x1*x22 + 1/500000000*x3", 22, False),
    ("x23 - 2*x23", 23, True),
    ("x1*x24", 24, True),
    ("x3*x17*x24", 24, True),
    ("1/2*(x1 + x24 + x12*x20 - x1*x24*x12*x20)", 24, True),
    ("1/24*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 24)) + ")", 24, False),
])
def test_is_boolean_valued_poly_reads_the_value_strips(text, n, expected):
    poly = parse_poly(text, n)
    assert is_boolean_function(poly, inverse_wht(poly).values) is expected
    assert is_boolean_function(poly) is expected


@pytest.mark.parametrize("text, n, error, message", [
    ("1e308*x1 + 1e308*x2", 2, ValueError, "table values must be finite"),
    ("1e308*x1 + 1e308*x16", 16, ValueError, "table values must be finite"),
    ("1e308*x1 + 1e308*x20", 20, ValueError, "table values must be finite"),
    ("1e400*x3", 3, OverflowError, None),
    ("1e400*x3", 18, OverflowError, None),
])
def test_is_boolean_valued_poly_fails_on_values_beyond_float_range(
        text, n, error, message):
    # the error of the table's own check, at every n
    poly = parse_poly(text, n)
    with pytest.raises(error) as table_error:
        inverse_wht(poly)
    with pytest.raises(error) as flag_error:
        is_boolean_function(poly)
    assert str(flag_error.value) == str(table_error.value)
    assert message is None or str(flag_error.value) == message


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def test_sub_self_is_zero():
    poly = maj3_poly()
    z = sub(poly, poly)
    assert z.coeffs == {}
    assert variance(z) == 0
    assert all(influence_spectral(z, t) == 0 for t in (1, 2, 3))


def test_parity_squared_is_one():
    parity = MultilinearPolynomial(3, {0b111: 1.0})
    assert mul(parity, parity).coeffs == {0: 1.0}


def test_zchannel_product_distribution():
    f, g = zchannel_f_poly(), zchannel_g_poly()
    noise = mul(f, g)
    # brute force over the 8 points
    minus = 0
    for index in range(8):
        point = tuple(1 - 2 * ((index >> j) & 1) for j in range(3))
        value = eval_poly_at(noise.coeffs, point)
        assert value in (1, -1)
        assert value == eval_poly_at(f.coeffs, point) * eval_poly_at(g.coeffs, point)
        minus += value == -1
    assert Fraction(minus, 8) == Fraction(1, 8)


def test_mul_paths_agree():
    # dense float pairs take the transform path; a one-term f with a
    # dense g (terms(f)*terms(g) = 2**n) takes convolution
    rng = np.random.default_rng(11)
    for i in range(20):
        n = int(rng.integers(1, 7))
        f = wht(TruthTable(n, rng.standard_normal(1 << n)))
        g = wht(TruthTable(n, rng.standard_normal(1 << n)))
        if i % 2:
            f = MultilinearPolynomial(n, {(1 << n) - 1: 0.75})
        product = mul(f, g)
        expected = brute_product_coeffs(f.coeffs, g.coeffs, n)
        for mask in set(product.coeffs) | set(expected):
            a = float(product.coeffs.get(mask, 0.0))
            b = float(expected.get(mask, 0))
            assert abs(a - b) <= 1e-10


def test_mul_exact_inputs_stay_exact():
    # dense exact inputs, terms(f)*terms(g) > 2**n: still convolved exactly
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = random_rational_poly(rng, n, max_terms=1 << n)
        g = random_rational_poly(rng, n, max_terms=1 << n)
        product = mul(f, g)
        assert all(isinstance(v, Fraction) for v in product.coeffs.values())
        expected = brute_product_coeffs(f.coeffs, g.coeffs, n)
        assert product.coeffs == {m: v for m, v in expected.items() if v}


def test_mul_exact_product_at_the_pair_cap():
    assert boolfn._MAX_EXACT_PAIRS == 256 * 256
    side = MultilinearPolynomial(8, {mask: Fraction(1) for mask in range(256)})
    assert mul(side, side).coeffs == {mask: 256 for mask in range(256)}
    wider = MultilinearPolynomial(9, {mask: Fraction(1) for mask in range(257)})
    with pytest.raises(ValueError) as err:
        mul(wider, side.with_n(9))
    assert str(err.value) == (
        "exact product of 257 by 256 terms exceeds the cap of 65536 term pairs")
    # a float product is not capped: it takes the dense path
    floats = MultilinearPolynomial(9, (wider.masks, wider.values.astype(float)))
    assert mul(floats, side.with_n(9)).coeffs == convolve_coeffs(wider.coeffs, side.coeffs)


def test_mul_dense_boolean_pair_matches_convolution(monkeypatch):
    rng = np.random.default_rng(13)
    f = wht(random_boolean_table(rng, 10))
    g = wht(random_boolean_table(rng, 10))
    calls = []
    butterfly = boolfn._butterfly
    monkeypatch.setattr(boolfn, "_butterfly",
                        lambda a, *used: calls.append(a.size) or butterfly(a, *used))
    product = mul(f, g)
    assert calls == [1 << 10] * 3  # two tables and one spectrum
    assert product.coeffs == convolve_coeffs(f.coeffs, g.coeffs)


@pytest.mark.parametrize("n", [*range(1, 11), 18])
def test_butterfly_matches_level_loop(n):
    a = np.random.default_rng(n).standard_normal(1 << n)
    assert np.array_equal(boolfn._butterfly(block_grid(a)).ravel(),
                          reference_butterfly(a))


@pytest.mark.parametrize("block, max_n", [(4, 4), (32, 10)])
def test_butterfly_small_blocks(monkeypatch, block, max_n):
    # up to block rows of blocks, down to column strips of width 1
    monkeypatch.setattr(boolfn, "_BLOCK", block)
    for n in range(1, max_n + 1):
        a = np.random.default_rng(n).standard_normal(1 << n)
        assert np.array_equal(boolfn._butterfly(block_grid(a)).ravel(),
                          reference_butterfly(a))


@pytest.mark.parametrize("n", [17, 18, 20])
def test_butterfly_is_the_same_for_any_worker_count(monkeypatch, n):
    a = np.random.default_rng(n).standard_normal(1 << n)
    expected = reference_butterfly(a.copy()).tobytes()
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        assert boolfn._butterfly(block_grid(a)).tobytes() == expected


@pytest.mark.parametrize("block, max_n", [(4, 4), (32, 10)])
def test_butterfly_small_blocks_on_two_workers(monkeypatch, block, max_n):
    # many blocks and strips, dealt out unevenly to the two workers
    monkeypatch.setattr(boolfn, "_BLOCK", block)
    use_workers(monkeypatch, 2)
    for n in range(1, max_n + 1):
        a = np.random.default_rng(n).standard_normal(1 << n)
        assert boolfn._butterfly(block_grid(a)).tobytes() == reference_butterfly(a).tobytes()


def test_one_block_starts_no_thread(monkeypatch):
    # tables up to 2**16 points keep the serial butterfly
    refuse_threads(monkeypatch)
    table = random_boolean_table(np.random.default_rng(5), 16)
    assert inverse_wht(wht(table)) == table
    with pytest.raises(AssertionError, match="thread pool"):
        boolfn._butterfly(np.ones((2, 1 << 16)))


def test_one_row_is_one_strip_on_the_calling_thread(monkeypatch):
    refuse_threads(monkeypatch)
    a = np.random.default_rng(7).standard_normal(1 << 16)
    expected = reference_butterfly(a.copy()).tobytes()
    emitted = []
    boolfn._butterfly(block_grid(a), emit=lambda c, strip: emitted.append(
        (c, strip.tobytes())))
    assert emitted == [(0, expected)]


def _workers_for(tasks):
    workers, pool = boolfn._pool(tasks)
    with pool:
        return workers


def test_pool_worker_count(monkeypatch):
    use_workers(monkeypatch, 2)
    assert [_workers_for(k) for k in (1, 5)] == [1, 2]
    monkeypatch.setattr(boolfn.os, "sched_getaffinity",
                        lambda pid: set(range(64)))
    monkeypatch.setattr(boolfn, "_MAX_WORKERS", 4)
    assert [_workers_for(k) for k in (0, 1, 3, 9)] == [1, 1, 3, 4]
    monkeypatch.delattr(boolfn.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(boolfn.os, "cpu_count", lambda: None)
    assert _workers_for(9) == 1


def test_butterfly_many_workers_fast_switching(monkeypatch):
    # more workers than cores, switching threads as often as possible
    monkeypatch.setattr(boolfn, "_BLOCK", 64)
    use_workers(monkeypatch, 8)
    a = np.random.default_rng(3).standard_normal(1 << 12)
    # masks in 5 of the 64 blocks: the strips start the others from +0.0
    sparse = MultilinearPolynomial(12, {m: 0.5 + m for m in (1, 70, 71, 900, 2050, 4095)})
    expected = reference_values(sparse).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert (boolfn._butterfly(block_grid(a)).tobytes()
                    == reference_butterfly(a.copy()).tobytes())
            assert boolfn._values(sparse).tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=60)
@given(st.integers(1, 10), st.sampled_from(["float", "fraction", "int"]),
       st.integers(0, 2**32 - 1))
def test_values_match_per_term_loop(n, kind, seed):
    rng = np.random.default_rng(seed)
    terms = int(rng.integers(0, (1 << n) + 1))
    masks = rng.choice(1 << n, size=terms, replace=False).tolist()
    if kind == "float":
        scale = 10.0 ** rng.integers(-5, 6, terms)
        values = (rng.standard_normal(terms) * scale).tolist()
    elif kind == "fraction":
        values = [Fraction(int(a), int(b)) for a, b in
                  zip(rng.integers(-99, 100, terms), rng.integers(1, 50, terms))]
    else:  # beyond int64, so float() rounds them
        values = [int(a) << 8 for a in rng.integers(-(1 << 62), 1 << 62, terms)]
    poly = MultilinearPolynomial(n, dict(zip(masks, values)))
    assert boolfn._values(poly).tobytes() == reference_values(poly).tobytes()


def test_dimension_mismatch():
    f = MultilinearPolynomial(2, {1: 1.0})
    g = MultilinearPolynomial(3, {1: 1.0})
    with pytest.raises(ValueError):
        sub(f, g)
    with pytest.raises(ValueError):
        mul(f, g)


def test_with_n():
    f = MultilinearPolynomial(1, {1: 1.0})
    lifted = f.with_n(3)
    assert lifted.n == 3 and lifted.coeffs == {1: 1.0}
    with pytest.raises(ValueError):
        MultilinearPolynomial(3, {4: 1.0}).with_n(2)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def test_parseval_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        t = TruthTable(n, rng.standard_normal(1 << n))
        poly = wht(t)
        lhs = sum(float(v) ** 2 for v in poly.coeffs.values())
        rhs = float(np.mean(t.values ** 2))
        assert abs(lhs - rhs) <= 1e-10


@st.composite
def _float_tables(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    return TruthTable(n, draw(hnp.arrays(
        np.float64, 1 << n, elements=st.floats(-8, 8))))


@given(_float_tables())
def test_wht_roundtrip_property(table):
    # pruned coefficients add up: each of the 2^n moves a value by at
    # most PRUNE_TOL
    back = inverse_wht(wht(table)).values
    assert (np.max(np.abs(back - table.values))
            <= 1e-9 + (1 << table.n) * boolfn.PRUNE_TOL)


@given(_float_tables())
def test_parseval_property(table):
    lhs = sum(v * v for v in wht(table).coeffs.values())
    rhs = float(np.mean(np.square(table.values)))
    # relative for rounding, plus the most the pruned coefficients can hold
    assert abs(lhs - rhs) <= 1e-9 * rhs + (1 << table.n) * boolfn.PRUNE_TOL ** 2


def test_flip_equals_spectral_random():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        t = random_boolean_table(rng, n)
        poly = wht(t)
        for coord in range(1, n + 1):
            assert abs(influence_flip(t, coord)
                       - float(influence_spectral(poly, coord))) <= 1e-10


def test_variance_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        poly = wht(TruthTable(n, rng.standard_normal(1 << n)))
        total = sum(float(v) ** 2 for v in poly.coeffs.values())
        m = float(mean(poly))
        assert abs(float(variance(poly)) - (total - m * m)) <= 1e-12


def test_lemma_inequalities_random():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        f = random_rational_poly(rng, n)  # variance <= 8/36 < 1/4
        g = random_rational_poly(rng, n)
        assert float(variance(sub(f, g))) <= 1.0 + 1e-10
        eps = max(float(max_influence(f)), float(max_influence(g)))
        diff = sub(f, g)
        for t in range(1, n + 1):
            assert float(influence_spectral(diff, t)) <= 4 * eps + 1e-10
    for _ in range(200):
        n = int(rng.integers(2, 6))
        f = wht(random_boolean_table(rng, n))
        g = wht(random_boolean_table(rng, n))
        eps = max(float(max_influence(f)), float(max_influence(g)))
        bound = 4 * eps * term_count(f) * term_count(g)
        prod = mul(f, g)
        for t in range(1, n + 1):
            assert float(influence_spectral(prod, t)) <= bound + 1e-10
