import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwiretap import (
    DISTRIBUTIONS,
    PSI_CATALOG,
    InputDistribution,
    MultilinearPolynomial,
    PreconditionError,
    TruthTable,
    WiretapSpec,
    additive_bound,
    basic_bound,
    corollary_bound,
    degree,
    expect_exact,
    expect_gaussian_mc,
    hypothesis_check,
    inverse_wht,
    lemma_suite,
    max_influence,
    mul,
    multiplicative_bound,
    multiplicative_noise,
    parse_poly,
    sub,
    variance,
    verify_invariance,
    verify_invariance_many,
    wht,
)
from compwiretap import influence_spectral, invariance
from compwiretap.invariance import _counter_gaussians, _gaussian_chunk
from helpers import (
    PSI_POWERS,
    chain_pair_polys,
    exact_expectation,
    exact_poly,
    exact_quartic_gap,
    maj3_poly,
    parent_counter_gaussians,
    parent_gaussian_chunk,
    random_boolean_table,
    random_rational_poly,
    reference_additive_bound,
    reference_booleans,
    reference_gaussian_chunk,
    reference_lemma_suite,
    reference_multiplicative_bound,
    reference_multiplicative_noise,
    reference_power_moments,
    refuse_threads,
    use_workers,
    zchannel_f_poly,
    zchannel_g_poly,
)


# ---------------------------------------------------------------------------
# Moment checks
# ---------------------------------------------------------------------------

def test_moments_rademacher():
    report = hypothesis_check(DISTRIBUTIONS["rademacher"], 100_000, seed=0)
    assert report.moments == (0.0, 1.0, 0.0, 1.0)
    assert report.passed and report.exact
    for m, target, se in zip(report.empirical_moments, (0, 1, 0, 1),
                             report.empirical_stderrs):
        assert abs(m - target) <= 5 * se


def test_moments_gaussian():
    report = hypothesis_check(DISTRIBUTIONS["gaussian"], 100_000, seed=1)
    assert report.moments == (0.0, 1.0, 0.0, 3.0)
    assert report.passed


def test_moments_violating_distribution():
    report = hypothesis_check(DISTRIBUTIONS["uniform_pm2"], 100_000, seed=0)
    assert report.moments[1] == 4.0
    assert not report.flags[1]
    assert not report.passed


def test_moments_empirical_path():
    dist = InputDistribution(
        "biased", lambda rng, size: rng.standard_normal(size) + 0.5)
    report = hypothesis_check(dist, 50_000, seed=2)
    assert not report.exact
    assert not report.flags[0]  # mean 0.5 is way off
    ok = InputDistribution("g", lambda rng, size: rng.standard_normal(size))
    assert hypothesis_check(ok, 50_000, seed=3).passed


def test_moments_requires_enough_samples():
    with pytest.raises(ValueError):
        hypothesis_check(DISTRIBUTIONS["rademacher"], 5000)


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("samples", [10_000, 123_457])
def test_moments_are_the_same_for_any_worker_count(monkeypatch, name, samples):
    reports = []
    for workers in (1, 2, 4):
        use_workers(monkeypatch, workers)
        # repr tells every float apart by its bits
        reports.append(repr(hypothesis_check(DISTRIBUTIONS[name], samples,
                                             seed=9).to_dict()))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("shuffle", [False, True])
def test_small_integer_powers_equal_running_products(shuffle):
    # every sample hypothesis_check takes by products: each power up to
    # the fourth is an exact float, so pow must give the product's bits
    top = invariance._EXACT_POWER_MAX
    assert top ** 4 < 2 ** 53
    v = np.r_[np.arange(-top, top + 1, dtype=np.float64), -0.0]
    if shuffle:
        np.random.default_rng(18).shuffle(v)
    p = v
    for k in range(1, 5):
        assert (v ** k).tobytes() == p.tobytes(), k
        p = p * v


def _drawn(name, draw):
    """A distribution without declared moments whose samples are
    ``draw(rng, size)`` as floats."""
    return InputDistribution(
        name, lambda rng, size: np.asarray(draw(rng, size), dtype=np.float64))


def _with(draw, index, value):
    """``draw`` with sample ``index`` set to ``value``."""
    def sampler(rng, size):
        x = np.asarray(draw(rng, size), dtype=np.float64)
        x[index] = value
        return x
    return sampler


def _signs(rng, size):
    return rng.integers(0, 2, size) * 2.0 - 1.0


_EDGE_DISTRIBUTIONS = [
    _drawn("pm3", lambda rng, size: rng.integers(-3, 4, size)),
    _drawn("pm8192", lambda rng, size: _signs(rng, size) * 8192),
    _drawn("pm8193", lambda rng, size: _signs(rng, size) * 8193),
    _drawn("wide", lambda rng, size: rng.integers(-8192, 8193, size)),
    _drawn("one_8193", _with(lambda rng, size: rng.integers(-3, 4, size),
                             -1, -8193.0)),
    _drawn("one_half", _with(lambda rng, size: rng.integers(-3, 4, size),
                             -1, 0.5)),
    _drawn("head_integer", _with(lambda rng, size: rng.standard_normal(size),
                                 0, 1.0)),
    _drawn("signed_zeros", lambda rng, size: rng.integers(-1, 2, size) * -0.0),
    _drawn("strided", lambda rng, size: (rng.integers(-3, 4, 2 * size) * 1.0)[::2]),
    _drawn("nan_tail", _with(lambda rng, size: rng.integers(-3, 4, size),
                             -1, np.nan)),
    _drawn("inf_tail", _with(lambda rng, size: rng.integers(-3, 4, size),
                             -1, -np.inf)),
]


@pytest.mark.parametrize("dist", [DISTRIBUTIONS[name] for name in sorted(DISTRIBUTIONS)]
                         + _EDGE_DISTRIBUTIONS, ids=lambda dist: dist.name)
@pytest.mark.parametrize("samples", [10_000, 12_347, 99_999, 100_000])
def test_moments_equal_the_pow_reference(dist, samples):
    for seed in (0, 18):
        if dist.name == "inf_tail":
            # refused before numpy warns on the subtraction of inf
            with pytest.raises(ValueError, match=(
                    r"^the inf_tail sample holds an infinite value: -inf$")):
                hypothesis_check(dist, samples, seed=seed)
            continue
        report = hypothesis_check(dist, samples, seed=seed)
        # repr tells every float apart by its bits
        assert repr((report.empirical_moments, report.empirical_stderrs)) \
            == repr(reference_power_moments(dist, samples, seed))
        if dist.exact_moments is None:
            assert repr(report.moments) == repr(report.empirical_moments)


def test_moments_on_one_core_start_no_thread(monkeypatch):
    use_workers(monkeypatch, 1)
    refuse_threads(monkeypatch)
    hypothesis_check(DISTRIBUTIONS["gaussian"], 10_000)
    use_workers(monkeypatch, 2)
    with pytest.raises(AssertionError, match="thread pool"):
        hypothesis_check(DISTRIBUTIONS["gaussian"], 10_000)


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def test_basic_bound_examples():
    assert basic_bound(MultilinearPolynomial(2, {}), 1.0) == 0.0
    # Maj3: k=3, three influences of 1/2 -> (1/12)*729*(3/4)
    assert basic_bound(maj3_poly(), 1.0) == 45.5625
    dictator = parse_poly("x1")
    assert basic_bound(dictator, 1.0) == 0.75
    assert basic_bound(dictator, 2.0) == 1.5  # monotone in C
    with pytest.raises(ValueError):
        basic_bound(dictator, -1.0)


def test_corollary_bound_maj3_exact():
    assert corollary_bound(maj3_poly(), 1.0, Fraction(1, 2)) == 91.125
    assert corollary_bound(maj3_poly(), 1.0, 0.5) == 91.125
    assert 91.125 <= 92.0  # consistent with the coarser ceiling of 92


def test_corollary_bound_constant_is_zero():
    assert corollary_bound(MultilinearPolynomial(2, {0: 1.0}), 1.0, 0.5) == 0.0


def test_corollary_bound_preconditions():
    with pytest.raises(PreconditionError) as err:
        corollary_bound(maj3_poly(), 1.0, 0.25)  # influences are 1/2
    assert "Inf" in str(err.value)
    big = MultilinearPolynomial(1, {1: 2.0})  # variance 4
    with pytest.raises(PreconditionError) as err:
        corollary_bound(big, 1.0, 4.0)
    assert "Var" in str(err.value)


def test_additive_bound_chain_example():
    for n in (4, 8, 16):
        f, g = chain_pair_polys(n)
        assert additive_bound(f, g, 1.0) == 108.0 / (n * n)


def test_additive_bound_small_example():
    f = parse_poly("1/4*x1*x2", declared_n=3)
    g = parse_poly("1/4*x3", declared_n=3)
    assert additive_bound(f, g, 1.0) == 27 / 8


def test_additive_bound_variance_precondition():
    f = parse_poly("x1")  # variance 1
    with pytest.raises(PreconditionError) as err:
        additive_bound(f, parse_poly("1/4*x1"), 1.0)
    assert "Var[f]" in str(err.value)


def test_multiplicative_bound_zchannel():
    f, g = zchannel_f_poly(), zchannel_g_poly()
    spec = WiretapSpec.from_polys(f, g)
    literal = multiplicative_bound(spec, 1.0)
    assert literal == 24 * 9 ** 9  # (1/3)*9*8*9^9 with eps = 1
    assert abs(literal - 9.298091736e9) <= 1e-3 * literal
    variant = multiplicative_bound(spec, 1.0, k=max(degree(mul(f, g)), 1))
    assert variant == 5832.0  # (1/3)*3*8*9^3
    assert literal > 1e5  # the literal formula is far above 10^5


def test_multiplicative_bound_trivial_cases():
    x1 = parse_poly("x1")
    # k=1, l=1, eps=1
    assert multiplicative_bound(WiretapSpec.from_polys(x1, x1), 1.0) == 3.0
    one = parse_poly("1", declared_n=1)
    # constant g: treated as degree 1, one term -> same as f alone
    assert multiplicative_bound(WiretapSpec.from_polys(x1, one), 1.0) == 3.0
    with pytest.raises(PreconditionError):
        multiplicative_bound(
            WiretapSpec.from_polys(x1, parse_poly("1/2*x1")), 1.0)
    with pytest.raises(ValueError):
        multiplicative_bound(WiretapSpec.from_polys(x1, x1), 1.0, k=0)


def _float_or_exact_poly(rng, n):
    """A sparse exact polynomial, or the float spectrum of a dense table
    with values k/8, |k| <= 4."""
    if rng.integers(2):
        return random_rational_poly(rng, n)
    return wht(TruthTable(n, rng.integers(-4, 5, 1 << n) / 8.0))


@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(1, 7))
def test_pair_epsilon_has_the_bits_of_the_larger_max_influence(seed, n):
    rng = np.random.default_rng(seed)
    f, g = (_float_or_exact_poly(rng, n) for _ in range(2))
    got = float(invariance.pair_epsilon(f, g))
    assert got.hex() == float(max(max_influence(f), max_influence(g))).hex()


@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(1, 7))
def test_single_bounds_have_the_bits_of_per_coordinate_influences(seed, n):
    rng = np.random.default_rng(seed)
    poly = _float_or_exact_poly(rng, n)
    infl = [Fraction(influence_spectral(poly, t)) for t in range(1, n + 1)]
    k = degree(poly)
    basic = float(Fraction(3) * Fraction(9 ** k, 12) * sum(i * i for i in infl))
    assert basic_bound(poly, 3.0).hex() == basic.hex()
    if float(variance(poly)) <= 1.0:
        eps = max(infl)
        expected = float(Fraction(3) * Fraction(k * 9 ** k, 12) * eps)
        assert corollary_bound(poly, 3.0, eps).hex() == expected.hex()


@pytest.mark.parametrize("c4", [-1.0, math.inf, math.nan])
def test_test_function_checks_c4_as_the_bounds_check_c(c4):
    with pytest.raises(ValueError, match=r"^C must be finite and >= 0, got "):
        invariance.TestFunction("psi", np.cos, c4)


def test_corollary_dominates_basic_on_low_influence():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        poly = random_rational_poly(rng, n)  # variance < 1/4
        eps = max_influence(poly)
        if eps == 0:
            continue
        assert corollary_bound(poly, 1.0, eps) >= basic_bound(poly, 1.0) - 1e-12


# ---------------------------------------------------------------------------
# The bounds against the exact quartic gap
# ---------------------------------------------------------------------------

QUARTIC_C4 = PSI_CATALOG["quartic"].c4


def test_exact_quartic_gap_examples():
    assert exact_quartic_gap(parse_poly("x1")) == 2  # E g**4 = 3, E x**4 = 1
    assert exact_quartic_gap(parse_poly("1/2*(x1 + x2 + x3 + x4)")) == Fraction(1, 2)
    # (3 + y)**4 with y = x1*x2: 81 + 54 E y**2 + E y**4, E y**4 = 9 or 1
    shifted = parse_poly("3 + x1*x2")
    assert exact_expectation(shifted, "quartic", gaussian=True) == 144
    assert exact_expectation(shifted, "quartic", gaussian=False) == 136


@settings(max_examples=150)
@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(2, 6))
def test_single_and_additive_bounds_cover_the_exact_quartic_gap(seed, n):
    rng = np.random.default_rng(seed)
    f = random_rational_poly(rng, n)  # variance < 1/4
    g = random_rational_poly(rng, n)
    gap = exact_quartic_gap(f)
    assert basic_bound(f, QUARTIC_C4) >= gap
    assert corollary_bound(f, QUARTIC_C4, max_influence(f)) >= gap
    assert additive_bound(f, g, QUARTIC_C4) >= exact_quartic_gap(sub(f, g))


@settings(max_examples=60)
@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(1, 5))
def test_multiplicative_bounds_cover_the_exact_quartic_gap(seed, n):
    rng = np.random.default_rng(seed)
    spec = WiretapSpec.from_tables(random_boolean_table(rng, n),
                                   random_boolean_table(rng, n))
    noise = mul(spec.f_poly, spec.g_poly)
    gap = exact_quartic_gap(noise)
    assert multiplicative_bound(spec, QUARTIC_C4) >= gap
    # the deg(f*g) variant the CLI reports as the tighter valid bound
    assert multiplicative_bound(spec, QUARTIC_C4, k=max(degree(noise), 1)) >= gap


@settings(max_examples=100)
@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(1, 8),
       psi=st.sampled_from(sorted(PSI_POWERS)))
def test_expect_exact_is_the_exact_pm1_side(seed, n, psi):
    poly = random_rational_poly(np.random.default_rng(seed), n, max_terms=12)
    exact = float(exact_expectation(poly, psi, gaussian=False))
    assert expect_exact(poly, psi) == pytest.approx(exact, rel=1e-12, abs=1e-15)


@settings(max_examples=120)
@given(seed=st.integers(0, (1 << 32) - 1), n=st.integers(1, 6),
       shift=st.sampled_from([0, 1, 3, 40]),
       psi=st.sampled_from(["square", "quartic"]),
       samples=st.sampled_from([4096, (1 << 16) + 4099]))
def test_gaussian_mc_stderr_is_calibrated_against_the_exact_side(
        seed, n, shift, psi, samples):
    # degree at most 2: psi(F) of a degree-3 F is heavy-tailed enough
    # that the z-score of a few thousand samples is skewed (see CHANGES)
    rng = np.random.default_rng(seed)
    poly = sub(random_rational_poly(rng, n, max_degree=2),
               MultilinearPolynomial(n, {0: Fraction(shift)}))
    exact = float(exact_expectation(poly, psi, gaussian=True))
    estimate, stderr = expect_gaussian_mc(poly, psi, samples, seed=seed)
    if degree(poly) == 0:  # no sampling error, only the sum's rounding
        assert estimate == pytest.approx(exact, rel=1e-12)
    else:
        assert abs(estimate - exact) <= 5 * stderr


# ---------------------------------------------------------------------------
# Exact and Monte Carlo expectations
# ---------------------------------------------------------------------------

def test_expect_exact_identity_and_square():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        poly = wht(random_boolean_table(rng, n))
        mean_val = float(poly.coeffs.get(0, 0.0))
        assert abs(expect_exact(poly, "identity") - mean_val) <= 1e-12
        power = sum(float(v) ** 2 for v in poly.coeffs.values())
        assert abs(expect_exact(poly, "square") - power) <= 1e-12


@pytest.mark.parametrize("n", [1, 10, 16, 17, 18, 20, 21, 22, 23, 24])
def test_expect_exact_equals_numpy_mean(n):
    # slice sums added by halving follow numpy's pairwise order exactly
    rng = np.random.default_rng(n)
    masks = rng.integers(0, 1 << n, 40)
    poly = MultilinearPolynomial(n, {int(m): float(rng.standard_normal()) * 3.0
                                     for m in masks})
    values = inverse_wht(poly).values
    for name, psi in PSI_CATALOG.items():
        expected = np.mean(np.asarray(psi.fn(values), dtype=np.float64))
        assert np.float64(expect_exact(poly, name)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_expect_exact_one_strip_is_numpy_mean_bit_for_bit(n):
    # up to 2**16 points the values are one strip, and below 2**7 points
    # that strip is one leaf; the zero polynomial's strip is all +0.0
    rng = np.random.default_rng(200 + n)
    masks = rng.integers(0, 1 << n, 6).tolist()
    polys = [MultilinearPolynomial(n, {}),
             random_rational_poly(rng, n, max_terms=12),
             MultilinearPolynomial(n, {m: float(rng.standard_normal()) * 3.0
                                       for m in masks})]
    for poly in polys:
        values = inverse_wht(poly).values
        for name, psi in PSI_CATALOG.items():
            expected = np.mean(np.asarray(psi.fn(values), dtype=np.float64))
            assert np.float64(expect_exact(poly, name)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32, 64])
def test_a_row_shorter_than_a_leaf_folds_as_numpy_sums_it(width):
    rng = np.random.default_rng(width)
    rows = np.stack([np.full(width, -0.0), rng.choice([0.0, -0.0], width),
                     rng.standard_normal(width) * np.exp2(rng.integers(-60, 60, width))])
    folded = invariance._row_sums(invariance._leaf_sums(rows))
    expected = np.array([np.add.reduce(row) for row in rows])
    assert folded.tobytes() == expected.tobytes()


def _exact_side_layout(rng, n, layout):
    """Masks in one block row, in every block row, or anywhere, with
    float or exact coefficients."""
    rows = 1 << (n - 16)
    if layout == "one_row":
        masks = (int(rng.integers(rows)) << 16) + rng.integers(0, 1 << 16, 30)
    elif layout == "every_row":
        masks = (np.arange(rows) << 16) + rng.integers(0, 1 << 16, rows)
    else:
        masks = rng.integers(0, 1 << n, 60)
    if layout == "fractions":
        values = [Fraction(int(a), int(b)) for a, b in zip(
            rng.integers(-40, 41, masks.size), rng.integers(1, 30, masks.size))]
    else:
        values = (rng.standard_normal(masks.size) * 2.0).tolist()
    return MultilinearPolynomial(n, dict(zip(masks.tolist(), values)))


@pytest.mark.parametrize("n, layout, workers", [
    (21, "one_row", 1), (21, "every_row", 2), (21, "fractions", 2),
    (22, "fractions", 1), (24, "one_row", 2), (24, "every_row", 2)])
def test_expect_exact_equals_numpy_mean_for_block_layouts(
        monkeypatch, n, layout, workers):
    # the strips are folded as they come out of the butterfly, on any
    # number of workers; the result is still np.mean of the whole table
    use_workers(monkeypatch, workers)
    poly = _exact_side_layout(np.random.default_rng(n), n, layout)
    values = inverse_wht(poly).values
    names = ["quartic", "sin"] if n == 24 else list(PSI_CATALOG)
    for name in names:
        expected = np.mean(PSI_CATALOG[name].fn(values))
        assert np.float64(expect_exact(poly, name)).tobytes() == expected.tobytes()


def test_expect_exact_chain24_equals_numpy_mean():
    f, _ = chain_pair_polys(24)
    values = inverse_wht(f).values
    for name in ("quartic", "cos"):
        expected = np.mean(PSI_CATALOG[name].fn(values))
        assert np.float64(expect_exact(f, name)).tobytes() == expected.tobytes()


def _special_row(rng, kind):
    """A 2**16-point row of mixed magnitudes with signed zeros, infinities,
    NaNs or subnormals sprinkled in."""
    row = rng.standard_normal(1 << 16) * np.exp2(rng.integers(-60, 60, 1 << 16))
    at = rng.integers(0, row.size, 64)
    if kind == "zeros":
        row[:] = rng.choice([0.0, -0.0], row.size)
        row[at[:3]] = rng.standard_normal(3)
    elif kind == "negative_zeros":
        row[:] = -0.0
    elif kind == "inf":
        row[at] = np.inf
    elif kind == "inf_and_nan":
        row[at[:32]] = np.inf
        row[at[32:]] = -np.inf
    elif kind == "nan":
        row[at] = np.nan
    elif kind == "subnormal":
        row = rng.standard_normal(row.size) * 5e-324 * 1e5
        row[at] = -0.0
    elif kind == "huge":
        row = rng.standard_normal(row.size) * 1e307
    return row


@pytest.mark.parametrize("kind", ["mixed", "zeros", "negative_zeros", "inf",
                                  "inf_and_nan", "nan", "subnormal", "huge"])
def test_leaf_and_tree_fold_is_numpys_pairwise_sum(kind):
    # expect_exact folds 128-value leaves in a balanced tree and adds the
    # result to 0.0: the order numpy's add.reduce uses on a contiguous
    # row.  A numpy whose summation order differs fails here.
    rng = np.random.default_rng(sum(map(ord, kind)))
    rows = np.stack([_special_row(rng, kind) for _ in range(4)])
    with np.errstate(all="ignore"):  # inf - inf, and overflow
        leaves = np.concatenate([invariance._leaf_sums(strip) for strip in
                                 np.hsplit(rows, 64)], axis=1)
        folded = invariance._row_sums(leaves)
        expected = np.array([np.add.reduce(row) for row in rows])
    assert leaves.shape == (4, 512)
    assert folded.tobytes() == expected.tobytes()


def test_expect_exact_n24_chain_holds_no_dense_table():
    # the parent built the 128 MiB table of values and psi of it
    f, _ = chain_pair_polys(24)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        expect_exact(f, "quartic")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_expect_exact_many_workers_fast_switching(monkeypatch):
    # more workers than cores, each running psi and writing its strips'
    # leaf sums, switching threads as often as possible
    polys = [_exact_side_layout(np.random.default_rng(20), 20, layout)
             for layout in ("one_row", "random")]
    use_workers(monkeypatch, 1)
    expected = [np.float64(expect_exact(poly, "sin")).tobytes() for poly in polys]
    use_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert [np.float64(expect_exact(poly, "sin")).tobytes()
                    for poly in polys] == expected
    finally:
        sys.setswitchinterval(interval)


def test_expect_exact_maj3_cos():
    assert abs(expect_exact(maj3_poly(), "cos") - math.cos(1.0)) <= 1e-15


def test_gaussian_mc_zero_poly():
    zero = MultilinearPolynomial(3, {})
    for name, psi in PSI_CATALOG.items():
        est, se = expect_gaussian_mc(zero, psi, 2000, seed=5)
        assert est == float(psi.fn(np.array([0.0]))[0])
        assert se == 0.0


def test_gaussian_mc_identity_and_square():
    rng = np.random.default_rng(79)
    poly = random_rational_poly(rng, 6, max_terms=6)
    est, se = expect_gaussian_mc(poly, "identity", 200_000, seed=7)
    assert abs(est - float(poly.coeffs.get(0, 0))) <= 4 * se
    est, se = expect_gaussian_mc(poly, "square", 200_000, seed=7)
    power = sum(float(v) ** 2 for v in poly.coeffs.values())
    assert abs(est - power) <= 4 * se


def test_gaussian_mc_determinism():
    poly = maj3_poly()
    first = expect_gaussian_mc(poly, "cos", 150_000, seed=11)
    second = expect_gaussian_mc(poly, "cos", 150_000, seed=11)
    assert first == second  # bit-identical
    other_seed = expect_gaussian_mc(poly, "cos", 150_000, seed=12)
    assert first != other_seed


@pytest.mark.parametrize("shift", [1e6, 1e8])
def test_gaussian_mc_stderr_large_mean(shift):
    # F = c + 1e-3*x1 has the stderr of 1e-3*x1 alone; a raw
    # sum-of-squares variance cancels to 0 or noise at these shifts
    samples = 200_000
    _, centred = expect_gaussian_mc(
        MultilinearPolynomial(1, {1: 1e-3}), "identity", samples, seed=1)
    _, shifted = expect_gaussian_mc(
        MultilinearPolynomial(1, {0: shift, 1: 1e-3}), "identity", samples,
        seed=1)
    assert abs(centred / (1e-3 / math.sqrt(samples)) - 1) <= 0.01
    assert abs(shifted / centred - 1) <= 1e-3


def test_bare_callable_psi():
    poly = maj3_poly()
    report = verify_invariance(poly, np.cos, 91.125, samples=20_000)
    assert report.psi == "cos"
    assert report.lhs_exact == expect_exact(poly, "cos")
    assert report.rhs_gaussian == expect_gaussian_mc(poly, "cos", 20_000)[0]


def test_gaussian_chunks_are_per_index():
    # the sample at a given index does not depend on the chunking
    whole = _gaussian_chunk(42, 4, 0, 128)
    tail = _gaussian_chunk(42, 4, 64, 64)
    assert np.array_equal(whole[64:], tail)


@given(n=st.sampled_from([1, 3, 24]), start=st.integers(0, 1 << 40),
       length=st.integers(1, 5000),
       seed=st.one_of(st.just((1 << 64) - 1), st.integers(0, (1 << 64) - 1)))
def test_gaussian_chunk_matches_whole_array_reference(n, start, length, seed):
    block = _gaussian_chunk(seed, n, start, length)
    expected = reference_gaussian_chunk(seed, n, start, length)
    assert block.shape == expected.shape == (length, n)
    assert block.tobytes() == expected.tobytes()


def test_gaussian_chunk_full_size_matches_reference():
    seed = (1 << 64) - 1
    block = _gaussian_chunk(seed, 24, 1 << 16, 1 << 16)
    assert block.tobytes() == reference_gaussian_chunk(
        seed, 24, 1 << 16, 1 << 16).tobytes()


def test_counter_gaussians_are_finite_at_the_top_counter():
    from scipy.special import ndtri
    z = np.array([0, 1 << 52, (1 << 53) - 1], dtype=np.uint64)
    got = _counter_gaussians(z, np.empty(3))
    assert np.all(np.isfinite(got))
    # the bottom and middle counters keep their midpoint quantiles
    assert got[0] == ndtri(0.5 * 2.0 ** -53)
    assert got[1] == 0.0
    assert got[2] == ndtri(np.nextafter(1.0, 0.0))
    assert got[2] > ndtri(1.0 - 2.0 ** -52)


def test_gaussian_chunk_row_blocks_do_not_matter(monkeypatch):
    expected = reference_gaussian_chunk(9, 5, 123, 1000)
    monkeypatch.setattr(invariance, "_GEN_POINTS", 7 * 5)  # 7 rows
    assert _gaussian_chunk(9, 5, 123, 1000).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 3, 6, 24])
@pytest.mark.parametrize("start, length", [
    (0, 1 << 16), (5 << 16, 1 << 16), ((1 << 40) + 3, 4099), (17, 1)])
def test_gaussian_chunk_matches_the_first_blocked_generator(n, start, length):
    for seed in (0, 12345, (1 << 64) - 1):
        block = _gaussian_chunk(seed, n, start, length)
        expected = parent_gaussian_chunk(seed, n, start, length)
        assert block.tobytes() == expected.tobytes()


def test_counter_gaussians_match_the_uint64_conversion():
    # every counter is below 2**53, so its int64 view converts exactly;
    # the top counter's midpoint is clamped below 1.0 as before
    rng = np.random.default_rng(53)
    z = np.concatenate([
        np.array([0, 1, 2, 1 << 52, (1 << 53) - 2, (1 << 53) - 1]),
        rng.integers(0, 1 << 53, 10_000),
        (1 << 53) - 1 - rng.integers(0, 1 << 12, 1000)]).astype(np.uint64)
    for block in (z, z[:11_000].reshape(10, -1)[:, 1::3]):
        got = _counter_gaussians(block, np.empty(block.shape))
        expected = parent_counter_gaussians(block, np.empty(block.shape))
        assert got.tobytes() == expected.tobytes()
    assert np.isfinite(_counter_gaussians(z, np.empty(z.shape))).all()


def test_gaussian_chunk_has_no_cache():
    assert not hasattr(_gaussian_chunk, "cache_clear")


def test_gaussian_mc_returns_its_memory():
    # no chunk outlives the call that generated it
    f, _ = chain_pair_polys(16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        expect_gaussian_mc(f, "cos", 200_000, seed=4)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 20


def test_verify_invariance_many_matches_single_calls():
    rng = np.random.default_rng(89)
    polys = [random_rational_poly(rng, 6) for _ in range(3)]
    bounds = [0.5, 0.0, corollary_bound(polys[2], 1.0, max_influence(polys[2]))]
    reports = verify_invariance_many(polys, "cos", bounds,
                                     samples=70_000, seed=21)
    assert reports == [
        verify_invariance(poly, "cos", bound, samples=70_000, seed=21)
        for poly, bound in zip(polys, bounds)]


@pytest.mark.parametrize("n", [3, 16, 24])
@pytest.mark.parametrize("samples", [(1 << 16) + 1, 3 << 16, 1_000_000])
def test_gaussian_mc_is_the_same_for_any_worker_count(monkeypatch, n, samples):
    poly = MultilinearPolynomial(n, {0: 0.25, 1: 0.5, 1 << (n - 1): -0.5,
                                     0b111: 0.125, (1 << n) - 1: 0.0625})
    results = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        # the estimate and the stderr, as raw bytes
        estimate_and_stderr = expect_gaussian_mc(poly, "sin", samples, seed=11)
        results.append(np.array(estimate_and_stderr).tobytes())
    assert results[0] == results[1]


def test_verify_invariance_many_is_the_same_for_any_worker_count(monkeypatch):
    f, g = chain_pair_polys(12)
    reports = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        reports.append(verify_invariance_many([f, g, sub(f, g)], "quartic",
                                              [1.0, 0.5, 0.0],
                                              samples=200_000, seed=5))
    assert reports[0] == reports[1]


def test_gaussian_mc_many_workers_fast_switching(monkeypatch):
    # more workers than cores, switching threads as often as possible: a
    # chunk written over before it is reduced would move the estimate
    poly = maj3_poly()
    use_workers(monkeypatch, 1)
    expected = np.array(expect_gaussian_mc(poly, "cos", 40 << 16, seed=8)).tobytes()
    use_workers(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = expect_gaussian_mc(poly, "cos", 40 << 16, seed=8)
            assert np.array(got).tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


def test_one_chunk_starts_no_thread(monkeypatch):
    refuse_threads(monkeypatch)
    f, _ = chain_pair_polys(20)
    expect_gaussian_mc(f, "cos", 1 << 16, seed=2)
    verify_invariance(maj3_poly(), "cos", 1.0, samples=1 << 16)
    with pytest.raises(AssertionError, match="thread pool"):
        expect_gaussian_mc(f, "cos", (1 << 16) + 1, seed=2)


def test_gaussian_mc_holds_one_chunk_per_worker_and_one_more(monkeypatch):
    # the ring of caller-owned chunks bounds what is in flight: one more
    # than the workers, and no more than the chunks
    f, _ = chain_pair_polys(16)
    chunk = 16 * invariance._CHUNK * 8
    for workers, samples, chunks in [(2, 1_000_000, 3), (1, 1_000_000, 2),
                                     (2, 2 * invariance._CHUNK, 2)]:
        use_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            expect_gaussian_mc(f, "cos", samples, seed=4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < chunks * chunk + (4 << 20), (workers, samples)


def test_verify_invariance_many_validation():
    poly = maj3_poly()
    with pytest.raises(ValueError):
        verify_invariance_many([poly, poly.with_n(4)], "cos", [1.0, 1.0],
                               samples=2000)
    with pytest.raises(ValueError):
        verify_invariance_many([poly, poly], "cos", [1.0], samples=2000)
    with pytest.raises(ValueError):
        verify_invariance_many([], "cos", [], samples=2000)


@pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_verify_invariance_rejects_z_before_any_sample_or_table(monkeypatch, z):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample or a table was built")

    monkeypatch.setattr(invariance, "_gaussian_mc", refuse)
    monkeypatch.setattr(invariance, "_value_strips", refuse)
    poly = maj3_poly()
    with pytest.raises(ValueError, match=r"^z must be finite and >= 0, got "):
        verify_invariance(poly, "cos", 1.0, samples=2000, z=z)
    with pytest.raises(ValueError, match=r"^z must be finite and >= 0, got "):
        verify_invariance_many([poly, poly], "cos", [1.0, 1.0], samples=2000, z=z)


def test_verify_invariance_accepts_z_zero():
    report = verify_invariance(maj3_poly(), "cos", 91.125, samples=2000, z=0.0)
    assert report.z == 0.0 and report.passed


def test_gaussian_mc_input_validation():
    poly = maj3_poly()
    with pytest.raises(ValueError):
        expect_gaussian_mc(poly, "cos", 500)
    with pytest.raises(ValueError):
        expect_gaussian_mc(poly, "cos", 2000, seed=-1)
    with pytest.raises(ValueError):
        expect_gaussian_mc(poly, "no-such-psi", 2000)


def test_gaussian_samples_look_standard_normal():
    block = _gaussian_chunk(0, 8, 0, 1 << 16)
    flat = block.ravel()
    n = flat.size
    assert abs(flat.mean()) <= 5 / math.sqrt(n)
    assert abs(flat.std() - 1.0) <= 5 / math.sqrt(n)
    assert abs((flat ** 3).mean()) <= 5 * math.sqrt(15 / n)
    assert abs((flat ** 4).mean() - 3.0) <= 5 * math.sqrt(96 / n)


# ---------------------------------------------------------------------------
# Invariance verification
# ---------------------------------------------------------------------------

def test_verify_invariance_square_zero_bound():
    rng = np.random.default_rng(83)
    poly = random_rational_poly(rng, 5, max_terms=5)
    report = verify_invariance(poly, "square", bound=0.0,
                               samples=100_000, seed=13)
    assert report.passed  # analytic delta is 0; 4 stderr absorbs noise
    assert report.bound == 0.0


def test_verify_invariance_maj3_cos():
    report = verify_invariance(maj3_poly(), "cos", bound=91.125,
                               samples=100_000, seed=0)
    assert report.passed
    assert report.delta < 0.2  # far inside the bound in practice


def test_verify_invariance_chain_noise():
    for n in (4, 12):
        f, g = chain_pair_polys(n)
        noise = sub(f, g)
        bound = additive_bound(f, g, 1.0)
        report = verify_invariance(noise, "cos", bound,
                                   samples=100_000, seed=0)
        assert report.passed
        assert report.bound == 108.0 / (n * n)


def test_verify_invariance_report_fields():
    report = verify_invariance(maj3_poly(), "cos", bound=91.125,
                               samples=50_000, seed=3)
    d = report.to_dict()
    assert d["psi"] == "cos"
    assert d["samples"] == 50_000
    assert d["delta"] == abs(d["lhs_exact"] - d["rhs_gaussian"])
    assert d["passed"] == (d["delta"] <= d["bound"] + d["z"] * d["stderr"])


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

def test_lemma_suite_f_equals_g():
    f, g = chain_pair_polys(5)
    report = lemma_suite(WiretapSpec.from_polys(f, f))
    byname = {c.name: c for c in report.checks}
    assert byname["variance_difference"].applicable
    assert byname["variance_difference"].lhs == 0.0
    assert byname["influence_difference"].passed
    assert not byname["influence_product"].applicable  # f is real-valued
    assert report.passed


def test_lemma_suite_zchannel_pair():
    report = lemma_suite(
        WiretapSpec.from_polys(zchannel_f_poly(), zchannel_g_poly()))
    byname = {c.name: c for c in report.checks}
    # Var[f] = 1 > 1/4: the first lemma does not apply
    assert not byname["variance_difference"].applicable
    assert "f" in byname["variance_difference"].reason
    prod = byname["influence_product"]
    assert prod.applicable
    assert prod.bound == 4.0 * 1.0 * 1 * 8
    assert prod.passed
    assert report.passed


def test_lemma_suite_random_pairs():
    rng = np.random.default_rng(89)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        f = random_rational_poly(rng, n)
        g = random_rational_poly(rng, n)
        report = lemma_suite(WiretapSpec.from_polys(f, g))
        assert report.passed
    for _ in range(50):
        n = int(rng.integers(2, 5))
        f = wht(random_boolean_table(rng, n))
        g = wht(random_boolean_table(rng, n))
        report = lemma_suite(WiretapSpec.from_polys(f, g))
        byname = {c.name: c for c in report.checks}
        assert byname["influence_product"].applicable
        assert report.passed


# ---------------------------------------------------------------------------
# The conditions on the pair: ±1 flags and Var <= 1/4
# ---------------------------------------------------------------------------

#: Values of the functions the pair property draws: ±1, within 1/2 of 0
#: (so Var <= 1/4), and larger (Var mostly above 1/4).
_PAIR_VALUES = {
    "pm1": [-1, 1],
    "small": [Fraction(-1, 2), Fraction(-1, 3), 0, Fraction(1, 4), Fraction(1, 2)],
    "large": [-2, Fraction(-3, 2), -1, 1, Fraction(5, 2)],
}


@st.composite
def _exact_pair(draw):
    """Two exact polynomials at n <= 6, each ±1, small, large or a
    constant; the spec lifts the one of smaller n."""
    polys = []
    for _ in "fg":
        n = draw(st.integers(1, 6))
        kind = draw(st.sampled_from([*_PAIR_VALUES, "constant"]))
        if kind == "constant":
            values = [draw(st.sampled_from([-2, -1, 0, Fraction(1, 3), 1]))] * (1 << n)
        else:
            values = draw(st.lists(st.sampled_from(_PAIR_VALUES[kind]),
                                   min_size=1 << n, max_size=1 << n))
        polys.append(exact_poly(n, values))
    return tuple(polys)


def test_lemma_suite_refuses_a_bound_that_is_not_finite():
    # eps is 1e308, so 4 * eps overflows; the answer used to pass on it
    spec = WiretapSpec.from_polys(parse_poly("x1"), parse_poly("1e154*x1"))
    with pytest.raises(ValueError, match=r"^the bound of influence_difference "
                                         r"is not finite: inf$"):
        lemma_suite(spec)


@pytest.mark.parametrize("lhs, bound, side, value", [
    (math.inf, 1.0, "lhs", "inf"), (math.nan, 1.0, "lhs", "nan"),
    (0.5, math.inf, "bound", "inf"), (math.nan, math.nan, "lhs", "nan"),
])
def test_applicable_check_refuses_a_side_that_is_not_finite(lhs, bound, side, value):
    with pytest.raises(ValueError, match=rf"^the {side} of check is not finite: {value}$"):
        invariance._applicable("check", lhs, bound)


def _outcome(call):
    """What ``call()`` returns, or the type and message of its refusal."""
    try:
        return call()
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_exact_pair())
@example((parse_poly("2*x1"), parse_poly("1/4*x1 - 1/4*x2")))  # Var[f] > 1/4 only
@example((parse_poly("1/2*x2"), parse_poly("3/2*x1")))  # Var[g] > 1/4 only
@example((parse_poly("x1"), parse_poly("-x1*x2")))  # both, both ±1
@example((parse_poly("x1*x2"), parse_poly("1/2*x1")))  # only g is not ±1
@example((parse_poly("1/2*x1"), parse_poly("x2")))  # only f is not ±1
@example((parse_poly("1"), parse_poly("-1")))  # ±1 constants
@example((parse_poly("0"), parse_poly("1/3")))  # constants, neither ±1
def test_conditions_on_the_pair_match_the_parent_checks(pair):
    # each answer gets a fresh spec, whose flags are decided by its own
    # first read, as in a CLI answer
    def spec():
        return WiretapSpec.from_polys(*pair)

    assert lemma_suite(spec()).to_dict() == reference_lemma_suite(spec()).to_dict()
    lifted = spec()
    f, g = lifted.f_poly, lifted.g_poly
    assert (_outcome(lambda: additive_bound(f, g, 1))
            == _outcome(lambda: reference_additive_bound(f, g, 1)))
    for k in (None, 1):
        assert (_outcome(lambda: multiplicative_bound(spec(), 1, k))
                == _outcome(lambda: reference_multiplicative_bound(spec(), 1, k)))
    noise, reference = (_outcome(lambda: model(spec())) for model in
                        (multiplicative_noise, reference_multiplicative_noise))
    if isinstance(reference, tuple):
        assert noise == reference
    else:
        assert noise.kind == reference.kind == "multiplicative"
    assert spec().booleans == reference_booleans(spec())


def test_lemma_suite_reads_no_variance_of_g_once_f_exceeds_a_quarter():
    # Var[g] = 6 * (6e153)**2 is beyond float range: the parent computed
    # it anyway and raised OverflowError; the first lemma is decided by f
    f = parse_poly("2*x1").with_n(6)
    g = parse_poly(" + ".join(f"6e153*x{i}" for i in range(1, 7)))
    with pytest.raises(OverflowError):
        reference_lemma_suite(WiretapSpec.from_polys(f, g))
    with pytest.raises(PreconditionError, match=r"^Var\[f\] = 4\.0 exceeds 1/4$"):
        additive_bound(f, g, 1)
    checks = lemma_suite(WiretapSpec.from_polys(f, g)).to_dict()["checks"]
    assert [(c["applicable"], c["reason"]) for c in checks] == [
        (False, "Var[f] exceeds 1/4"), (True, None), (False, "f is not ±1-valued")]
    assert checks[1]["passed"] and math.isfinite(checks[1]["bound"])
