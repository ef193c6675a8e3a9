"""Smooth-test invariance bounds and their Monte Carlo verification.

For a multilinear polynomial F of degree k and a C^4 test function psi
with sup|psi''''| <= C, the gap |E[psi(F(x))] - E[psi(F(y))]| between
independent input ensembles satisfying the moment hypothesis (mean 0,
second moment 1, third moment 0, fourth moment <= 9) is bounded by

    basic:        (C/12) * 9**k * sum_t Inf_t[F]**2
    low-influence: (C/12) * k * 9**k * eps      (Var[F] <= 1, Inf_t <= eps)

and for a pair (f, g) the noise decompositions obey

    additive  (N = f - g):  (C/3) * k * 9**k * eps,        k = k1*k2
    multiplicative (N = fg): (C/3) * k * l * 9**k * eps,   l = l1*l2

with k1, k2 the degrees, l1, l2 the term counts and eps a common bound
on every coordinate influence of f and g.  The left side is computed
exactly on ±1 inputs by enumeration; the Gaussian side is estimated by
seeded Monte Carlo, and a report compares the measured gap against the
bound with a confidence allowance of z standard errors.

The bound formulas keep exact rational arithmetic until the final
float conversion, so dyadic results are bit-exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .boolfn import (
    _BLOCK,
    MultilinearPolynomial,
    PreconditionError,
    _pool,
    _value_strips,
    degree,
    evaluate_batch,
    influence_profile,
    max_influence,
    mul,
    sub,
    term_count,
    variance,
)
from .channels import Report, WiretapSpec

#: Slack used when checking the lemma inequalities numerically.
LEMMA_SLACK = 1e-10

#: Slack of every precondition check; a float side adds it as 1e-12.
_PRECONDITION_TOL = Fraction(1, 10 ** 12)


def _frac(x) -> Fraction:
    """Exact rational view of a coefficient-derived quantity."""
    return x if isinstance(x, Fraction) else Fraction(float(x))


def _check_finite(name: str, value):
    """Refuse a NaN, an infinite or a negative C or z."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# Test functions and input distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A C^4 test function with a known bound on sup|psi''''|."""

    name: str
    fn: Callable
    c4: float | None  # None for a bare callable: no known bound

    def __post_init__(self):
        if self.c4 is not None:
            _check_finite("C", self.c4)


def _quartic(t) -> np.ndarray:
    """t**4 as two squarings, in place on the first: numpy's general
    ``pow`` costs about ten times as much."""
    s = np.square(np.asarray(t, dtype=np.float64))
    return np.square(s, out=s)


PSI_CATALOG = {
    "identity": TestFunction("identity", lambda t: np.asarray(t, dtype=np.float64), 0.0),
    "square": TestFunction("square", np.square, 0.0),
    "cos": TestFunction("cos", np.cos, 1.0),
    "sin": TestFunction("sin", np.sin, 1.0),
    "quartic": TestFunction("quartic", _quartic, 24.0),
}


def _resolve_psi(psi) -> TestFunction:
    """Accept a TestFunction, a catalog name, or a bare callable."""
    if isinstance(psi, TestFunction):
        return psi
    if isinstance(psi, str):
        if psi not in PSI_CATALOG:
            raise ValueError(
                f"unknown test function {psi!r}; "
                f"choices: {sorted(PSI_CATALOG)}")
        return PSI_CATALOG[psi]
    return TestFunction(getattr(psi, "__name__", "psi"), psi, None)


@dataclass(frozen=True)
class InputDistribution:
    """A coordinate distribution with a seeded sampler.

    ``exact_moments`` holds (E[x], E[x^2], E[x^3], E[x^4]) when known in
    closed form.
    """

    name: str
    sampler: Callable  # (numpy Generator, size) -> ndarray
    exact_moments: tuple | None = None


DISTRIBUTIONS = {
    "rademacher": InputDistribution(
        "rademacher",
        lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0,
        (0.0, 1.0, 0.0, 1.0)),
    "gaussian": InputDistribution(
        "gaussian",
        lambda rng, size: rng.standard_normal(size),
        (0.0, 1.0, 0.0, 3.0)),
    # Uniform on {-2, +2}: mean and third moment vanish but the second
    # moment is 4, deliberately violating the moment hypothesis.
    "uniform_pm2": InputDistribution(
        "uniform_pm2",
        lambda rng, size: (rng.integers(0, 2, size) * 2.0 - 1.0) * 2.0,
        (0.0, 4.0, 0.0, 16.0)),
}


@dataclass(frozen=True)
class MomentReport(Report):
    """First four moments of a coordinate distribution with pass flags.

    ``moments`` are the declared exact moments when the distribution has
    them (stderrs are then zero); otherwise the empirical estimates.
    The sampled estimates are always included for cross-checking.
    """

    distribution: str
    samples: int
    seed: int
    moments: tuple
    stderrs: tuple
    empirical_moments: tuple
    empirical_stderrs: tuple
    flags: tuple
    passed: bool
    exact: bool


def _moment_flags(moments, stderrs) -> tuple:
    m1, m2, m3, m4 = moments
    s1, s2, s3, s4 = stderrs
    return (
        abs(m1 - 0.0) <= 5 * s1,
        abs(m2 - 1.0) <= 5 * s2,
        abs(m3 - 0.0) <= 5 * s3,
        m4 <= 9.0 + 5 * s4,
    )


#: Largest magnitude of an integer sample whose powers are taken as
#: running products: up to the fourth they are below 2**53, exact floats.
_EXACT_POWER_MAX = 1 << 13


def _small_integers(a: np.ndarray) -> bool:
    """True iff every value is an integer of magnitude at most
    :data:`_EXACT_POWER_MAX`."""
    return bool(np.all(np.abs(a) <= _EXACT_POWER_MAX)
                and np.array_equal(np.rint(a), a))


def hypothesis_check(dist: InputDistribution, samples: int = 100_000,
                     seed: int = 0) -> MomentReport:
    """Check the moment hypothesis: E[x]=0, E[x^2]=1, E[x^3]=0, E[x^4]<=9.

    Each moment is tested with tolerance 5 standard errors; declared
    exact moments are tested exactly (zero stderr).  A sample holding an
    infinite value has no finite moments and is refused with ``ValueError``.

    The draw is made here; the four powers are independent tasks for
    the workers of :func:`boolfn._pool`, the costly k = 4 and 3 first.
    Each task runs the same numpy calls on the same array, so the report
    does not depend on the number of workers.

    When every sample is an integer of magnitude at most 2**13, each
    power is a running product: its values are exact, so they are the
    bits ``x ** k`` gives too, and numpy's ``pow``, slow on a negative
    base, is not called.  Other samples, such as Gaussian ones, keep
    ``x ** k``; they pay only the test of the first sample.
    """
    if samples < 10_000:
        raise PreconditionError(f"need at least 10^4 samples, got {samples}")
    rng = np.random.default_rng(seed)
    x = np.asarray(dist.sampler(rng, samples), dtype=np.float64)
    if np.isinf(x).any():
        raise ValueError(f"the {dist.name} sample holds an infinite value: "
                         f"{float(x[np.isinf(x)][0])!r}")
    products = _small_integers(x[:1]) and _small_integers(x)

    def power_moment(k):
        if products:
            p = x if k == 1 else x * x
            for _ in range(k - 2):
                np.multiply(p, x, out=p)
        else:
            p = x ** k
        return float(np.mean(p)), float(np.std(p, ddof=1) / math.sqrt(samples))

    _, pool = _pool(4)
    with pool as executor:
        tasks = {k: executor.submit(power_moment, k) for k in (4, 3, 2, 1)}
        stats = [tasks[k].result() for k in range(1, 5)]
    emp_moments, emp_stderrs = zip(*stats)
    if dist.exact_moments is not None:
        moments = tuple(float(m) for m in dist.exact_moments)
        stderrs = (0.0, 0.0, 0.0, 0.0)
        exact = True
    else:
        moments, stderrs = emp_moments, emp_stderrs
        exact = False
    flags = _moment_flags(moments, stderrs)
    return MomentReport(
        distribution=dist.name,
        samples=samples,
        seed=seed,
        moments=moments,
        stderrs=stderrs,
        empirical_moments=emp_moments,
        empirical_stderrs=emp_stderrs,
        flags=flags,
        passed=all(flags),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def basic_bound(poly: MultilinearPolynomial, c4) -> float:
    """(C/12) * 9**k * sum_t Inf_t[F]**2 with k = degree(F)."""
    _check_finite("C", c4)
    k = degree(poly)
    influences = influence_profile(poly).influences
    infl_sq = sum((_frac(inf) ** 2 for inf in influences), start=Fraction(0))
    return float(_frac(c4) * Fraction(9 ** k, 12) * infl_sq)


def corollary_bound(poly: MultilinearPolynomial, c4, eps) -> float:
    """(C/12) * k * 9**k * eps, requiring Var[F] <= 1 and all Inf_t <= eps."""
    _check_finite("C", c4)
    profile = influence_profile(poly)
    if float(profile.variance) > 1.0 + _PRECONDITION_TOL:
        raise PreconditionError(f"Var[F] = {float(profile.variance)} exceeds 1")
    eps_f = _frac(eps)
    for t, inf in enumerate(profile.influences, start=1):
        inf_t = _frac(inf)
        if inf_t > eps_f + _PRECONDITION_TOL:
            raise PreconditionError(
                f"Inf_{t}[F] = {float(inf_t)} exceeds eps = {float(eps_f)}")
    k = degree(poly)
    return float(_frac(c4) * Fraction(k * 9 ** k, 12) * eps_f)


def pair_epsilon(f: MultilinearPolynomial, g: MultilinearPolynomial) -> Fraction:
    """eps of the pair bounds: the largest coordinate influence of f and g."""
    return max(_frac(max_influence(f)), _frac(max_influence(g)))


def pair_degree(f: MultilinearPolynomial, g: MultilinearPolynomial) -> int:
    """k = k1*k2, the exponent of the pair bounds, for f and g's degrees.

    A constant is a polynomial of degree at most 1; taking k_i >= 1
    keeps the exponent from collapsing to zero.
    """
    return max(degree(f), 1) * max(degree(g), 1)


def _var_over_quarter(f: MultilinearPolynomial, g: MultilinearPolynomial):
    """``(name, Var)`` of the first of f and g whose variance exceeds 1/4,
    else None; g's variance is not computed when f's exceeds."""
    for name, poly in (("f", f), ("g", g)):
        var = float(variance(poly))
        if var > 0.25 + _PRECONDITION_TOL:
            return name, var


def additive_bound(f: MultilinearPolynomial, g: MultilinearPolynomial,
                   c4) -> float:
    """(C/3) * k * 9**k * eps for the noise N = f - g, with k = k1*k2.

    Requires Var[f] <= 1/4 and Var[g] <= 1/4; eps is the largest
    coordinate influence over both functions, and k1, k2 are the degrees
    (taken as at least 1).
    """
    _check_finite("C", c4)
    if over := _var_over_quarter(f, g):
        raise PreconditionError("Var[{}] = {} exceeds 1/4".format(*over))
    k = pair_degree(f, g)
    eps = pair_epsilon(f, g)
    return float(_frac(c4) * Fraction(k * 9 ** k, 3) * eps)


def multiplicative_bound(spec: WiretapSpec, c4, k: int | None = None) -> float:
    """(C/3) * k * l * 9**k * eps for the noise N = f*g of ``spec``'s pair.

    Requires ±1-valued f and g, read from the spec's flags.  By default
    k = deg(f)*deg(g), degrees taken as at least 1; a caller may pass
    the exponent instead, such as k = deg(f*g), which is never larger
    and often far smaller.  The result is a bound only for
    k >= max(deg(f*g), 1); k < 1 raises ValueError.  l = terms(f)*terms(g).
    """
    _check_finite("C", c4)
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    if name := spec.not_pm1:
        raise PreconditionError(f"{name} is not ±1-valued")
    f, g = spec.f_poly, spec.g_poly
    if k is None:
        k = pair_degree(f, g)
    l = term_count(f) * term_count(g)
    eps = pair_epsilon(f, g)
    return float(_frac(c4) * Fraction(k * l * 9 ** k, 3) * eps)


# ---------------------------------------------------------------------------
# Expectations: exact ±1 side and Gaussian Monte Carlo side
# ---------------------------------------------------------------------------

#: numpy 2 sums a contiguous float64 run of 2**k >= 128 values as
#: ``0.0 +`` a balanced tree over leaves of this many values.
_LEAF = 128


def _leaf_sums(values: np.ndarray) -> np.ndarray:
    """numpy's own sum of each leaf of each row of ``values``; a row
    shorter than a leaf is one leaf.  The ``0.0 +`` it adds can flip
    only the sign of a zero leaf, which the ``0.0 +`` of
    :func:`_row_sums` erases."""
    leaf = min(values.shape[1], _LEAF)
    return np.add.reduce(values.reshape(-1, leaf), axis=1).reshape(len(values), -1)


def _row_sums(leaves: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each row, from the row's leaf sums."""
    while leaves.shape[1] > 1:
        leaves = leaves[:, 0::2] + leaves[:, 1::2]
    return 0.0 + leaves[:, 0]


def expect_exact(poly: MultilinearPolynomial, psi) -> float:
    """E[psi(F(x))] for uniform ±1 x, by dense enumeration.

    The result equals ``np.mean(psi(table))`` bit for bit.  psi runs on
    each column strip of the values as it comes out final (see
    :func:`boolfn._value_strips`): up to 2**16 points that is the whole
    table, on the calling thread.  Above, it is a strip of the
    butterfly, on its worker threads, possibly at once, so psi must act
    elementwise on a contiguous array, as every catalog psi does, and no
    table of 2**n values is held.  A strip is at least 256 columns wide
    at ``MAX_N``, so it holds whole leaves of each 2**16-point row; only
    the leaf sums are kept (1 MiB at n=24), folded per row as numpy
    folds them, and the row sums are added by recursive halving, numpy's
    order for these power-of-two sizes.
    """
    fn = _resolve_psi(psi).fn
    size = 1 << poly.n
    row = min(size, _BLOCK)
    rows, leaf = size // row, min(row, _LEAF)
    leaves = np.empty((rows, row // leaf))

    def fold(c, strip):
        width = strip.size // rows
        # numpy's error state is per thread, and fold runs on the workers
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(fn(strip), dtype=np.float64).reshape(rows, width)
            leaves[:, c // leaf:(c + width) // leaf] = _leaf_sums(values)

    _value_strips(poly, fold)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _row_sums(leaves)
        while sums.size > 1:
            sums = sums[0::2] + sums[1::2]
    return float(sums[0] / size)


# Counter-based sample generation: the Gaussian for (sample i, coordinate
# j) is a pure function of (seed, i, j) -- a splitmix64-style mix of the
# three words produces a 53-bit uniform that is mapped through the normal
# quantile.  Samples can therefore be produced in any chunking (or by any
# number of workers) with bit-identical results.

_CHUNK = 1 << 16
#: Points (rows times n) per block of generation: a block's mixing state
#: (two uint64 buffers of 512 KiB) stays in cache while it runs through
#: every step, and at small n each ufunc call still has work enough to
#: run alongside another worker's.
_GEN_POINTS = 1 << 16
_K_INDEX = 0x9E3779B97F4A7C15
_K_COORD = 0xC2B2AE3D27D4EB4F
_K_SEED = 0xD6E8FEB86659FD93
_MASK64 = (1 << 64) - 1
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def _mix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finaliser, in place on ``z``; ``scratch`` has its shape."""
    for shift, factor in _MIX:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= factor
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


#: The largest double below 1.0, where the top counter's midpoint goes.
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _counter_gaussians(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normal quantiles of 53-bit counters ``z``, written into ``out``.

    A counter ``k`` maps to the midpoint ``(k + 0.5) * 2**-53`` of its
    interval.  For ``k = 2**53 - 1`` that midpoint rounds to 1.0, whose
    quantile is infinite, so it is clamped to the largest double below 1.
    Every other midpoint is below that double and does not move.  A
    counter is below 2**53, so its int64 view converts to float exactly,
    and far faster than from uint64.
    """
    np.add(z.view(np.int64), 0.5, out=out)
    out *= 2.0 ** -53
    np.minimum(out, _BELOW_ONE, out=out)
    return ndtri(out, out=out)


def _gaussian_chunk(seed: int, n: int, start: int, length: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Standard-Gaussian block for sample indices [start, start+length).

    Returns a (length, n) view of a coordinate-major array, so each
    coordinate is one contiguous row for :func:`evaluate_batch`; that
    array is ``out``, of shape (n, length), when given.  Rows
    are generated about :data:`_GEN_POINTS` points at a time, in place
    on one uint64 block and one scratch buffer, and the normal quantile is written
    straight into the result.  The integer steps are exact and the
    float steps act element by element, so the values do not depend on
    the blocking.
    """
    gauss = np.empty((n, length), dtype=np.float64) if out is None else out
    coord = (np.arange(n, dtype=np.uint64)[:, None] * np.uint64(_K_COORD)
             + np.uint64((seed * _K_SEED) & _MASK64))
    rows = max(1, min(_GEN_POINTS // n, length))
    z = np.empty((n, rows), dtype=np.uint64)
    scratch = np.empty_like(z)
    for r0 in range(0, length, rows):
        r1 = min(r0 + rows, length)
        zb, sb = z[:, :r1 - r0], scratch[:, :r1 - r0]
        idx = np.arange(start + r0, start + r1, dtype=np.uint64)
        np.add(idx * np.uint64(_K_INDEX), coord, out=zb)
        _mix64(zb, sb)
        zb += np.uint64(_K_INDEX)
        _mix64(zb, sb)
        zb >>= np.uint64(11)
        _counter_gaussians(zb, gauss[:, r0:r1])
    return gauss.T


class _Moments:
    """Running sum of a sample stream, fed one chunk at a time.

    The variance comes from each chunk's sum of squared deviations from
    its own mean, merged across chunks with the Chan-Golub-LeVeque
    update, so it stays accurate when the mean is large against the
    spread.
    """

    __slots__ = ("total", "count", "mean", "sq_dev")

    def __init__(self):
        self.total, self.count, self.mean, self.sq_dev = 0.0, 0, 0.0, 0.0

    def add(self, vals: np.ndarray, length: int) -> None:
        chunk_sum = float(np.sum(vals))
        self.total += chunk_sum
        chunk_mean = chunk_sum / length
        delta = chunk_mean - self.mean
        merged = self.count + length
        self.sq_dev += (float(np.sum(np.square(vals - chunk_mean)))
                        + delta * delta * self.count * length / merged)
        self.mean += delta * length / merged
        self.count = merged

    def estimate(self) -> tuple:
        samples = self.count
        return self.total / samples, math.sqrt(self.sq_dev / (samples - 1) / samples)


def _gaussian_mc(polys: list, psi, samples: int, seed: int) -> list:
    """(estimate, stderr) of E[psi(F(g))] for each polynomial, one stream.

    Every chunk of Gaussians is generated once and evaluated against
    each polynomial in turn; each polynomial keeps its own reduction
    state, so its result is the same as on its own.

    The workers of :func:`boolfn._pool` generate the chunks ahead into
    a ring of ``min(workers + 1, chunks)`` buffers owned here, at most
    ``workers`` chunks ahead of the one being reduced; one worker is the
    calling thread, one chunk ahead.  Everything else --
    ``evaluate_batch``, psi and the reduction -- stays on the calling
    thread in chunk order, so the result does not depend on the number
    of workers.
    """
    if samples < 1000:
        raise PreconditionError(f"need at least 10^3 samples, got {samples}")
    if not 0 <= seed < (1 << 64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    fn = _resolve_psi(psi).fn
    sizes = {poly.n for poly in polys}
    if len(sizes) != 1:
        raise ValueError(
            f"need one or more polynomials sharing one n, got n in {sorted(sizes)}")
    n = sizes.pop()
    moments = [_Moments() for _ in polys]
    starts = range(0, samples, _CHUNK)
    workers, pool = _pool(len(starts))
    ring = np.empty((min(workers + 1, len(starts)), n, min(_CHUNK, samples)))

    def generate(k):
        length = min(_CHUNK, samples - starts[k])
        return _gaussian_chunk(seed, n, starts[k], length,
                               out=ring[k % len(ring), :, :length])

    with pool as executor, np.errstate(over="ignore", invalid="ignore"):
        ahead = deque(executor.submit(generate, k) for k in range(workers))
        for k in range(len(starts)):
            block = ahead.popleft().result()
            if k + workers < len(starts):
                ahead.append(executor.submit(generate, k + workers))
            for poly, state in zip(polys, moments):
                vals = np.asarray(fn(evaluate_batch(poly, block)), dtype=np.float64)
                state.add(vals, len(block))
    return [state.estimate() for state in moments]


def expect_gaussian_mc(poly: MultilinearPolynomial, psi, samples: int,
                       seed: int = 0) -> tuple:
    """Monte Carlo estimate of E[psi(F(g))] with g i.i.d. standard normal.

    Returns (estimate, standard error).  Identical (seed, samples) give
    bit-identical results: samples are generated by the per-index counter
    scheme above and reduced chunkwise in a fixed order.  The standard
    error stays accurate when the mean is large against the spread.
    """
    return _gaussian_mc([poly], psi, samples, seed)[0]


@dataclass(frozen=True)
class InvarianceReport(Report):
    """Exact ±1 expectation vs Gaussian estimate vs theoretical bound."""

    psi: str
    lhs_exact: float
    rhs_gaussian: float
    stderr: float
    samples: int
    seed: int
    delta: float
    bound: float
    z: float
    passed: bool


def _report(name: str, lhs: float, estimate: tuple, bound: float,
            samples: int, seed: int, z: float, n: int) -> InvarianceReport:
    """The report of one comparison; a side that is not finite, such as
    psi of values beyond float range, is refused with ``ValueError``, so
    that no verdict rests on it.  ``passed`` allows for the rounding of
    the two means, as of a constant F: an ulp of the larger per level of
    their sums, n plus the bit length of ``samples``."""
    rhs, stderr = estimate
    for side, value in (("exact side E[psi(F(x))]", lhs),
                        ("Gaussian estimate of E[psi(F(g))]", rhs),
                        ("standard error of the Gaussian estimate", stderr)):
        if not math.isfinite(value):
            raise ValueError(f"the {side} is not finite: {value!r}")
    delta = abs(lhs - rhs)
    rounding = (n + samples.bit_length()) * math.ulp(max(abs(lhs), abs(rhs)))
    return InvarianceReport(
        psi=name,
        lhs_exact=lhs,
        rhs_gaussian=rhs,
        stderr=stderr,
        samples=samples,
        seed=seed,
        delta=delta,
        bound=float(bound),
        z=z,
        passed=delta <= float(bound) + z * stderr + rounding,
    )


def verify_invariance(poly: MultilinearPolynomial, psi, bound: float,
                      samples: int = 1_000_000, seed: int = 0,
                      z: float = 4.0) -> InvarianceReport:
    """Compare |exact - Monte Carlo| against bound + z * stderr.

    z must be finite and >= 0: it is checked before anything is built."""
    _check_finite("z", z)
    name = _resolve_psi(psi).name
    lhs = expect_exact(poly, psi)
    return _report(name, lhs, expect_gaussian_mc(poly, psi, samples, seed),
                   bound, samples, seed, z, poly.n)


def verify_invariance_many(polys, psi, bounds, samples: int = 1_000_000,
                           seed: int = 0, z: float = 4.0) -> list:
    """:func:`verify_invariance` for polynomials that share one n.

    Each chunk of Gaussians is generated once for all of them; every
    report equals the one :func:`verify_invariance` gives on its own.
    """
    _check_finite("z", z)
    polys, bounds = list(polys), list(bounds)
    if len(bounds) != len(polys):
        raise ValueError(
            f"got {len(bounds)} bounds for {len(polys)} polynomials")
    name = _resolve_psi(psi).name
    lhs = [expect_exact(poly, psi) for poly in polys]
    estimates = _gaussian_mc(polys, psi, samples, seed)
    return [_report(name, exact, estimate, bound, samples, seed, z, polys[0].n)
            for exact, estimate, bound in zip(lhs, estimates, bounds)]


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck(Report):
    name: str
    applicable: bool
    reason: str | None
    lhs: float | None
    bound: float | None
    passed: bool | None


@dataclass(frozen=True)
class LemmaSuiteReport(Report):
    checks: tuple
    passed: bool = field(init=False)  # every applicable check passed

    def __post_init__(self):
        object.__setattr__(
            self, "passed", all(c.passed for c in self.checks if c.applicable))


def _applicable(name: str, lhs: float, bound: float) -> LemmaCheck:
    """An applicable check; a side that is not finite, such as a bound
    4 * eps beyond float range, is refused with ``ValueError``, as
    ``_report`` refuses one, so that no verdict rests on it."""
    for side, value in (("lhs", lhs), ("bound", bound)):
        if not math.isfinite(value):
            raise ValueError(f"the {side} of {name} is not finite: {value!r}")
    return LemmaCheck(name, True, None, lhs, bound, lhs <= bound + LEMMA_SLACK)


def _not_applicable(name: str, reason: str) -> LemmaCheck:
    return LemmaCheck(name, False, reason, None, None, None)


def lemma_suite(spec: WiretapSpec) -> LemmaSuiteReport:
    """Numerically check the three pairwise inequalities of ``spec``'s pair.

    1. Var[f - g] <= 1 when Var[f], Var[g] <= 1/4.
    2. Inf_t[f - g] <= 4*eps for every t.
    3. Inf_t[f * g] <= 4*eps*l1*l2 for ±1-valued f, g.

    eps is the largest coordinate influence over both functions.
    Precondition failures mark a lemma as not applicable rather than
    raising; the ±1 precondition is read from the spec's flags.  An
    applicable check whose lhs or bound is not finite raises ValueError.
    """
    f, g = spec.f_poly, spec.g_poly
    not_pm1 = spec.not_pm1  # first: a value beyond float range fails here
    eps = float(pair_epsilon(f, g))
    diff = sub(f, g)
    over = _var_over_quarter(f, g)
    # rounding is monotone, so the float of the exact maximum is the
    # maximum of the floats
    return LemmaSuiteReport((
        _not_applicable("variance_difference", f"Var[{over[0]}] exceeds 1/4")
        if over else _applicable("variance_difference", float(variance(diff)), 1.0),
        _applicable("influence_difference", float(max_influence(diff)), 4.0 * eps),
        _not_applicable("influence_product", f"{not_pm1} is not ±1-valued")
        if not_pm1 else _applicable("influence_product", float(max_influence(mul(f, g))),
                                    4.0 * eps * term_count(f) * term_count(g))))
