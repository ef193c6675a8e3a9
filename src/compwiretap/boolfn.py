"""Core representations of real-valued Boolean functions on {-1,+1}^n.

Two dual views of a function are provided:

* :class:`TruthTable` -- dense evaluation on all 2**n points.
* :class:`MultilinearPolynomial` -- sparse Fourier expansion: variable
  subsets (bit masks) with real coefficients, held as two parallel
  read-only arrays in insertion order, so that influences, variance,
  degree and subtraction are whole-array numpy passes.

Index/point convention, used everywhere in this package: the table index
``i`` encodes the point ``x`` with ``x_j = +1`` if bit ``(j-1)`` of ``i``
is 0, and ``x_j = -1`` if that bit is 1.  With this convention the
character ``x^S`` evaluated at index ``i`` equals ``(-1)**popcount(i & S)``
where mask ``S`` has bit ``(j-1)`` set for each variable ``j`` in the
subset.

Coefficients coming out of the fast transform are floats; coefficients
built from exact rationals (see :mod:`compwiretap.funcdsl`) are stored as
:class:`fractions.Fraction` in an object array and survive arithmetic
exactly.  Both kinds mix freely.  Sums over terms are left folds in term
order, so float sums have the bits of a plain loop over the terms.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from contextlib import nullcontext
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real
from types import MappingProxyType

import numpy as np

#: Largest supported number of variables for dense tables (128 MiB of
#: 8-byte reals).  Larger n is rejected with a clear error.
MAX_N = 24

#: Coefficients with absolute value at or below this are dropped after a
#: floating-point transform (denormal dust).
PRUNE_TOL = 1e-12

#: Tolerance for deciding that a table value is +1 or -1.
BOOLEAN_TOL = 1e-9


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(
            f"n = {n} exceeds the dense enumeration cap of {MAX_N}")
    return int(n)


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("table values must be finite")


@dataclass(frozen=True)
class TruthTable:
    """Dense evaluation of a function on all 2**n points of {-1,+1}^n."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_n(self.n)
        # A private copy: the caller keeps ownership of its array.
        self._own(np.array(self.values, dtype=np.float64))

    def _own(self, values: np.ndarray) -> None:
        """Validate a float64 array and keep it, read-only, as the values."""
        if values.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} values for n={self.n}, "
                f"got shape {values.shape}")
        _require_finite(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, n: int, values: np.ndarray) -> "TruthTable":
        """Table over a fresh float64 array that no one else holds (no copy)."""
        table = object.__new__(cls)
        object.__setattr__(table, "n", n)
        table._own(values)
        return table

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.values, other.values)


def index_to_point(index: int, n: int) -> tuple:
    """Decode a table index into its ±1 point (variable 1 first)."""
    return tuple(1 - 2 * ((index >> j) & 1) for j in range(n))


def point_to_index(point) -> int:
    """Encode a ±1 point as a table index (inverse of index_to_point)."""
    index = 0
    for j, x in enumerate(point):
        if x == -1:
            index |= 1 << j
        elif x != 1:
            raise ValueError(f"point entries must be ±1, got {x!r}")
    return index


_REALS = (float, Fraction, int)


def _terms(n: int, masks, values) -> tuple:
    """Validated, read-only ``(masks, values)`` without zero terms.

    Every construction of a polynomial goes through here, and the arrays
    returned are its own.  A float64 array of values is checked with
    whole-array passes; any other values, such as exact ones, are checked
    one by one and kept as given in an object array unless all are floats.
    """
    try:
        masks = np.array(masks, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a mask does not fit in n={n} bits") from None
    if masks.size and np.bitwise_or.reduce(masks) >> n:  # also if negative
        bad = masks[np.flatnonzero(masks >> n)[0]]
        raise ValueError(f"mask {bad} does not fit in n={n} bits")
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        values = values.copy()
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        kinds = set(map(type, values))
        for kind in kinds:
            # exact types first: the ABC check of Real is slow
            if kind not in _REALS and not issubclass(kind, Real):
                bad = next(v for v in values if type(v) is kind)
                raise ValueError(f"coefficient {bad!r} is not a real number")
        if all(issubclass(kind, float) for kind in kinds):
            values = np.array(values, dtype=np.float64)
        else:
            inexact = {kind for kind in kinds if not issubclass(kind, Rational)}
            for mask, value in zip(masks.tolist(), values) if inexact else ():
                if type(value) in inexact and not math.isfinite(value):
                    raise ValueError(
                        f"coefficient for mask {mask} is not finite")
            if 0 in values:
                keep = [value != 0 for value in values]
                masks = masks[keep]
                values = [value for value, kept in zip(values, keep) if kept]
            values = np.array(values, dtype=object)
    if values.dtype == np.float64:
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(
                f"coefficient for mask {masks[np.argmin(finite)]} is not finite")
        keep = values != 0
        if not keep.all():
            masks, values = masks[keep], values[keep]
    masks.flags.writeable = False
    values.flags.writeable = False
    return masks, values


class MultilinearPolynomial:
    """Sparse Fourier expansion: subset masks with real coefficients.

    The terms are two parallel read-only arrays in insertion order:
    ``masks`` (int64, each fitting in ``n`` bits) and ``values`` (float64
    when every coefficient is a float, otherwise an object array of the
    coefficients as given, such as exact Fractions).  Zero coefficients
    are never stored.  The order is the order in which
    :func:`evaluate_batch` adds the terms.  ``coeffs`` is a read-only
    mask -> coefficient mapping of the terms, built on first read.
    """

    __slots__ = ("n", "masks", "values", "_coeffs")

    def __init__(self, n: int, coeffs):
        """``coeffs`` maps masks to coefficients, or is a ``(masks,
        values)`` pair of parallel arrays."""
        n = _check_n(n)
        if isinstance(coeffs, Mapping):
            masks = list(map(int, coeffs))
            # a key such as 1.5 would truncate onto another term's mask
            for key, mask in zip(coeffs, masks):
                if key != mask:
                    raise ValueError(f"mask {key!r} is not an integer")
            coeffs = masks, coeffs.values()
        masks, values = _terms(n, *coeffs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearPolynomial is immutable")

    @property
    def coeffs(self) -> Mapping:
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", dict(zip(self.masks.tolist(),
                                                         self.values.tolist())))
        return MappingProxyType(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MultilinearPolynomial(n={self.n}, terms={self.masks.size})"

    def with_n(self, n: int) -> "MultilinearPolynomial":
        """The same polynomial viewed over n >= current variables."""
        if n < self.n and np.bitwise_or.reduce(self.masks) >> n:
            raise ValueError(
                f"cannot shrink to n={n}: a term uses a higher variable")
        return MultilinearPolynomial(n, (self.masks, self.values))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

#: Most worker threads one dense or Monte Carlo loop starts.
_MAX_WORKERS = 4


class _Inline:
    """The executor of one worker: each task runs when it is handed over,
    on the calling thread."""

    map = staticmethod(map)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _pool(tasks: int) -> tuple:
    """``(workers, pool)`` for ``tasks`` independent tasks.

    ``workers`` is the least of the cores this process may run on, of
    :data:`_MAX_WORKERS` and of ``tasks``.  ``pool`` is a context manager
    that yields an executor with ``map`` and ``submit``: a fresh thread
    pool of that many workers, or, for one worker, an inline executor
    that runs each task when it is handed over.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cores = os.cpu_count() or 1
    workers = max(1, min(cores, _MAX_WORKERS, tasks))
    if workers == 1:
        return 1, nullcontext(_Inline())
    return workers, concurrent.futures.ThreadPoolExecutor(workers)


#: Points per cache block of the butterfly: 2**16 doubles (512 KiB) plus
#: half that in scratch stay resident in a 4 MiB L2 cache.
_BLOCK = 1 << 16


def _levels(a: np.ndarray, scratch: np.ndarray, h: int) -> None:
    """Butterfly levels h, 2h, ... below a.size, in place on flat ``a``.

    Overflow is silent here: an inf or NaN it leaves fails the callers'
    finiteness checks.  numpy's error state is per thread, so it is set
    here, on whichever thread runs the levels."""
    half = a.size // 2
    with np.errstate(over="ignore", invalid="ignore"):
        while h < a.size:
            b = a.reshape(-1, 2, h)
            x = scratch[:half].reshape(-1, h)
            np.copyto(x, b[:, 0, :])
            b[:, 0, :] += b[:, 1, :]
            np.subtract(x, b[:, 1, :], out=b[:, 1, :])
            h <<= 1


def _butterfly(grid: np.ndarray, used=None, emit=None, rows=None) -> np.ndarray:
    """Walsh-Hadamard butterfly, O(n * 2**n), in place on a grid of rows.

    Computes ``out[S] = sum_i (-1)**popcount(i & S) * a[i]`` for the
    table ``a`` held row by row in the ``(rows, block)`` grid.  The
    levels with ``h`` below ``block`` run one row (a cache block) at a
    time, in place; the remaining levels run on column strips of the
    grid, copied into scratch.  Every element sees the same ``x + y``
    and ``x - y`` in the same level order as a plain level loop, so the
    result is bit-identical to it.  One row is one strip, with no levels.

    ``used``, if given, lists in ascending order the rows that may hold
    a nonzero value; the block levels run on those only.  Every other
    row is taken as all ``+0.0`` and never read: the levels would leave
    it so, since ``+0.0 + +0.0`` and ``+0.0 - +0.0`` are both ``+0.0``,
    so its strips start from ``+0.0``.  ``grid`` holds every row; or,
    when ``rows`` is given, the listed rows alone.

    Each strip comes out of its levels final for every row and goes to
    ``emit(c, strip)``: ``strip`` is flat scratch holding the
    ``(rows, width)`` strip that starts at column ``c``, which ``emit``
    must not keep.  By default it is written back into ``grid``.

    The rows and then the strips are dealt out to the workers of
    :func:`_pool`, each with its own scratch, and ``emit`` runs on them;
    numpy releases the interpreter lock inside each level.  Rows and
    strips are disjoint, so the result does not depend on the number of
    workers.  One row starts no thread.
    """
    rows = rows or len(grid)
    used = range(rows) if used is None else used
    stored = used if len(grid) == rows else range(len(used))
    block = grid.shape[1]
    width = block // rows  # rows is at most block, since size <= 2**MAX_N
    workers, pool = _pool(rows)
    scratch = np.empty((workers, block + block // 2), dtype=grid.dtype)

    def write_back(c, strip):
        grid[:, c:c + width] = strip.reshape(rows, width)

    emit = write_back if emit is None else emit

    def blocks(w):
        for k in range(w, len(used), workers):
            _levels(grid[stored[k]], scratch[w, block:], 1)

    def strips(w):
        strip, spare = scratch[w, :block], scratch[w, block:]
        cols = strip.reshape(rows, width)
        for c in range(w * width, block, workers * width):
            if len(used) == rows:
                np.copyto(cols, grid[:, c:c + width])
            else:
                cols.fill(0.0)
                cols[used] = grid[stored, c:c + width]
            _levels(strip, spare, width)
            emit(c, strip)

    with pool as executor:
        for phase in (blocks, strips):
            list(executor.map(phase, range(workers)))
    return grid


def _spectrum(a: np.ndarray, n: int) -> MultilinearPolynomial:
    """Coefficients of the table held in ``a`` (overwritten), pruned."""
    _butterfly(a.reshape(-1, min(a.size, _BLOCK)))
    a /= 1 << n
    # ~(|c| <= tol) keeps NaN, so an overflowed transform fails loudly.
    keep = np.flatnonzero(~(np.abs(a) <= PRUNE_TOL))
    return MultilinearPolynomial(n, (keep, a[keep]))


def _values(poly: MultilinearPolynomial) -> np.ndarray:
    """Fresh float array of the polynomial on all 2**n points.

    The coefficients are placed in the cache blocks that hold a mask,
    zeroed first, and the butterfly runs its block levels on those
    alone; the bytes are those of a transform of a zeroed table.
    """
    size = 1 << poly.n
    a = np.empty(size, dtype=np.float64)
    grid = a.reshape(-1, min(size, _BLOCK))
    used = np.flatnonzero(np.bincount(poly.masks // grid.shape[1], minlength=len(grid)))
    grid[used] = 0.0
    a[poly.masks] = poly.values  # float(v) for each exact coefficient
    _butterfly(grid, used)
    return a


def _value_strips(poly: MultilinearPolynomial, emit,
                  imag: MultilinearPolynomial | None = None) -> None:
    """Hand each final column strip of the polynomial's values to
    ``emit(c, strip)`` (see :func:`_butterfly`).  It holds only the cache
    blocks that hold a mask: for the n=24 chain, 9 of 256 blocks, 4.5 MiB
    where the table is 128 MiB.  Up to :data:`_BLOCK` points the table is
    one row, and its values are one strip, emitted on the calling thread.
    With ``imag`` (on the same n), the grid is complex, ``imag`` in the
    imaginary part: complex + and - act on each part alone, so each part
    has the bits of its polynomial's own strips.
    """
    polys = (poly,) if imag is None else (poly, imag)
    size = 1 << poly.n
    block = min(size, _BLOCK)
    # the rows of the coefficient table that hold a mask
    used = np.flatnonzero(np.bincount(np.concatenate([p.masks for p in polys]) // block,
                                      minlength=size // block))
    blocks = np.zeros((used.size, block),
                      dtype=np.float64 if imag is None else np.complex128)
    for part, p in zip((blocks.real, blocks.imag), polys):
        # float(v) for each exact coefficient
        part[np.searchsorted(used, p.masks // block), p.masks % block] = p.values
    _butterfly(blocks, used, emit, size // block)


def wht(table: TruthTable) -> MultilinearPolynomial:
    """Fourier expansion of a table: coefficients f^(S) = E[f(x) * x^S].

    The forward transform divides by 2**n once at the end, so the
    coefficients are expectations.  Coefficients with absolute value at
    most :data:`PRUNE_TOL` are dropped.
    """
    return _spectrum(table.values.astype(np.float64), table.n)


def inverse_wht(poly: MultilinearPolynomial) -> TruthTable:
    """Dense evaluation of a polynomial on all 2**n points.

    Exact rational coefficients are converted to floats here; this is
    the single exact-to-float boundary of the package.  The butterfly
    skips the block levels of every cache block that holds no mask (see
    :func:`_values`); the values are bit-identical to a full transform.
    """
    return TruthTable._adopt(poly.n, _values(poly))


#: Rows per block of :func:`evaluate_batch`; fewer when the memoised
#: monomials of a block would exceed :data:`_MEMO_POINTS` values (32 MiB).
_EVAL_ROWS = 1 << 12
_MEMO_POINTS = 1 << 22


def _monomial_plan(poly: MultilinearPolynomial) -> tuple:
    """Slots and steps that evaluate every term of ``poly`` in term order.

    Slot ``j < n`` is column ``j``; every monomial of degree >= 2 gets a
    memo slot, filled as its parent (the mask without its highest bit)
    times its highest column before first use.  A step is
    ``(dst, parent, column)`` for a product, or ``(None, slot, value)``
    for adding ``value * monomial`` to the output (slot ``None`` is the
    constant term).
    """
    n = poly.n
    slot = {1 << j: j for j in range(n)}
    steps = []

    def memo(mask):
        if mask not in slot:
            high = mask.bit_length() - 1
            parent = mask ^ (1 << high)
            memo(parent)
            slot[mask] = len(slot)
            steps.append((slot[mask], slot[parent], high))

    for mask, value in zip(poly.masks.tolist(), poly.values.tolist()):
        if mask:
            memo(mask)
        steps.append((None, slot.get(mask), float(value)))
    return len(slot) - n, steps


def evaluate_batch(poly: MultilinearPolynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial at a (m, n) matrix of real points.

    Runs over blocks of rows.  Within a block each monomial is its
    parent times one column, so a product is still taken lowest variable
    first, and ``value * monomial`` is added to the output in coefficient
    order: the result is the same, bit for bit, as multiplying out each
    term on its own.  Columns are read as rows of ``points.T``, which is
    contiguous for a coordinate-major matrix.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != poly.n:
        raise ValueError(
            f"expected a (m, {poly.n}) point matrix, got {points.shape}")
    m = points.shape[0]
    out = np.zeros(m, dtype=np.float64)
    memo_slots, steps = _monomial_plan(poly)
    rows = max(1, min(m, _EVAL_ROWS, _MEMO_POINTS // max(memo_slots, 1)))
    memo = np.empty((memo_slots, rows), dtype=np.float64)
    scratch = np.empty(rows, dtype=np.float64)
    cols = points.T
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        vectors = [*cols[:, r0:r1], *memo[:, :r1 - r0]]
        acc, term = out[r0:r1], scratch[:r1 - r0]
        for dst, a, b in steps:
            if dst is not None:
                np.multiply(vectors[a], vectors[b], out=vectors[dst])
            elif a is None:
                acc += b
            else:
                np.multiply(vectors[a], b, out=term)
                acc += term
    return out


# ---------------------------------------------------------------------------
# Fourier-analytic quantities
# ---------------------------------------------------------------------------

def mean(poly: MultilinearPolynomial) -> Real:
    """f^(empty set), the expectation under uniform ±1 inputs."""
    hit = np.flatnonzero(poly.masks == 0)
    return poly.values[hit].tolist()[0] if hit.size else 0


def degree(poly: MultilinearPolynomial) -> int:
    """Largest subset size with a nonzero coefficient (0 for the zero poly)."""
    return int(np.bitwise_count(poly.masks).max(initial=0))


def term_count(poly: MultilinearPolynomial) -> int:
    """Number of nonzero coefficients."""
    return poly.masks.size


def _fold(terms: np.ndarray) -> Real:
    """Sum of ``terms`` added left to right from 0, as a Python number.

    A sequential fold, so a float sum has the bits of a plain loop and
    an exact sum stays exact.
    """
    return np.add.accumulate(terms).item(-1) if terms.size else 0


def variance(poly: MultilinearPolynomial) -> Real:
    """sum over nonempty S of f^(S)**2, in term order."""
    return _fold((poly.values * poly.values)[poly.masks != 0])


def influence_spectral(poly: MultilinearPolynomial, t: int) -> Real:
    """Influence of coordinate t: sum over S containing t of f^(S)**2,
    in term order."""
    if not 1 <= t <= poly.n:
        raise ValueError(f"coordinate t={t} out of range 1..{poly.n}")
    return _influences(poly)[t - 1]


def _influences(poly: MultilinearPolynomial) -> tuple:
    squares = poly.values * poly.values
    return tuple(_fold(squares[poly.masks & (1 << j) != 0])
                 for j in range(poly.n))


def max_influence(poly: MultilinearPolynomial) -> Real:
    """max_t Inf_t, zero for the zero or constant polynomial."""
    return max(_influences(poly))


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences with the derived summary quantities."""

    influences: tuple
    max_influence: Real
    variance: Real
    mean: Real


def influence_profile(poly: MultilinearPolynomial) -> InfluenceProfile:
    infl = _influences(poly)
    return InfluenceProfile(
        influences=infl,
        max_influence=max(infl) if infl else 0,
        variance=variance(poly),
        mean=mean(poly),
    )


def _near_pm1(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.abs(values) - 1.0) <= BOOLEAN_TOL))


def is_boolean_valued(table: TruthTable) -> bool:
    """True iff every value is within BOOLEAN_TOL of +1 or -1."""
    return _near_pm1(table.values)


def is_boolean_valued_poly(poly: MultilinearPolynomial) -> bool:
    """``is_boolean_valued(inverse_wht(poly))``, failing as it does on a
    value that is not finite.  It reads each value strip of
    :func:`_value_strips` as it comes, on the butterfly's worker threads,
    and never holds the dense table."""
    flags = []

    def check(c, strip):
        near = _near_pm1(strip)
        if not near:
            _require_finite(strip)
        flags.append(near)

    _value_strips(poly, check)
    return all(flags)


def is_boolean_function(poly: MultilinearPolynomial,
                        values: np.ndarray | None = None) -> bool:
    """Whether the function is ±1-valued: read from ``values`` (each
    value it takes, as a loaded table's) when given, else from the values
    of ``poly``.  A table loaded from a file decides for itself: the
    transform prunes coefficients at or below :data:`PRUNE_TOL`, so its
    polynomial's values can differ from it."""
    return _near_pm1(values) if values is not None else is_boolean_valued_poly(poly)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def _require_same_n(f: MultilinearPolynomial, g: MultilinearPolynomial):
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: n={f.n} vs n={g.n}")


#: Most term pairs one exact product convolves: an exact pair costs about 6 µs
#: in process and in a CLI answer, so a product at the cap takes about 0.4 s.
_MAX_EXACT_PAIRS = 1 << 16


def _check_exact_pairs(p: int, q: int) -> None:
    if p * q > _MAX_EXACT_PAIRS:
        raise ValueError(f"exact product of {p} by {q} terms exceeds the cap "
                         f"of {_MAX_EXACT_PAIRS} term pairs")


def _convolve(a, b, out=None) -> dict:
    """Add the product of each ``(mask, value)`` of ``a`` and each of
    re-iterable ``b``, row by row, into ``out`` (a fresh dict by default)
    at the masks' symmetric difference.  A mask keeps the place where it
    first appeared, even when its sum passes through zero; the caller
    drops zeros when its operation ends."""
    out = {} if out is None else out
    for m1, v1 in a:
        for m2, v2 in b:
            mask = m1 ^ m2  # x_i**2 == 1 on the hypercube
            out[mask] = out.get(mask, 0) + v1 * v2
    return out


def sub(f: MultilinearPolynomial, g: MultilinearPolynomial) -> MultilinearPolynomial:
    """f - g, term by term (exact when both exact).

    The terms keep f's order, followed by g's terms whose mask f lacks,
    in g's order.
    """
    _require_same_n(f, g)
    order = np.argsort(f.masks, kind="stable")  # linear on sorted masks
    keys = np.append(f.masks[order], 1 << MAX_N)  # a sentinel above every mask
    at = np.searchsorted(keys, g.masks)
    shared = keys[at] == g.masks
    added = g.values[~shared]
    # a float minus any real is a float: only g's new terms can make the
    # result exact
    dtype = np.result_type(f.values, added) if added.size else f.values.dtype
    values = f.values.astype(dtype)
    where = order[at[shared]]
    values[where] = values[where] - g.values[shared]
    return MultilinearPolynomial(f.n, (
        np.concatenate((f.masks, g.masks[~shared])),
        np.concatenate((values, (0 - added).astype(dtype)))))


def mul(f: MultilinearPolynomial, g: MultilinearPolynomial) -> MultilinearPolynomial:
    """Product f*g as a function on {-1,+1}^n.

    Two equivalent computations; the cheaper one is picked from the
    inputs.  When every coefficient is exact (``Fraction`` or ``int``),
    or when ``terms(f) * terms(g) <= 2**n``, coefficients are convolved
    over the symmetric difference of masks (x_i**2 = 1), which keeps
    exact rationals exact (more than :data:`_MAX_EXACT_PAIRS` exact term
    pairs raise ``ValueError``).  Otherwise the product is taken pointwise on
    the dense tables, ``wht(inverse_wht(f) * inverse_wht(g))``, in
    O(n * 2**n); its float coefficients follow the transform's rule and
    are dropped at or below :data:`PRUNE_TOL`.
    """
    _require_same_n(f, g)
    exact = all(poly.values.dtype == object
                and all(isinstance(v, Rational) for v in poly.values.tolist())
                for poly in (f, g))
    if exact:
        _check_exact_pairs(f.masks.size, g.masks.size)
    if exact or f.masks.size * g.masks.size <= 1 << f.n:
        return MultilinearPolynomial(f.n, _convolve(
            zip(f.masks.tolist(), f.values.tolist()),
            list(zip(g.masks.tolist(), g.values.tolist()))))
    table = _values(f)
    table *= _values(g)
    return _spectrum(table, f.n)
