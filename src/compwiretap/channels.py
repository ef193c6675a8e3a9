"""Channel constructions for a wiretapped computation pair (f, g).

Alice broadcasts v = f(x); the eavesdropper wants u = g(x).  With x
uniform on {-1,+1}^n this induces an exact joint distribution on (u, v),
from which the forward channel Pr(v | u), the posterior channel
Pr(u | v), the MAP estimate of u, and the additive (N = f - g) and
multiplicative (N = f * g) noise decompositions are all computed from
one pass over the 2**n points, :attr:`WiretapSpec.pairs`: the distinct
raw (g, f) value pairs with their counts and first points.

Real-valued outputs are merged into alphabets with tolerance
:data:`VALUE_MERGE_TOL` so that float dust from transform round-trips
cannot split one semantic value into two.  A symbol may span at most
the tolerance: values that only chain together through smaller gaps
(0, 0.9e-9, 1.8e-9, ...) raise ``ValueError``.  Transform dust stays far
below the tolerance for values up to about 1e5 in magnitude.  The
channel views all read one :class:`JointDistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property

import numpy as np

from .boolfn import (
    _BLOCK,
    MultilinearPolynomial,
    PreconditionError,
    TruthTable,
    _require_finite,
    _value_strips,
    index_to_point,
    is_boolean_function,
    mul,
    sub,
    wht,
)

#: Distinct function values closer than this are merged into one symbol.
VALUE_MERGE_TOL = 1e-9

#: Most cells of a dense joint matrix (8 MiB of float64): the channel
#: views and their output grow with it.
_MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class WiretapSpec:
    """A pair (f, g) on a common n, inputs uniform on {-1,+1}^n.

    The pair is its two Fourier expansions, which the noise models and
    the bounds read, plus ``tables``: each table loaded from a file, by
    function name (``"f"``, ``"g"``).  Every answer that reads values
    reads :attr:`pairs`.
    """

    f_poly: MultilinearPolynomial
    g_poly: MultilinearPolynomial
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        ns = {self.f_poly.n, self.g_poly.n, *(t.n for t in self.tables.values())}
        if len(ns) != 1:
            raise ValueError(f"f and g must share n, got {sorted(ns)}")

    @property
    def n(self) -> int:
        return self.f_poly.n

    @cached_property
    def pairs(self) -> tuple:
        """``(g, f, counts, first)``: the distinct raw (g(x), f(x)) value
        pairs, sorted by g then f, how many points give each and the first
        of them.  One pass over the column strips of
        :func:`boolfn._value_strips` (one run for both expressions, f real
        and g imaginary; a loaded table gives the same strips of its
        values) keeps each strip's distinct pairs alone.  Raises
        ``ValueError`` when a value is not finite."""
        loaded = {name: table.values for name, table in self.tables.items()}
        polys = [getattr(self, f"{name}_poly") for name in "fg" if name not in loaded]
        block = min(1 << self.n, _BLOCK)
        rows = (1 << self.n) // block
        width, found = block // rows, []

        def read(c, strip):
            parts = iter((strip.real, strip.imag) if len(polys) == 2 else (strip,))
            f, g = (loaded[name].reshape(rows, block)[:, c:c + width].ravel()
                    if name in loaded else next(parts) for name in "fg")
            g_values, g_labels = np.unique(g, return_inverse=True)
            f_values, f_labels = np.unique(f, return_inverse=True)
            # by pair, then by position in the strip, which is point order:
            # fewer than 2**32 pairs by 2**16 positions
            keyed = np.sort((g_labels * f_values.size + f_labels) * block
                            + np.arange(block))
            starts = np.flatnonzero(np.diff(keyed // block, prepend=-1))
            pair, at = keyed[starts] // block, keyed[starts] % block
            found.append((g_values[pair // f_values.size], f_values[pair % f_values.size],
                          np.diff(starts, append=block), at // width * block + c + at % width))

        if polys:
            _value_strips(polys[0], read, *polys[1:])
        else:
            for c in range(0, block, width):
                read(c, None)
        g, f, counts, first = map(np.concatenate, zip(*found))
        order = np.lexsort((first, f, g))  # by pair, then by first point
        g, f, counts, first = g[order], f[order], counts[order], first[order]
        starts = np.flatnonzero(np.r_[True, (g[1:] != g[:-1]) | (f[1:] != f[:-1])])
        _require_finite(np.concatenate((g, f)))
        return g[starts], f[starts], np.add.reduceat(counts, starts), first[starts]

    @cached_property
    def booleans(self) -> tuple:
        """``(f is ±1-valued, g is ±1-valued)``, decided once, both at
        first read, by ``is_boolean_function``: from the :attr:`pairs` or
        else the table the spec holds by then, else from value strips."""
        values = (dict(zip("gf", self.pairs)) if "pairs" in self.__dict__
                  else {name: table.values for name, table in self.tables.items()})
        return tuple(is_boolean_function(getattr(self, f"{name}_poly"),
                                         values.get(name)) for name in "fg")

    @classmethod
    def from_polys(cls, f: MultilinearPolynomial, g: MultilinearPolynomial,
                   f_table: TruthTable | None = None,
                   g_table: TruthTable | None = None) -> "WiretapSpec":
        """Build from Fourier expansions, lifting a function whose n is
        below the pair's; a given table is kept when its function is not
        lifted."""
        n = max(f.n, g.n)
        tables = {name: table for name, poly, table in
                  (("f", f, f_table), ("g", g, g_table))
                  if table is not None and poly.n == n}
        return cls(f if f.n == n else f.with_n(n),
                   g if g.n == n else g.with_n(n), tables)

    @classmethod
    def from_tables(cls, f: TruthTable, g: TruthTable) -> "WiretapSpec":
        return cls(wht(f), wht(g), {"f": f, "g": g})


def _plain(value, skip=()):
    """JSON-ready view of a report, recursively.

    A dataclass becomes ``{field: value}`` in field order, leaving out
    the fields named in ``skip``; an array, tuple or list becomes a list.
    """
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value) if f.name not in skip}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


class Report:
    """Base of the report dataclasses here and in :mod:`.invariance`:
    ``to_dict`` maps each field, in field order, to its plain value, so
    the keys are the field names."""

    def to_dict(self) -> dict:
        return _plain(self)


def _merge_values(values: np.ndarray):
    """Cluster reals into an alphabet; gaps > VALUE_MERGE_TOL split clusters.

    Returns (sorted representative values, per-input cluster labels).
    Raises ``ValueError`` when a cluster spans more than the tolerance,
    since its values then chain together rather than round to one value.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    with np.errstate(over="ignore"):  # a gap beyond float range reads inf
        split = np.diff(uniq) > VALUE_MERGE_TOL
    boundaries = np.flatnonzero(split)
    lows, highs = uniq[np.r_[0, boundaries + 1]], uniq[np.r_[boundaries, -1]]
    wide = np.flatnonzero(highs - lows > VALUE_MERGE_TOL)
    if wide.size:
        lo, hi = float(lows[wide[0]]), float(highs[wide[0]])
        raise ValueError(
            f"values from {lo!r} to {hi!r} chain into one symbol spanning "
            f"{hi - lo:.3g}, more than the merge tolerance {VALUE_MERGE_TOL:g}")
    cluster_of_uniq = np.r_[0, np.cumsum(split)]
    reps = np.bincount(cluster_of_uniq, weights=uniq) / np.bincount(cluster_of_uniq)
    return tuple(float(r) for r in reps), cluster_of_uniq[inverse]


def _cells(rows: np.ndarray, cols: np.ndarray):
    """Both merged alphabets and each value pair's row-major (row, col) cell."""
    row_values, row_labels = _merge_values(rows)
    col_values, col_labels = _merge_values(cols)
    return row_values, col_values, row_labels * len(col_values) + col_labels


def _histogram(rows: np.ndarray, cols: np.ndarray, counts: np.ndarray):
    """Merged alphabets and joint of value pairs given by ``counts`` of
    the 2**n uniform points: each cell's count over 2**n, exact.  Raises
    ``ValueError`` before any matrix exists when the joint would have
    more than :data:`_MAX_CELLS` cells."""
    row_values, col_values, cells = _cells(rows, cols)
    shape = (len(row_values), len(col_values))
    if shape[0] * shape[1] > _MAX_CELLS:
        raise ValueError(
            f"a dense joint of {shape[0]} by {shape[1]} merged values needs "
            f"{shape[0] * shape[1]} cells, more than the cap of {_MAX_CELLS}")
    joint = np.bincount(cells, counts, minlength=shape[0] * shape[1])
    return row_values, col_values, joint.reshape(shape) / counts.sum()


@dataclass(frozen=True)
class JointDistribution(Report):
    """Exact joint of (u = g(x), v = f(x)) under uniform x."""

    u_values: tuple
    v_values: tuple
    probs: np.ndarray  # shape (|U|, |V|), sums to 1

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)  # a private copy
        if probs.shape != (len(self.u_values), len(self.v_values)):
            raise ValueError("joint matrix shape does not match alphabets")
        if np.any(probs < 0):
            raise ValueError("joint probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"joint must sum to 1, got {probs.sum()!r}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def u_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def v_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class DiscreteChannel(Report):
    """Row-stochastic conditional matrix Pr(output | input)."""

    inputs: tuple
    outputs: tuple
    matrix: np.ndarray
    prior: tuple | None = None
    dropped_inputs: tuple = ()

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=np.float64)  # a private copy
        if matrix.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError("channel matrix shape does not match alphabets")
        if np.any(matrix < -1e-15) or np.any(matrix > 1 + 1e-12):
            raise ValueError("channel entries must lie in [0, 1]")
        rows = matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError(f"channel rows must sum to 1, got {rows}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class NoiseModel:
    """Additive (v = u + N) or multiplicative (v = u * N) decomposition."""

    kind: str
    noise_values: tuple
    noise_probs: tuple
    u_values: tuple
    joint_u_noise: np.ndarray  # shape (|U|, |N|)
    poly: MultilinearPolynomial
    # Binary-asymmetric-channel parameters (multiplicative only):
    # Pr(N = -1 | uN = -1) and Pr(N = -1 | uN = +1); None when the
    # conditioning event has probability zero (undefined, not 0).
    flip_one_to_minus: float | None = None
    flip_minus_to_one: float | None = None
    reconstruction_max_error: float = 0.0

    def to_dict(self) -> dict:
        """The fields without ``poly``; a multiplicative model nests its
        flip probabilities under ``bac``, "undefined" for None."""
        bac = ("flip_one_to_minus", "flip_minus_to_one")
        out = _plain(self, skip=("poly", *bac))
        if self.kind == "multiplicative":
            out["bac"] = {name: "undefined" if getattr(self, name) is None
                          else getattr(self, name) for name in bac}
        return out


@dataclass(frozen=True)
class CommutesReport(Report):
    """Whether the estimate can always be exact, with a counterexample,
    and Eve's MAP success probability."""

    commutes: bool
    witness: tuple | None  # pair of ±1 points when not commuting
    success_probability: float


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def joint_distribution(spec: WiretapSpec) -> JointDistribution:
    """Exact joint of (u, v) over all 2**n points, from the spec's pairs."""
    g, f, counts, _ = spec.pairs
    return JointDistribution(*_histogram(g, f, counts))


def classic_channel(joint: JointDistribution) -> DiscreteChannel:
    """Forward channel Pr(v | u) with the prior Pr(u)."""
    prior = joint.u_marginal()
    matrix = joint.probs / prior[:, None]
    return DiscreteChannel(joint.u_values, joint.v_values, matrix,
                           prior=tuple(float(p) for p in prior))


def posterior_channel(joint: JointDistribution) -> DiscreteChannel:
    """Posterior channel Pr(u | v), rows indexed by v.

    Outputs v with zero marginal cannot arise from enumeration, but if a
    caller supplies a degenerate joint they are dropped and reported in
    ``dropped_inputs``.
    """
    v_marg = joint.v_marginal()
    keep = v_marg > 0
    dropped = tuple(v for v, k in zip(joint.v_values, keep) if not k)
    matrix = (joint.probs[:, keep] / v_marg[keep][None, :]).T
    inputs = tuple(v for v, k in zip(joint.v_values, keep) if k)
    return DiscreteChannel(inputs, joint.u_values, matrix,
                           prior=tuple(float(p) for p in v_marg[keep]),
                           dropped_inputs=dropped)


def map_estimator(joint: JointDistribution) -> dict:
    """MAP rule v -> argmax_u Pr(u | v); ties break to the smallest u."""
    # u_values are sorted ascending, and argmax returns each column's
    # first maximum, so ties resolve toward the smallest u.
    best = np.argmax(joint.probs, axis=0).tolist()
    return {v: joint.u_values[i] for v, i in zip(joint.v_values, best)}


def eve_success_probability(joint: JointDistribution) -> float:
    """Pr[MAP estimate equals u] = sum_v max_u Pr(u, v)."""
    return float(joint.probs.max(axis=0).sum())


def commutes(spec: WiretapSpec) -> CommutesReport:
    """True iff f(x) = f(x') always forces g(x) = g(x').

    Otherwise the witness is the first point of the smallest and of the
    largest g-value at the smallest f-value that meets two g-values.
    The success probability is :func:`eve_success_probability` of the
    joint, bit for bit, from its nonzero cells alone: the largest count
    at each f-value over 2**n (exact), summed over the same |V|-long
    array, so no dense joint is built at any alphabet size.
    """
    g, f, counts, first = spec.pairs
    _, f_values, cells = _cells(g, f)
    present, inverse = np.unique(cells, return_inverse=True)
    f_labels = present % len(f_values)
    best = np.zeros(len(f_values))
    np.maximum.at(best, f_labels, np.bincount(inverse, counts))
    success = float((best / counts.sum()).sum())
    clashing = np.bincount(f_labels) > 1
    if not clashing.any():
        return CommutesReport(True, None, success)
    at = present[f_labels == np.argmax(clashing)]  # g ascends: cells are (g, f)
    return CommutesReport(False, tuple(
        index_to_point(int(first[cells == c].min()), spec.n) for c in (at[0], at[-1])),
        success)


def _noise_model(kind, u, noise, counts, poly, **fields) -> NoiseModel:
    """The ``kind`` model of ``noise`` against u = g(x), with ``fields``."""
    u_values, noise_values, joint = _histogram(u, noise, counts)
    return NoiseModel(kind, noise_values,
                      tuple(float(p) for p in joint.sum(axis=0)),
                      u_values, joint, poly, **fields)


def additive_noise(spec: WiretapSpec) -> NoiseModel:
    """Decompose v = u + N with N = f - g, from the spec's pairs.

    Raises ``ValueError`` when a noise value is beyond float range."""
    g, f, counts, _ = spec.pairs
    with np.errstate(over="ignore"):
        noise = f - g
    if not np.all(np.isfinite(noise)):
        raise ValueError("additive noise values f - g must be finite")
    recon = float(np.max(np.abs(g + noise - f)))
    return _noise_model("additive", g, noise, counts,
                        sub(spec.f_poly, spec.g_poly),
                        reconstruction_max_error=recon)


def multiplicative_noise(spec: WiretapSpec) -> NoiseModel:
    """Decompose v = u * N with N = f * g; requires ±1-valued f and g.

    Values within the Boolean tolerance are canonicalized to exact ±1
    before the distributions and the binary-asymmetric-channel
    parameters are computed.  Then g * N = f holds exactly for ±1 floats,
    so ``reconstruction_max_error`` keeps its default of 0.0.
    """
    g, f, counts, _ = spec.pairs  # the flags then read these
    for name, boolean in zip("fg", spec.booleans):
        if not boolean:
            raise PreconditionError(f"multiplicative noise requires ±1-valued {name}")
    f_sign, g_sign = (np.where(values >= 0, 1.0, -1.0) for values in (f, g))
    noise = f_sign * g_sign  # exactly ±1

    def flip_prob(observed: float) -> float | None:
        seen = f_sign == observed  # uN = f is Eve's observation
        flips = counts[seen & (noise == -1.0)].sum()
        return float(flips / counts[seen].sum()) if seen.any() else None

    return _noise_model("multiplicative", g_sign, noise, counts,
                        mul(spec.f_poly, spec.g_poly),
                        flip_one_to_minus=flip_prob(-1.0),
                        flip_minus_to_one=flip_prob(+1.0))
