"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately use plain Python enumeration (no package
transforms) so they stay independent of the code paths they check.
"""

import concurrent.futures
import json
import math
import re
from fractions import Fraction
from itertools import product
from numbers import Rational, Real

import numpy as np

from compwiretap import MultilinearPolynomial, ParseError, TruthTable
from compwiretap import boolfn, channels, funcdsl, invariance
from compwiretap.boolfn import BOOLEAN_TOL, PreconditionError, point_to_index


#: ``((1+x1)*...*(1+x10))*((1+x11)*...*(1+x20))``: an exact product of
#: two 1024-term sides, 2**20 term pairs.
PRODUCT_20 = "*".join(
    "(" + "*".join(f"(1+x{i})" for i in range(lo, lo + 10)) + ")"
    for lo in (1, 11))


def maj3_table() -> TruthTable:
    def maj(point):
        return 1.0 if sum(point) > 0 else -1.0
    return table_from_function(3, maj)


def maj3_poly() -> MultilinearPolynomial:
    half = Fraction(1, 2)
    return MultilinearPolynomial(
        3, {0b001: half, 0b010: half, 0b100: half, 0b111: -half})


# The parity/threshold pair below is the worked Z-channel example: the
# induced posterior flips -1 to +1 with probability 1/4 and never flips
# +1, i.e. a Z-channel from Eve's point of view.

def zchannel_f_poly() -> MultilinearPolynomial:
    return MultilinearPolynomial(3, {0b111: Fraction(1)})


def zchannel_g_poly() -> MultilinearPolynomial:
    q = Fraction(1, 4)
    return MultilinearPolynomial(3, {
        0b000: q, 0b001: -q, 0b010: -q, 0b100: -q,
        0b011: q, 0b101: q, 0b110: q, 0b111: 3 * q,
    })


def chain_pair_polys(n: int):
    """f = (1/n) sum x_i x_{i+1}, g = (1/n) sum x_i."""
    inv = Fraction(1, n)
    f = MultilinearPolynomial(
        n, {(0b11 << i): inv for i in range(n - 1)})
    g = MultilinearPolynomial(n, {(1 << i): inv for i in range(n)})
    return f, g


def random_boolean_table(rng: np.random.Generator, n: int) -> TruthTable:
    return TruthTable(n, rng.integers(0, 2, 1 << n) * 2.0 - 1.0)


def random_rational_poly(rng: np.random.Generator, n: int,
                         max_degree: int | None = None,
                         max_terms: int = 8,
                         denominator: int = 24) -> MultilinearPolynomial:
    """Random sparse polynomial with small exact-rational coefficients.

    Every coefficient has |c| <= 4/24 = 1/6 (colliding masks overwrite,
    they never accumulate), so with the defaults the variance is at most
    8 * (1/6)**2 < 1/4.
    """
    coeffs = {}
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        while True:
            mask = int(rng.integers(0, 1 << n))
            if max_degree is None or mask.bit_count() <= max_degree:
                break
        num = int(rng.integers(-4, 5))
        if num:
            coeffs[mask] = Fraction(num, denominator)
    return MultilinearPolynomial(n, coeffs)


# ---------------------------------------------------------------------------
# Brute-force oracles (pure Python enumeration)
# ---------------------------------------------------------------------------

def all_points(n: int):
    """All ±1 points in table-index order (variable 1 varies fastest)."""
    for index in range(1 << n):
        yield tuple(1 - 2 * ((index >> j) & 1) for j in range(n))


def table_from_function(n: int, fn) -> TruthTable:
    """Table of ``fn(point)`` on every ±1 point, in index order."""
    return TruthTable(n, [fn(point) for point in all_points(n)])


def influence_flip(table: TruthTable, t: int) -> float:
    """Pr[f(x) != f(x with coordinate t flipped)] for a ±1-valued table."""
    flipped = np.arange(1 << table.n) ^ (1 << (t - 1))
    return float(np.mean(table.values != table.values[flipped]))


def eval_poly_at(coeffs: dict, point) -> Fraction:
    total = Fraction(0)
    for mask, value in coeffs.items():
        term = Fraction(value)
        for j, x in enumerate(point):
            if mask >> j & 1:
                term *= x
        total += term
    return total


def expand_expression(node) -> list:
    """``(mask, value)`` terms of an expression tree, in the order the
    parser's documented rule gives them.

    A node is ``("num", Fraction)``, ``("var", j)``, ``("term", negate,
    factors)`` or ``("sum", [(op, term), ...])``, mirroring the grammar:
    a sum is a flat chain of signed terms and a parenthesised factor is
    a sum.  Every sum, and every product of a term's running product with
    its next factor, lists a mask where it first appears and adds to it
    there, even when its running sum passes through zero; zero sums are
    dropped when that sum or product ends.  A unary minus negates the
    term's product.
    """
    def add(pairs, mask, value):
        for pair in pairs:
            if pair[0] == mask:
                pair[1] += value
                return
        pairs.append([mask, value])

    kind = node[0]
    if kind == "num":
        return [(0, node[1])] if node[1] else []
    if kind == "var":
        return [(1 << (node[1] - 1), Fraction(1))]
    if kind == "sum":
        pairs = []
        for op, term in node[1]:
            for mask, value in expand_expression(term):
                add(pairs, mask, value if op == "+" else -value)
        return [(mask, value) for mask, value in pairs if value != 0]
    _, negate, factors = node
    terms = expand_expression(factors[0])
    for factor in factors[1:]:
        pairs = []
        for m1, v1 in terms:
            for m2, v2 in expand_expression(factor):
                add(pairs, m1 ^ m2, v1 * v2)
        terms = [(mask, value) for mask, value in pairs if value != 0]
    return [(mask, -value) for mask, value in terms] if negate else terms


class ReferenceParser(funcdsl._Parser):
    """The expression parser with every ``*`` a convolution, the reference
    for the product with a variable that moves each mask instead."""

    def term(self) -> dict:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        poly = self.factor()
        while self.peek()[0] == "*":
            self.take()
            rhs = self.factor()
            boolfn._check_exact_pairs(len(poly), len(rhs))
            self.pairs += len(poly) * len(rhs)
            if self.pairs > funcdsl._MAX_PARSE_PAIRS:
                raise ValueError(f"exact products of the expression exceed the "
                                 f"cap of {funcdsl._MAX_PARSE_PAIRS} term pairs in all")
            poly = {m: v for m, v in boolfn._convolve(poly.items(), rhs.items()).items()
                    if v}
        return boolfn._convolve(poly.items(), ((0, -1),)) if negate else poly


#: The token pattern of ``reference_parse_poly``: whitespace is a token
#: of its own, and a character no kind matches ends the match loop.
_REFERENCE_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<frac>\d+/\d+)
  | (?P<num>{funcdsl._DECIMAL}(?:[eE][+-]?(?P<exp>\d+))?)
  | (?P<var>x\d+)
  | (?P<op>[+\-*()])
""", re.VERBOSE)


def reference_tokenize(text: str) -> list:
    """Every token of ``text`` in one list, or the first character error."""
    tokens = []
    pos = 0
    try:
        while pos < len(text):
            m = _REFERENCE_TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup == "frac":
                num, den = m.group().split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator in rational", pos)
                tokens.append(("num", Fraction(int(num), int(den)), pos))
            elif m.lastgroup == "num":
                # a float's repr needs at most 3 exponent digits; a longer
                # exponent would make the exact rational huge
                if len(m.group("exp") or "") > 3:
                    raise ParseError("decimal exponent has more than 3 digits", pos)
                tokens.append(("num", Fraction(m.group()), pos))
            elif m.lastgroup == "var":
                digits = m.group()[1:]
                if digits[0] == "0":
                    raise ParseError(
                        f"variable index must not start with 0: {m.group()!r}", pos)
                tokens.append(("var", int(digits), pos))
            elif m.lastgroup == "op":
                tokens.append((m.group(), None, pos))
            pos = m.end()
    except ParseError:
        raise
    except ValueError:  # only int() of a digit string longer than it converts
        what = "variable index" if m.lastgroup == "var" else "number"
        raise ParseError(funcdsl._too_many_digits(what), pos) from None
    return tokens


class _ReferenceListParser:
    """The recursive-descent parser over a list of every token."""

    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len
        self.max_var = 0
        self.pairs = 0  # exact term pairs convolved by every '*' so far

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.text_len)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> dict:
        poly = self.term()  # a fresh dict: the sum accumulates into it
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            boolfn._convolve(self.term().items(), ((0, sign),), poly)
        return {m: v for m, v in poly.items() if v}

    def term(self) -> dict:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        poly = self.factor()
        while self.peek()[0] == "*":
            self.take()
            rhs = self.factor()
            boolfn._check_exact_pairs(len(poly), len(rhs))
            self.pairs += len(poly) * len(rhs)
            if self.pairs > funcdsl._MAX_PARSE_PAIRS:
                raise ValueError(f"exact products of the expression exceed the "
                                 f"cap of {funcdsl._MAX_PARSE_PAIRS} term pairs in all")
            if len(rhs) == 1 and 1 in rhs.values():
                # times a variable: XOR with one mask is a bijection, so
                # no two terms meet and every value stays as it is
                [mk] = rhs
                poly = {m ^ mk: v for m, v in poly.items()}
            else:
                poly = {m: v for m, v in boolfn._convolve(poly.items(), rhs.items()).items()
                        if v}
        return boolfn._convolve(poly.items(), ((0, -1),)) if negate else poly

    def factor(self) -> dict:
        kind, value, pos = self.take()
        if kind == "num":
            return {0: value} if value else {}
        if kind == "var":
            if value < 1:
                raise ParseError("variable index must be at least 1", pos)
            boolfn._check_n(value)  # before the shift builds a value-bit integer
            self.max_var = max(self.max_var, value)
            return {1 << (value - 1): Fraction(1)}
        if kind == "(":
            poly = self.expr()
            kind, _, pos = self.take()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return poly
        raise ParseError(
            "expected a number, variable or '('"
            + (f", got {kind!r}" if kind else ""), pos)


def reference_parse_poly(text: str, declared_n: int | None = None) -> MultilinearPolynomial:
    """``funcdsl.parse_poly`` as it read a text before it streamed: the
    whole text became a list of tokens first, so any character error was
    raised before any syntax error."""
    tokens = reference_tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _ReferenceListParser(tokens, len(text))
    try:
        coeffs = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None
    if parser.i < len(tokens):
        kind, _, pos = parser.peek()
        raise ParseError(f"unexpected {kind!r}", pos)
    if declared_n is not None:
        if declared_n < 1:
            raise ParseError(f"declared n must be positive, got {declared_n}")
        if parser.max_var > declared_n:
            raise ParseError(
                f"variable x{parser.max_var} exceeds declared n={declared_n}")
        n = declared_n
    else:
        n = max(parser.max_var, 1)
    return MultilinearPolynomial(n, coeffs)


def brute_joint(f_values, g_values):
    """Exact joint Pr(u=g, v=f) as {(u, v): Fraction} from value lists."""
    size = len(f_values)
    counts = {}
    for fv, gv in zip(f_values, g_values):
        key = (gv, fv)
        counts[key] = counts.get(key, 0) + 1
    return {(u, v): Fraction(c, size) for (u, v), c in counts.items()}


def brute_success_probability(f_values, g_values) -> Fraction:
    """sum over v of max_u Pr(u, v), by direct counting."""
    joint = brute_joint(f_values, g_values)
    v_values = {v for (_, v) in joint}
    total = Fraction(0)
    for v in v_values:
        total += max(p for (u, vv), p in joint.items() if vv == v)
    return total


def reference_map_estimator(joint) -> dict:
    """MAP rule by a loop over each column: the first u, in ascending
    order, with the largest probability."""
    rule = {}
    for j, v in enumerate(joint.v_values):
        best = 0
        for i in range(len(joint.u_values)):
            if joint.probs[i, j] > joint.probs[best, j]:
                best = i
        rule[v] = joint.u_values[best]
    return rule


def brute_commutes(f_values, g_values) -> bool:
    fibers = {}
    for fv, gv in zip(f_values, g_values):
        fibers.setdefault(fv, set()).add(gv)
    return all(len(us) == 1 for us in fibers.values())


def brute_merge_labels(values, tol: float = 1e-9) -> list:
    """Each value's symbol: the distinct values in ascending order, a new
    symbol wherever the gap to the previous one exceeds ``tol``."""
    distinct = sorted(set(values))
    symbol, labels = 0, {}
    for previous, value in zip([None, *distinct], distinct):
        if previous is not None and value - previous > tol:
            symbol += 1
        labels[value] = symbol
    return [labels[value] for value in values]


def brute_commutes_witness(f_values, g_values, n: int) -> tuple:
    """``(commutes, witness)`` over the merged symbols of f and g.

    The f-symbols are walked in ascending order; the first that meets two
    g-symbols gives the witness: the first point of its smallest g-symbol
    and the first point of its largest.
    """
    f_labels = brute_merge_labels(f_values)
    g_labels = brute_merge_labels(g_values)
    for symbol in sorted(set(f_labels)):
        fiber = [i for i, label in enumerate(f_labels) if label == symbol]
        us = [g_labels[i] for i in fiber]
        if min(us) != max(us):
            first = fiber[us.index(min(us))]
            last = fiber[us.index(max(us))]
            points = list(all_points(n))
            return False, (points[first], points[last])
    return True, None


def reference_butterfly(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterfly as a plain loop over levels, in place.

    Level h maps each pair (x, y) = (a[i], a[i + h]) to (x + y, x - y);
    the package's blocked butterfly must match it bit for bit.
    """
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        b[:, 0, :] += b[:, 1, :]
        b[:, 1, :] = x - b[:, 1, :]
        h <<= 1
    return a


def block_grid(a: np.ndarray) -> np.ndarray:
    """A copy of the table ``a`` as the butterfly's grid of cache blocks."""
    return a.copy().reshape(-1, min(a.size, boolfn._BLOCK))


def reference_values(poly: MultilinearPolynomial) -> np.ndarray:
    """Dense values of a polynomial: one coefficient stored per Python
    step, then the plain level loop."""
    a = np.zeros(1 << poly.n)
    for mask, value in poly.coeffs.items():
        a[mask] = float(value)
    return reference_butterfly(a)


# ---------------------------------------------------------------------------
# Dense-table channel readers: each walks both 2**n-point tables, as the
# package did before it read the distinct value pairs
# ---------------------------------------------------------------------------

def spec_values(spec) -> tuple:
    """f's and g's values on all 2**n points: a loaded table's own, else
    the polynomial's by the plain level loop."""
    return tuple(spec.tables[name].values if name in spec.tables
                 else reference_values(getattr(spec, f"{name}_poly"))
                 for name in "fg")


def _dense_cells(rows: np.ndarray, cols: np.ndarray):
    """Both merged alphabets and each point's row-major (row, col) cell."""
    row_values, row_labels = channels._merge_values(rows)
    col_values, col_labels = channels._merge_values(cols)
    return row_values, col_values, row_labels * len(col_values) + col_labels


def _dense_histogram(rows: np.ndarray, cols: np.ndarray):
    """Merged alphabets and joint of two value arrays on the uniform
    points: each count over the 2**n points, exact up to 2**53."""
    row_values, col_values, cells = _dense_cells(rows, cols)
    shape = (len(row_values), len(col_values))
    if shape[0] * shape[1] > channels._MAX_CELLS:
        raise ValueError(
            f"a dense joint of {shape[0]} by {shape[1]} merged values needs "
            f"{shape[0] * shape[1]} cells, more than the cap of {channels._MAX_CELLS}")
    counts = np.bincount(cells, minlength=shape[0] * shape[1])
    return row_values, col_values, counts.reshape(shape) / rows.size


def reference_joint_distribution(spec) -> channels.JointDistribution:
    f_vals, g_vals = spec_values(spec)
    return channels.JointDistribution(*_dense_histogram(g_vals, f_vals))


def reference_commutes(spec) -> channels.CommutesReport:
    """The flag, the witness (the first point of the smallest and of the
    largest g-value at the first clashing f-value) and the success
    probability, from each point's cell."""
    f_vals, g_vals = spec_values(spec)
    _, f_values, cells = _dense_cells(g_vals, f_vals)
    present, counts = np.unique(cells, return_counts=True)
    f_labels = present % len(f_values)
    best = np.zeros(len(f_values), dtype=counts.dtype)
    np.maximum.at(best, f_labels, counts)
    success = float((best / cells.size).sum())
    clashing = np.bincount(f_labels) > 1
    if not clashing.any():
        return channels.CommutesReport(True, None, success)
    at = present[f_labels == np.argmax(clashing)]
    return channels.CommutesReport(False, tuple(
        boolfn.index_to_point(int(np.argmax(cells == c)), spec.n)
        for c in (at[0], at[-1])), success)


def _dense_noise_model(kind, u, noise, poly, **fields) -> channels.NoiseModel:
    u_values, noise_values, joint = _dense_histogram(u, noise)
    return channels.NoiseModel(kind, noise_values,
                               tuple(float(p) for p in joint.sum(axis=0)),
                               u_values, joint, poly, **fields)


def reference_additive_noise(spec) -> channels.NoiseModel:
    f_vals, g_vals = spec_values(spec)
    with np.errstate(over="ignore"):
        noise = f_vals - g_vals
    if not np.all(np.isfinite(noise)):
        raise ValueError("additive noise values f - g must be finite")
    recon = float(np.max(np.abs(g_vals + noise - f_vals)))
    return _dense_noise_model("additive", g_vals, noise,
                              boolfn.sub(spec.f_poly, spec.g_poly),
                              reconstruction_max_error=recon)


def reference_multiplicative_noise(spec) -> channels.NoiseModel:
    tables = spec_values(spec)
    for name, values in zip("fg", tables):
        if not np.all(np.abs(np.abs(values) - 1.0) <= BOOLEAN_TOL):
            raise PreconditionError(f"multiplicative noise requires ±1-valued {name}")
    f_sign, g_sign = (np.where(values >= 0, 1.0, -1.0) for values in tables)
    noise = f_sign * g_sign

    def flip_prob(observed: float) -> float | None:
        mask = f_sign == observed
        if not mask.any():
            return None
        return float(np.mean(noise[mask] == -1.0))

    return _dense_noise_model("multiplicative", g_sign, noise,
                              boolfn.mul(spec.f_poly, spec.g_poly),
                              flip_one_to_minus=flip_prob(-1.0),
                              flip_minus_to_one=flip_prob(+1.0))


def reference_power_moments(dist, samples: int, seed: int) -> tuple:
    """``(means, stderrs)`` of ``x ** k`` for k = 1..4 over the draw
    ``hypothesis_check`` makes, each power through numpy's general
    ``pow``, one at a time on this thread."""
    x = np.asarray(dist.sampler(np.random.default_rng(seed), samples),
                   dtype=np.float64)
    stats = [(float(np.mean(x ** k)),
              float(np.std(x ** k, ddof=1) / math.sqrt(samples)))
             for k in range(1, 5)]
    return tuple(zip(*stats))


def use_workers(monkeypatch, workers: int) -> None:
    """Make the package's thread pools start ``workers`` threads wherever
    a loop has that many tasks, whatever the machine's core count."""
    monkeypatch.setattr(boolfn, "_MAX_WORKERS", workers)
    monkeypatch.setattr(boolfn.os, "sched_getaffinity",
                        lambda pid: set(range(workers)), raising=False)


def refuse_threads(monkeypatch) -> None:
    """Make the package's thread pools fail on creation."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was created")
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def convolve_coeffs(f: dict, g: dict) -> dict:
    """Coefficients of f*g by convolution over mask symmetric differences."""
    out = {}
    for m1, v1 in f.items():
        for m2, v2 in g.items():
            out[m1 ^ m2] = out.get(m1 ^ m2, 0) + v1 * v2
    return {mask: v for mask, v in out.items() if v != 0}


def brute_product_coeffs(f: dict, g: dict, n: int) -> dict:
    """Fourier coefficients of the pointwise product f(x)*g(x), enumerated."""
    values = [eval_poly_at(f, p) * eval_poly_at(g, p) for p in all_points(n)]
    out = {}
    for mask in range(1 << n):
        total = Fraction(0)
        for index, value in enumerate(values):
            total += -value if (index & mask).bit_count() & 1 else value
        out[mask] = total / (1 << n)
    return out


def reference_evaluate_batch(poly: MultilinearPolynomial,
                             points: np.ndarray) -> np.ndarray:
    """Each term multiplied out on its own, lowest variable first, and
    added as ``value * term`` in coefficient order.

    The package's memoised evaluation must match it bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    out = np.zeros(points.shape[0], dtype=np.float64)
    for mask, value in poly.coeffs.items():
        if mask == 0:
            out += float(value)
            continue
        m = mask
        j = (m & -m).bit_length() - 1
        term = points[:, j].copy()
        m &= m - 1
        while m:
            j = (m & -m).bit_length() - 1
            term *= points[:, j]
            m &= m - 1
        out += float(value) * term
    return out


def reference_gaussian_chunk(seed: int, n: int, start: int,
                             length: int) -> np.ndarray:
    """The counter-based Gaussians of ``(seed, i, j)`` as whole-array steps.

    A (length, n) array for sample indices [start, start + length); the
    package's blocked in-place generation must match it bit for bit.
    """
    from scipy.special import ndtri

    def mix64(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    k_index = np.uint64(0x9E3779B97F4A7C15)
    idx = np.arange(start, start + length, dtype=np.uint64)[:, None]
    coord = np.arange(n, dtype=np.uint64)[None, :]
    base = np.uint64((seed * 0xD6E8FEB86659FD93) & ((1 << 64) - 1))
    z = idx * k_index + coord * np.uint64(0xC2B2AE3D27D4EB4F) + base
    z = mix64(mix64(z) + k_index)
    # the top counter's midpoint rounds to 1.0; it is kept below 1
    uniform = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(np.minimum(uniform, np.nextafter(1.0, 0.0)))


def parent_counter_gaussians(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normal quantiles of 53-bit ``uint64`` counters as the generator
    first computed them: ``uint64`` plus 0.5, scaled, clamped below 1."""
    from scipy.special import ndtri

    np.add(z, 0.5, out=out)
    out *= 2.0 ** -53
    np.minimum(out, np.nextafter(1.0, 0.0), out=out)
    return ndtri(out, out=out)


def parent_gaussian_chunk(seed: int, n: int, start: int,
                          length: int) -> np.ndarray:
    """The blocked generator as it first was: 2**11 rows per block, each
    counter converted from ``uint64``.  The package's generator must
    give the same bytes, whatever its blocking and conversions."""
    mask64 = (1 << 64) - 1
    mix = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
           (np.uint64(27), np.uint64(0x94D049BB133111EB)))
    k_index = np.uint64(0x9E3779B97F4A7C15)

    def mix64(z, scratch):
        for shift, factor in mix:
            np.right_shift(z, shift, out=scratch)
            z ^= scratch
            z *= factor
        np.right_shift(z, np.uint64(31), out=scratch)
        z ^= scratch

    gauss = np.empty((n, length), dtype=np.float64)
    coord = (np.arange(n, dtype=np.uint64)[:, None] * np.uint64(0xC2B2AE3D27D4EB4F)
             + np.uint64((seed * 0xD6E8FEB86659FD93) & mask64))
    rows = max(1, min(1 << 11, length))
    z = np.empty((n, rows), dtype=np.uint64)
    scratch = np.empty_like(z)
    for r0 in range(0, length, rows):
        r1 = min(r0 + rows, length)
        zb, sb = z[:, :r1 - r0], scratch[:, :r1 - r0]
        idx = np.arange(start + r0, start + r1, dtype=np.uint64)
        np.add(idx * k_index, coord, out=zb)
        mix64(zb, sb)
        zb += k_index
        mix64(zb, sb)
        zb >>= np.uint64(11)
        parent_counter_gaussians(zb, gauss[:, r0:r1])
    return gauss.T


def reference_parse_table_csv(text: str) -> np.ndarray:
    """Values of a CSV table file, read one row at a time.

    Every value goes through ``Fraction``; the package's fast path for
    plain rows must give the same array, byte for byte.
    """
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.search(r"n\s*=\s*(\d+)", line)
            if m:
                n = int(m.group(1))
            continue
        if re.fullmatch(r"n\s*=\s*\d+", line):
            n = int(re.search(r"\d+", line).group())
            continue
        if line.lower().replace(" ", "") == "index,value":
            continue
        rows.append((lineno, line))
    if n is None:
        n = len(rows).bit_length() - 1
    if not rows or len(rows) != 1 << n:
        raise ParseError(f"expected {1 << n} rows, found {len(rows)}")
    values = np.full(1 << n, np.nan)
    for lineno, line in rows:
        first, value = line.split(",")
        first = first.strip()
        if re.fullmatch(r"\d+", first):
            index = int(first)
        else:
            index = point_to_index(
                [1 if p in ("1", "+1") else -1 for p in first.split()])
        if not np.isnan(values[index]):
            raise ParseError(f"line {lineno}: duplicate index {index}")
        values[index] = float(Fraction(value.strip()))
    return values


def serialize_table(table: TruthTable, fmt: str = "csv") -> str:
    """Render a table in one of the two accepted file formats."""
    if fmt == "json":
        return json.dumps(
            {"n": table.n, "values": [float(v) for v in table.values]})
    if fmt == "csv":
        lines = [f"# n={table.n}", "index,value"]
        lines += [f"{i},{float(v)!r}" for i, v in enumerate(table.values)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def reference_looks_like_table(text: str) -> bool:
    """Whether a ``@file`` source is a table, from every line of the file."""
    if text.lstrip().startswith("{"):
        return True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#") or line.lower().replace(" ", "") == "index,value":
            return True
        return "," in line
    return False


def reference_coeff_text(mag) -> str:
    """Coefficient string of a magnitude, formatted from scratch: an
    exact fraction when it is a Fraction or its ratio fits in 2**53, the
    ``repr`` of its float otherwise."""
    exact = mag if isinstance(mag, float) else Fraction(mag)
    num, den = exact.as_integer_ratio()
    if not isinstance(mag, Fraction) and (abs(num) > 2**53 or den > 2**53):
        return repr(float(mag))
    return str(num) if den == 1 else f"{num}/{den}"


def reference_canonical_terms(poly) -> list:
    """``(mask, value, negative, magnitude text)`` per term, sorted by
    (subset size, mask)."""
    out = []
    for mask in sorted(poly.coeffs, key=lambda m: (bin(m).count("1"), m)):
        value = poly.coeffs[mask]
        negative = value < 0
        out.append((mask, value, negative,
                    reference_coeff_text(-value if negative else value)))
    return out


def reference_serialize_poly(poly) -> str:
    """Canonical text, each term formatted from scratch.

    Terms sorted by (subset size, mask); a coefficient is written as an
    exact fraction when it is a Fraction or its ratio fits in 2**53, and
    as the ``repr`` of its float otherwise.
    """
    if not poly.coeffs:
        return "0"
    parts = []
    for mask, _, negative, text in reference_canonical_terms(poly):
        mono = "*".join(f"x{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1)
        if mono:
            body = mono if text == "1" else f"{text}*{mono}"
        else:
            body = text
        if parts:
            parts.append(f"{' - ' if negative else ' + '}{body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return "".join(parts)


def reference_join_terms(masks, negative, texts, which) -> str:
    """``funcdsl._join_terms`` as the per-term loop it was: per term its
    sign, then its magnitude and its variables' names, a magnitude 1
    before a name dropped with the name's ``*``."""
    if not masks.size:
        return "0"
    negative = negative.tolist()
    parts = []
    for neg, mag, mask in zip(negative, texts[which].tolist(), masks.tolist()):
        name = "".join(f"*x{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1)
        parts.append(" - " if neg else " + ")
        if mag == "1" and name:
            parts.append(name[1:])
        else:
            parts.append(mag)
            parts.append(name)
    parts[0] = "-" if negative[0] else ""
    return "".join(parts)


class DictPolynomial:
    """The dict-backed polynomial that the array core replaced, kept as
    an oracle.

    ``coeffs`` is a plain dict in insertion order, and every operation is
    the former per-term loop.  ``reference_values``,
    ``reference_evaluate_batch`` and ``reference_serialize_poly`` take it
    as they take a package polynomial.
    """

    def __init__(self, n: int, coeffs: dict):
        if not 1 <= n <= boolfn.MAX_N:
            raise ValueError(f"bad n={n}")
        clean = {}
        for mask, value in coeffs.items():
            mask = int(mask)
            if mask < 0 or mask >= 1 << n:
                raise ValueError(f"mask {mask} does not fit in n={n} bits")
            if not isinstance(value, Real):
                raise ValueError(f"coefficient {value!r} is not a real number")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"coefficient for mask {mask} is not finite")
            if value != 0:
                clean[mask] = value
        self.n, self.coeffs = n, clean

    def with_n(self, n: int) -> "DictPolynomial":
        used = 0
        for mask in self.coeffs:
            used |= mask
        if n < self.n and used >> n:
            raise ValueError(f"cannot shrink to n={n}")
        return DictPolynomial(n, self.coeffs)

    def sub(self, g: "DictPolynomial") -> "DictPolynomial":
        coeffs = dict(self.coeffs)
        for mask, value in g.coeffs.items():
            coeffs[mask] = coeffs.get(mask, 0) - value
        return DictPolynomial(self.n, coeffs)

    def mul(self, g: "DictPolynomial") -> "DictPolynomial":
        exact = all(isinstance(v, Rational)
                    for poly in (self, g) for v in poly.coeffs.values())
        if exact or len(self.coeffs) * len(g.coeffs) <= 1 << self.n:
            coeffs = {}
            for m1, v1 in self.coeffs.items():
                for m2, v2 in g.coeffs.items():
                    coeffs[m1 ^ m2] = coeffs.get(m1 ^ m2, 0) + v1 * v2
            return DictPolynomial(self.n, coeffs)
        a = reference_butterfly(reference_values(self) * reference_values(g))
        a /= 1 << self.n
        keep = np.flatnonzero(~(np.abs(a) <= boolfn.PRUNE_TOL))
        return DictPolynomial(self.n, dict(zip(keep.tolist(), a[keep].tolist())))

    def degree(self) -> int:
        return max((mask.bit_count() for mask in self.coeffs), default=0)

    def _sum_squares(self, keep) -> Real:
        total = 0  # a plain left fold: no compensated builtin sum
        for mask, value in self.coeffs.items():
            if keep(mask):
                total = total + value * value
        return total

    def variance(self) -> Real:
        return self._sum_squares(lambda mask: mask != 0)

    def influence(self, t: int) -> Real:
        return self._sum_squares(lambda mask: mask >> (t - 1) & 1)


def reference_analyze_terms(poly) -> list:
    """analyze's ``terms`` as the list of dicts it was before its JSON
    was templated: per term in canonical order, its variables, its value
    as a float and the exact text of that value."""
    return [{"variables": [j + 1 for j in range(mask.bit_length()) if mask >> j & 1],
             "coefficient": float(value),
             "exact": f"-{text}" if negative else text}
            for mask, value, negative, text in reference_canonical_terms(poly)]


# ---------------------------------------------------------------------------
# Exact expectations of polynomial psi
# ---------------------------------------------------------------------------

#: Polynomial test functions by catalog name, as the power of F they take.
PSI_POWERS = {"identity": 1, "square": 2, "quartic": 4}


def exact_expectation(poly, psi: str, gaussian: bool) -> Fraction:
    """E[psi(F(x))] in exact rationals, for a polynomial ``psi`` of
    :data:`PSI_POWERS`, with x standard Gaussian or uniform ±1.

    Both ensembles have E[x] = E[x**3] = 0 and E[x**2] = 1, so they agree
    on E[F] = c_{} and E[F**2] = sum_S c_S**2; they differ in E[x**4]
    (3 against 1).  Write F**2 = sum d_{A,B} x^A prod_{i in B} x_i**2 with
    A = S^T and B = S&T over term pairs (S, T).  A product of two such
    monomials has a nonzero mean only when their A agree, so

        E[F**4] = sum_A sum_{B1, B2} d_{A,B1} d_{A,B2} E[x**4]**|B1 & B2|.
    """
    coeffs = [(int(mask), Fraction(value)) for mask, value in poly.coeffs.items()]
    power = PSI_POWERS[psi]
    if power == 1:
        return sum((value for mask, value in coeffs if mask == 0), Fraction(0))
    if power == 2:
        return sum((value * value for _, value in coeffs), Fraction(0))
    square = {}
    for s, cs in coeffs:
        for t, ct in coeffs:
            square[s ^ t, s & t] = square.get((s ^ t, s & t), 0) + cs * ct
    by_odd = {}
    for (odd, even), value in square.items():
        by_odd.setdefault(odd, []).append((even, value))
    fourth = 3 if gaussian else 1
    total = Fraction(0)
    for terms in by_odd.values():
        for b1, d1 in terms:
            for b2, d2 in terms:
                total += d1 * d2 * fourth ** (b1 & b2).bit_count()
    return total


def exact_quartic_gap(poly) -> Fraction:
    """|E[F(x)**4] - E[F(g)**4]| between uniform ±1 x and Gaussian g."""
    return abs(exact_expectation(poly, "quartic", gaussian=False)
               - exact_expectation(poly, "quartic", gaussian=True))


# ---------------------------------------------------------------------------
# The conditions on f and g as each caller checked them before they had one
# home each: the ±1 flags in a loop per caller, Var > 1/4 twice
# ---------------------------------------------------------------------------

def exact_poly(n: int, values) -> MultilinearPolynomial:
    """The exact Fourier expansion of the function with ``values`` on the
    points in index order: f^(S) = 2**-n sum_x f(x) prod_{j in S} x_j."""
    points = list(all_points(n))
    coeffs = {}
    for mask in range(1 << n):
        total = Fraction(0)
        for point, value in zip(points, values):
            sign = math.prod(x for j, x in enumerate(point) if mask >> j & 1)
            total += sign * Fraction(value)
        if total:
            coeffs[mask] = total / (1 << n)
    return MultilinearPolynomial(n, coeffs)


def reference_booleans(spec) -> tuple:
    """Each function's ±1 flag from its dense values."""
    return tuple(bool(np.all(np.abs(np.abs(values) - 1.0) <= BOOLEAN_TOL))
                 for values in spec_values(spec))


def reference_additive_bound(f, g, c4) -> float:
    invariance._check_finite("C", c4)
    for name, poly in (("f", f), ("g", g)):
        var = float(boolfn.variance(poly))
        if var > 0.25 + 1e-12:
            raise PreconditionError(f"Var[{name}] = {var} exceeds 1/4")
    k = invariance.pair_degree(f, g)
    eps = invariance.pair_epsilon(f, g)
    return float(invariance._frac(c4) * Fraction(k * 9 ** k, 3) * eps)


def reference_multiplicative_bound(spec, c4, k: int | None = None) -> float:
    invariance._check_finite("C", c4)
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    for name, boolean in zip("fg", spec.booleans):
        if not boolean:
            raise PreconditionError(f"{name} is not ±1-valued")
    f, g = spec.f_poly, spec.g_poly
    if k is None:
        k = invariance.pair_degree(f, g)
    l = boolfn.term_count(f) * boolfn.term_count(g)
    eps = invariance.pair_epsilon(f, g)
    return float(invariance._frac(c4) * Fraction(k * l * 9 ** k, 3) * eps)


def reference_lemma_suite(spec) -> invariance.LemmaSuiteReport:
    """The three pairwise inequalities, each check built on its own."""
    LemmaCheck, LEMMA_SLACK = invariance.LemmaCheck, invariance.LEMMA_SLACK
    variance, max_influence = boolfn.variance, boolfn.max_influence
    f, g = spec.f_poly, spec.g_poly
    f_bool, g_bool = spec.booleans
    eps = float(invariance.pair_epsilon(f, g))
    checks = []

    diff = boolfn.sub(f, g)
    var_f, var_g = float(variance(f)), float(variance(g))
    if var_f > 0.25 + 1e-12 or var_g > 0.25 + 1e-12:
        offender = "f" if var_f > 0.25 + 1e-12 else "g"
        checks.append(LemmaCheck(
            "variance_difference", False,
            f"Var[{offender}] exceeds 1/4", None, None, None))
    else:
        lhs = float(variance(diff))
        checks.append(LemmaCheck(
            "variance_difference", True, None, lhs, 1.0,
            lhs <= 1.0 + LEMMA_SLACK))

    lhs = float(max_influence(diff))
    checks.append(LemmaCheck(
        "influence_difference", True, None, lhs, 4.0 * eps,
        lhs <= 4.0 * eps + LEMMA_SLACK))

    if not (f_bool and g_bool):
        offender = "f" if not f_bool else "g"
        checks.append(LemmaCheck(
            "influence_product", False,
            f"{offender} is not ±1-valued", None, None, None))
    else:
        lhs = float(max_influence(boolfn.mul(f, g)))
        bound = 4.0 * eps * boolfn.term_count(f) * boolfn.term_count(g)
        checks.append(LemmaCheck(
            "influence_product", True, None, lhs, bound,
            lhs <= bound + LEMMA_SLACK))

    return invariance.LemmaSuiteReport(tuple(checks))
