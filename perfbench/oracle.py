"""Reference answers computed without the compwiretap package.

Every quantity here comes from plain enumeration of truth tables or
from the Fourier coefficients the benchmark itself chose, in the style
of the test suite's brute-force helpers.  ``check`` compares one CLI
answer with its expected values: floats within a relative tolerance (so
a declared last-bit change is not an error), verdicts and exit codes
exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

# sup|psi''''| of the catalog test functions the workloads use.
PSI_C4 = {"cos": 1.0, "sin": 1.0, "quartic": 24.0}
PSI_FN = {"cos": np.cos, "sin": np.sin, "quartic": lambda t: t ** 4}

BOOLEAN_TOL = 1e-9
VAR_QUARTER_TOL = 1e-12
LEMMA_SLACK = 1e-10
PRUNE_TOL = 1e-12
# Largest n whose full table the oracle materialises; larger tables are
# evaluated in blocks of 2**BLOCK_N points.
TABLE_N = 16
BLOCK_N = 18


class Fn:
    """A function on {-1,+1}^n held as Fourier coefficients and values.

    ``exact`` is the list of exact rational values (small sparse inputs
    only), ``table`` the float values in index order (bit j-1 of the
    index set means x_j = -1), ``coeffs`` a mask -> coefficient map.
    """

    def __init__(self, n, coeffs, table=None, exact=None):
        self.n = n
        self.coeffs = coeffs
        self.table = table
        self.exact = exact

    @classmethod
    def from_coeffs(cls, n, coeffs, exact=False):
        coeffs = {m: Fraction(v) for m, v in coeffs.items() if v}
        values = None
        if exact:
            values = [sum((v * _character(m, i) for m, v in coeffs.items()),
                          Fraction(0)) for i in range(1 << n)]
        table = _evaluate(n, coeffs) if n <= TABLE_N else None
        return cls(n, coeffs, table, values)

    @classmethod
    def from_table(cls, values):
        values = np.asarray(values, dtype=np.float64)
        n = values.size.bit_length() - 1
        spectrum = fwht(values) / values.size
        coeffs = {int(m): float(spectrum[m])
                  for m in np.flatnonzero(np.abs(spectrum) > PRUNE_TOL)}
        return cls(n, coeffs, values)

    def lift(self, n):
        if n == self.n:
            return self
        return Fn.from_coeffs(n, self.coeffs, exact=self.exact is not None)

    def keys(self):
        """Hashable output values, exact when known."""
        return self.exact if self.exact is not None else self.table.tolist()

    def degree(self):
        return max((m.bit_count() for m in self.coeffs), default=0)

    def variance(self):
        return sum(float(v) ** 2 for m, v in self.coeffs.items() if m)

    def influences(self):
        return [sum(float(v) ** 2 for m, v in self.coeffs.items() if m >> t & 1)
                for t in range(self.n)]

    def is_boolean(self):
        return bool(np.all(np.abs(np.abs(self.table) - 1.0) <= BOOLEAN_TOL))


def _character(mask, index):
    return -1 if (mask & index).bit_count() & 1 else 1


def _evaluate(n, coeffs, start=0, stop=None):
    """Values of sum_S c_S x^S on table indices [start, stop)."""
    idx = np.arange(start, (1 << n) if stop is None else stop, dtype=np.int64)
    out = np.zeros(idx.size)
    for mask, value in coeffs.items():
        # x^S at index i is -1 exactly when i and S share an odd number of bits.
        out += float(value) * (1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1))
    return out


def fwht(values):
    """Unnormalised Walsh-Hadamard transform by Kronecker factors."""
    a = np.array(values, dtype=np.float64)
    n = a.size.bit_length() - 1
    for j in range(n):
        a = a.reshape(-1, 2, 1 << j)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
    return a.reshape(-1)


def table_influences(values):
    """Inf_t = E[((f(x) - f(x with t flipped)) / 2)^2], by enumeration."""
    n = values.size.bit_length() - 1
    idx = np.arange(values.size)
    return [float(np.mean(((values - values[idx ^ (1 << t)]) / 2) ** 2))
            for t in range(n)]


# ---------------------------------------------------------------------------
# Expected answers per subcommand
# ---------------------------------------------------------------------------

def expect_analyze(f: Fn) -> dict:
    values = f.table
    mean = float(np.mean(values))
    return {"mean": mean,
            "variance": float(np.mean(values * values)) - mean * mean,
            "influences": table_influences(values)}


def _joint(f: Fn, g: Fn):
    counts = {}
    for u, v in zip(g.keys(), f.keys()):
        counts[(u, v)] = counts.get((u, v), 0) + 1
    return {key: Fraction(c, 1 << f.n) for key, c in counts.items()}


def expect_channel(f: Fn, g: Fn) -> dict:
    joint = _joint(f, g)
    us = sorted({u for u, _ in joint})
    vs = sorted({v for _, v in joint})
    best = {}
    for (u, v), p in joint.items():
        best[v] = max(best.get(v, 0), p)
    return {"u_values": [float(u) for u in us],
            "v_values": [float(v) for v in vs],
            "probs": [[float(joint.get((u, v), 0)) for v in vs] for u in us],
            "success_probability": float(sum(best.values()))}


def expect_commute(f: Fn, g: Fn) -> dict:
    fibres = {}
    for u, v in zip(g.keys(), f.keys()):
        fibres.setdefault(v, set()).add(u)
    return {"commutes": all(len(us) == 1 for us in fibres.values())}


def expect_lemmas(f: Fn, g: Fn) -> dict:
    eps = max(max(table_influences(f.table)), max(table_influences(g.table)))
    diff = f.table - g.table
    var_ok = all(float(np.var(h.table)) <= 0.25 + VAR_QUARTER_TOL for h in (f, g))
    checks = [["variance_difference", var_ok,
               float(np.var(diff)) <= 1.0 + LEMMA_SLACK if var_ok else None],
              ["influence_difference", True,
               max(table_influences(diff)) <= 4 * eps + LEMMA_SLACK]]
    if f.is_boolean() and g.is_boolean():
        bound = 4 * eps * len(f.coeffs) * len(g.coeffs)
        checks.append(["influence_product", True,
                       max(table_influences(f.table * g.table))
                       <= bound + LEMMA_SLACK])
    else:
        checks.append(["influence_product", False, None])
    return {"checks": checks,
            "passed": all(c[2] for c in checks if c[1])}


def psi_mean(target: Fn, psi: str) -> float:
    """E[psi(F(x))] over uniform ±1 x, in blocks when n is large."""
    fn = PSI_FN[psi]
    if target.table is not None:
        return float(np.mean(fn(target.table)))
    size, block, total = 1 << target.n, 1 << BLOCK_N, 0.0
    for start in range(0, size, block):
        total += float(np.sum(fn(_evaluate(target.n, target.coeffs,
                                           start, start + block))))
    return total / size


def expect_invariance(mode: str, psi: str, f: Fn, g: Fn | None = None) -> dict:
    """lhs_exact, bound and verdict of one invariance request.

    The workloads only hold requests whose bound exceeds the measured
    gap by orders of magnitude, so the expected verdict is a pass.
    """
    c4 = PSI_C4[psi]
    if mode == "single":
        target = f
        k, infl = f.degree(), f.influences()
        if f.variance() > 1.0 + 1e-12:
            bound = c4 / 12 * 9 ** k * sum(i * i for i in infl)
        else:
            bound = c4 / 12 * k * 9 ** k * max(infl)
    else:
        n = max(f.n, g.n)
        f, g = f.lift(n), g.lift(n)
        k = max(f.degree(), 1) * max(g.degree(), 1)
        eps = max(max(f.influences()), max(g.influences()))
        if mode == "additive":
            target = Fn(n, None, f.table - g.table)
            bound = c4 / 3 * k * 9 ** k * eps
        else:
            target = Fn(n, None, f.table * g.table)
            bound = c4 / 3 * k * len(f.coeffs) * len(g.coeffs) * 9 ** k * eps
    return {"lhs_exact": psi_mean(target, psi), "bound": bound, "passed": True}


def expect_moments(dist: str) -> dict:
    # Declared exact moments: gaussian (0, 1, 0, 3) and rademacher
    # (0, 1, 0, 1) meet the hypothesis; uniform_pm2 (0, 4, 0, 16) fails
    # E[x^2] = 1 and E[x^4] <= 9.
    pm2 = dist == "uniform_pm2"
    flags = [True, not pm2, True, not pm2]
    return {"flags": flags, "passed": all(flags)}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(b, (bool, str)) or b is None:
        return type(a) is type(b) and a == b
    return (isinstance(a, (int, float)) and not isinstance(a, bool)
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL))


def extract(cmd: str, report: dict) -> dict:
    """The fields of a CLI report that the oracle checks."""
    if cmd == "analyze":
        keys = ("mean", "variance", "influences")
    elif cmd == "channel":
        return {**report["joint"],
                "success_probability": report["success_probability"]}
    elif cmd == "commute":
        keys = ("commutes",)
    elif cmd == "lemmas":
        return {"checks": [[c["name"], c["applicable"], c["passed"]]
                           for c in report["checks"]],
                "passed": report["passed"]}
    elif cmd == "invariance":
        keys = ("lhs_exact", "bound", "passed")
    else:
        keys = ("flags", "passed")
    return {key: report[key] for key in keys}


def check(cmd: str, expect: dict, code: int, stdout: str) -> str | None:
    """None when the answer matches, else a one-line reason."""
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    try:
        got = extract(cmd, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
    for key, want in expect["values"].items():
        if not _close(got[key], want):
            return f"{key}: got {got[key]!r:.200}, expected {want!r:.200}"
    return None
