"""Workload generation: CLI requests and their expected answers.

``build(name, seed, directory)`` writes any table files a workload needs
into ``directory`` and returns its requests.  Each request holds the
argv given to ``compwiretap.cli.main`` and the expected answer computed
by :mod:`oracle`, which never calls the package.  The same seed gives
the same requests, files and expectations.

Why each workload is there:

* ``worked_examples`` -- hundreds of ms-scale exact answers (the README
  examples plus sparse exact-rational pairs at n=4..8).  Argparse,
  ``parse_poly``, Fraction arithmetic and rendering dominate; dense
  transforms and Monte Carlo do almost nothing, so it is the bypass
  workload for those, and the one where the exact ``mul`` path must not
  slow down.
* ``dense_and_monte_carlo`` -- the heavy numeric answers.  Dense random
  tables loaded from JSON and CSV files: a ±1 pair at n=12 (coefficient
  convolution in ``mul``) and real pairs at n=14 and n=16 (transforms,
  serialisation, rendering) through ``analyze``, ``channel``, ``commute``
  and ``lemmas``; and ``invariance`` requests at 10^5..10^6 samples, where
  Gaussian generation, ``evaluate_batch`` and the reduction dominate (the
  n=24 chain builds two dense n=24 tables).  Two heavy layers share code
  here, so a gain in one that costs the other shows.  Light ``moments``
  requests follow each heavy one, so that every subcommand has a number.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

import oracle
from oracle import Fn

HALF = Fraction(1, 2)
MAJ3 = "1/2*(x1 + x2 + x3 - x1*x2*x3)"
MAJ3_COEFFS = {0b001: HALF, 0b010: HALF, 0b100: HALF, 0b111: -HALF}
DISTS = ("gaussian", "rademacher", "uniform_pm2")

# The README's worked examples: (subcommand, f, f coefficients, g, g
# coefficients).  The literal text is what the CLI parses; the
# coefficients are what the oracle evaluates.
README_PAIRS = [
    ("channel", "x1*x2*x3", {0b111: 1},
     "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)",
     {0: Fraction(1, 4), 0b001: Fraction(-1, 4), 0b010: Fraction(-1, 4),
      0b100: Fraction(-1, 4), 0b011: Fraction(1, 4), 0b101: Fraction(1, 4),
      0b110: Fraction(1, 4), 0b111: Fraction(3, 4)}),
    ("commute", "x1 + 2*x2 + 4*x3", {0b001: 1, 0b010: 2, 0b100: 4},
     "x1*x2", {0b011: 1}),
    ("lemmas", "1/8*(x1*x2 + x2*x3)", {0b011: Fraction(1, 8), 0b110: Fraction(1, 8)},
     "1/8*(x1 + x2 + x3)",
     {0b001: Fraction(1, 8), 0b010: Fraction(1, 8), 0b100: Fraction(1, 8)}),
]


def pass_seed(seed: int, pass_index: int, index: int) -> int:
    """Sampling seed of request ``index`` in pass ``pass_index``.

    A CLI process never reuses the package's Gaussian chunk cache, so no
    two sampled answers of a run share a seed.
    """
    return ((seed * 1_000_003 + pass_index) * 4096 + index) % (1 << 63)


def argv_for(request: dict, seed: int, pass_index: int, index: int) -> list:
    argv = list(request["argv"])
    if request["reseed"]:
        argv += ["--seed", str(pass_seed(seed, pass_index, index))]
    return argv


def _request(cmd, args, values, reseed=False):
    return {"cmd": cmd, "argv": [cmd, *args], "reseed": reseed,
            "expect": {"code": 0, "values": values}}


def expression(coeffs: dict) -> str:
    """Expression-language text of a mask -> Fraction map."""
    parts = []
    for mask in sorted(coeffs):
        value = Fraction(coeffs[mask])
        mono = "*".join(f"x{j + 1}" for j in range(mask.bit_length())
                        if mask >> j & 1)
        mag = str(abs(value))
        body = mono if mono and mag == "1" else f"{mag}*{mono}" if mono else mag
        if parts:
            parts.append(f" {'-' if value < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if value < 0 else body)
    return "".join(parts) or "0"


def _nvars(coeffs):
    return max(max(coeffs, default=1).bit_length(), 1)


def _fn(coeffs, n=None):
    return Fn.from_coeffs(n or _nvars(coeffs), coeffs, exact=True)


def _pair_requests(f_arg, g_arg, f: Fn, g: Fn, extra=(), cmds=None):
    n = max(f.n, g.n)
    f, g = f.lift(n), g.lift(n)
    args = ["--f", f_arg, "--g", g_arg, *extra]
    expected = {"channel": oracle.expect_channel, "commute": oracle.expect_commute,
                "lemmas": oracle.expect_lemmas}
    return [_request(cmd, args, expected[cmd](f, g))
            for cmd in cmds or ("channel", "commute", "lemmas")]


def _moments(dist, samples=100_000):
    return _request("moments", ["--dist", dist, "--samples", str(samples)],
                    oracle.expect_moments(dist), reseed=True)


def _invariance(f_arg, psi, samples, mode, f: Fn, g_arg=None, g: Fn | None = None):
    args = ["--f", f_arg, *(["--g", g_arg] if g_arg else []),
            "--psi", psi, "--samples", str(samples)]
    return _request("invariance", args,
                    oracle.expect_invariance(mode, psi, f, g), reseed=True)


def _maj3(variables) -> dict:
    a, b, c = (1 << (int(v) - 1) for v in variables)
    return {a: HALF, b: HALF, c: HALF, a | b | c: -HALF}


def _rational(rng, n) -> dict:
    """Six terms of degrees 1, 1, 2, 2, 3, 3 with coefficients ±k/24, k <= 4."""
    coeffs = {}
    for size in (1, 1, 2, 2, 3, 3):
        mask = 0
        while mask == 0 or mask in coeffs:
            mask = sum(1 << int(v) for v in rng.choice(n, size, replace=False))
        coeffs[mask] = Fraction(int(rng.choice((-1, 1)) * rng.integers(1, 5)), 24)
    return coeffs


def _write_table(path, values, fmt):
    n = values.size.bit_length() - 1
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == "json":
            json.dump({"n": n, "values": values.tolist()}, handle)
        else:
            handle.write(f"# n={n}\nindex,value\n")
            handle.writelines(f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
    return "@" + path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def worked_examples(rng, directory):
    maj3 = _fn(MAJ3_COEFFS)
    reqs = [_request("analyze", ["--f", MAJ3], oracle.expect_analyze(maj3))]
    for cmd, f_arg, fc, g_arg, gc in README_PAIRS:
        reqs += _pair_requests(f_arg, g_arg, _fn(fc), _fn(gc), cmds=[cmd])
    reqs += [_moments(d) for d in DISTS]
    reqs.append(_invariance(MAJ3, "cos", 10_000, "single", maj3))
    # The README's table format with explicit ±1 points.
    path = os.path.join(directory, "maj3.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# n=3\nindex,value\n")
        for i, v in enumerate(maj3.table.tolist()):
            point = " ".join("-1" if i >> j & 1 else "+1" for j in range(3))
            handle.write(f"{point},{v:g}\n")
    reqs.append(_request("analyze", ["--f", "@" + path], oracle.expect_analyze(maj3)))

    # 48 seed-generated pairs, n = 4..8 in turn.  Even pairs are sparse
    # exact rationals (6 terms of size <= 4/24, so Var <= 1/6); odd pairs
    # are ±1-valued (signed majorities and characters), which takes the
    # multiplicative noise model and the exact mul path.  The seed picks
    # variables, signs and coefficients but not term counts or degrees,
    # so every seed asks for the same amount of work.
    for i in range(48):
        n = 4 + i % 5
        if i % 2 == 0:
            fc, gc = (_rational(rng, n) for _ in range(2))
        else:
            fc = _maj3(rng.choice(np.arange(1, n + 1), 3, replace=False))
            if i % 4 == 1:
                gc = _maj3(rng.choice(np.arange(1, n + 1), 3, replace=False))
            else:
                gc = {sum(1 << int(v) for v in rng.choice(n, 2, replace=False)): 1}
            sign = int(rng.choice((-1, 1)))
            fc = {m: sign * v for m, v in fc.items()}
        f, g = _fn(fc, n), _fn(gc, n)
        declared = ["--n", str(n)]
        reqs.append(_request("analyze", ["--f", expression(fc), *declared],
                             oracle.expect_analyze(f)))
        reqs += _pair_requests(expression(fc), expression(gc), f, g, declared)
    return reqs


def _dense_tables(rng, directory):
    reqs = []
    pairs = [
        ("pm1_12", rng.integers(0, 2, (2, 1 << 12)) * 2.0 - 1.0, ("json", "csv")),
        ("real_14", rng.integers(-4, 5, (2, 1 << 14)) / 4.0, ("csv", "json")),
        ("real_16", rng.integers(-4, 5, (2, 1 << 16)) / 4.0, ("json", "csv")),
    ]
    for name, (f_vals, g_vals), (f_fmt, g_fmt) in pairs:
        f_arg = _write_table(os.path.join(directory, f"{name}_f.{f_fmt}"), f_vals, f_fmt)
        g_arg = _write_table(os.path.join(directory, f"{name}_g.{g_fmt}"), g_vals, g_fmt)
        f, g = Fn.from_table(f_vals), Fn.from_table(g_vals)
        reqs.append(_request("analyze", ["--f", f_arg], oracle.expect_analyze(f)))
        reqs += _pair_requests(f_arg, g_arg, f, g)
    return reqs


def _chain(n):
    inv = Fraction(1, n)
    text = " + ".join(f"x{i}*x{i + 1}" for i in range(1, n))
    return f"1/{n}*({text})", {0b11 << i: inv for i in range(n - 1)}


def _sum(n):
    text = " + ".join(f"x{i}" for i in range(1, n + 1))
    return f"1/{n}*({text})", {1 << i: Fraction(1, n) for i in range(n)}


def _monte_carlo(rng, directory):
    # Each request keeps one psi: an n=24 answer costs about 25% more
    # with quartic than with sin, so drawing psi from the seed would make
    # the work of a run depend on its seed.
    maj3 = _fn(MAJ3_COEFFS)
    reqs = [_invariance(MAJ3, "cos", 1_000_000, "single", maj3)]
    for n, psi in ((20, "sin"), (24, "quartic")):
        text, coeffs = _chain(n)
        reqs.append(_invariance(text, psi, 1_000_000, "single",
                                Fn.from_coeffs(n, coeffs)))
    (f_text, fc), (g_text, gc) = _chain(16), _sum(16)
    reqs.append(_invariance(f_text, "cos", 1_000_000, "additive",
                            Fn.from_coeffs(16, fc), g_text, Fn.from_coeffs(16, gc)))
    parity = {0b111000: 1}
    reqs.append(_invariance(MAJ3, "sin", 1_000_000, "multiplicative", maj3,
                            "x4*x5*x6", _fn(parity)))
    # Values k/2, |k| <= 6: Var[F] is about 3.5, so the bound falls back
    # from the low-influence corollary to the basic bound.
    values = rng.integers(-6, 7, 1 << 10) / 2.0
    table = _write_table(os.path.join(directory, "dense_10.json"), values, "json")
    reqs.append(_invariance(table, "quartic", 100_000, "single", Fn.from_table(values)))
    return reqs


def dense_and_monte_carlo(rng, directory):
    # Two light moments requests follow each heavy request: spread over the
    # pass they meet the same machine state as the heavy ones, and the
    # median answer falls inside their group, not between two groups.
    heavy = _dense_tables(rng, directory) + _monte_carlo(rng, directory)
    moments = _moments("gaussian")
    return [r for request in heavy for r in (request, moments, moments)]


WORKLOADS = {
    "worked_examples": worked_examples,
    "dense_and_monte_carlo": dense_and_monte_carlo,
}


def build(name: str, seed: int, directory: str) -> list:
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, directory)
