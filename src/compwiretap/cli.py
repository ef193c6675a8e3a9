"""Command-line front end.

Every subcommand is deterministic given its inputs and seed, and the
JSON output is byte-stable across runs.  Exit codes: 0 success, 1 input
or parse error, 2 precondition violation, 3 verdict failure (an
invariance check that did not pass).

Function sources given to ``--f``/``--g`` are either an inline
polynomial expression or ``@path`` to a file holding an expression or a
truth table (CSV or JSON; auto-detected).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from . import boolfn, channels, funcdsl, invariance
from .boolfn import PreconditionError


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through
    # the input-error path (exit 1) instead.
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _looks_like_table(text: str) -> bool:
    """A JSON object, or a first non-blank line that is a comment or holds
    a comma (a CSV header or data row)."""
    stripped = text.lstrip()
    if not stripped:
        return False
    if stripped.startswith("{"):
        return True
    # every line break is whitespace, so stripped starts the first
    # non-blank line; the rest of the file is not split
    line = stripped.partition("\n")[0].splitlines()[0].strip()
    return line.startswith("#") or "," in line


def _load_function(source: str, declared_n: int | None):
    """Resolve a --f/--g source to (poly, table); table is None for an
    expression."""
    if source.startswith("@"):
        with open(source[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
        if _looks_like_table(text):
            table = funcdsl.parse_table(text)
            if declared_n is not None and table.n != declared_n:
                raise funcdsl.ParseError(
                    f"table has n={table.n}, --n says {declared_n}")
            return boolfn.wht(table), table
        return funcdsl.parse_poly(text, declared_n), None
    return funcdsl.parse_poly(source, declared_n), None


def _load_pair(args) -> channels.WiretapSpec:
    """The spec of --f and --g: each source loaded, f first, and the pair
    lifted to a common n."""
    f_poly, f_table = _load_function(args.f, args.n)
    g_poly, g_table = _load_function(args.g, args.n)
    return channels.WiretapSpec.from_polys(f_poly, g_poly, f_table, g_table)


# ---------------------------------------------------------------------------
# Subcommands; each returns (report dict, exit code)
# ---------------------------------------------------------------------------

def _cmd_analyze(args):
    poly, table = _load_function(args.f, args.n)
    # before the other fields, so that values beyond float range fail
    # as the table's check fails on them
    boolean = boolfn.is_boolean_function(poly, getattr(table, "values", None))
    profile = boolfn.influence_profile(poly)
    terms = _Terms(poly)
    report = {
        "n": poly.n,
        "expression": _Text(terms.expression()),
        "terms": terms,
        "mean": float(profile.mean),
        "variance": float(profile.variance),
        "degree": boolfn.degree(poly),
        "term_count": boolfn.term_count(poly),
        "influences": [float(v) for v in profile.influences],
        "max_influence": float(profile.max_influence),
        "boolean_valued": boolean,
    }
    return report, 0


class _Text(str):
    """A canonical polynomial text in a report.  It holds only digits,
    ``x*/+-.e`` and spaces, so its JSON form is the text in quotes, which
    ``_render`` writes without escaping it."""


class _Terms:
    """analyze's term list, kept as the canonical term arrays until it is
    rendered.

    A term row is ``{"variables", "coefficient", "exact"}``: its 1-based
    variables, its coefficient as a float and the exact text of that
    coefficient.  ``expression`` is ``serialize_poly`` of the polynomial,
    from the same arrays.  ``dicts`` gives the rows that pretty and csv
    output print; ``json`` writes the text ``json.dumps(..., sort_keys=True,
    indent=2)`` gives for the same list as the value of a top-level key,
    from whole-array pieces, since the C encoder does not run with
    ``indent``.
    """

    # per mask byte, its variables' lines, each a separator and an index
    _LINES = funcdsl._piece_tables(",\n        {}".format)

    def __init__(self, poly):
        (self.masks, values, self.negative,
         self.texts, self.which) = funcdsl.canonical_terms(poly)
        # an exact value beyond float range raises OverflowError here
        self.floats = values.astype(float)

    def expression(self) -> str:
        return funcdsl._join_terms(self.masks, self.negative, self.texts,
                                   self.which)

    def dicts(self) -> list:
        return [{"variables": variables, "coefficient": value,
                 "exact": f"-{mag}" if neg else mag}
                for variables, value, neg, mag in zip(
                    funcdsl.term_variables(self.masks), self.floats.tolist(),
                    self.negative.tolist(), self.texts[self.which].tolist())]

    def json(self) -> str:
        count = self.masks.size
        if not count:
            return "[]"
        # per entry of texts, its float repr; a text with a point or an
        # exponent is already its float's repr.  An exact text holds only
        # digits, "/", ".", "e", "+" and "-", so JSON needs no escapes.
        texts = self.texts.tolist()
        mags = np.empty(len(texts))
        mags[self.which] = np.abs(self.floats)
        coefficients = [text if "." in text or "e" in text else repr(mag)
                        for text, mag in zip(texts, mags.tolist())]
        # a row's head runs from its separator to its variables, then
        # come a line of variables per mask byte in use (the first
        # without its comma) and the row's end.  A nonzero value and its
        # float, -0.0 included, have the same sign.
        heads = np.array(
            [f',\n    {{\n      "coefficient": {sign}{coefficient},\n'
             f'      "exact": "{sign}{text}",\n      "variables": ['
             for sign in ("", "-") for coefficient, text in zip(coefficients, texts)],
            dtype=object)
        parts = funcdsl._term_pieces(heads, self._LINES, self.masks, self.negative,
                                     self.which, ("\n      ]\n    }",))
        parts[0] = "[" + parts[0][1:]
        if not self.masks[0]:
            # only the constant term, first in canonical order, has no
            # variables
            parts[len(parts) // count - 1] = "]\n    }"
        parts.append("\n  ]")
        return "".join(parts)


def _pair_report(spec, **fields) -> dict:
    """A pair answer: n and the canonical f and g, then its own fields."""
    return {"n": spec.n, "f": _Text(funcdsl.serialize_poly(spec.f_poly)),
            "g": _Text(funcdsl.serialize_poly(spec.g_poly)), **fields}


def _noise_dict(model) -> dict:
    return {**model.to_dict(), "poly": _Text(funcdsl.serialize_poly(model.poly))}


def _cmd_channel(args):
    spec = _load_pair(args)
    joint = channels.joint_distribution(spec)
    estimator = channels.map_estimator(joint)
    additive = _noise_dict(channels.additive_noise(spec))
    try:
        multiplicative = _noise_dict(channels.multiplicative_noise(spec))
    except PreconditionError as exc:
        multiplicative = {"applicable": False, "reason": str(exc)}
    report = _pair_report(
        spec, joint=joint.to_dict(),
        classic=channels.classic_channel(joint).to_dict(),
        posterior=channels.posterior_channel(joint).to_dict(),
        map=[[v, estimator[v]] for v in sorted(estimator)],
        success_probability=channels.eve_success_probability(joint),
        additive=additive, multiplicative=multiplicative)
    return report, 0


def _cmd_commute(args):
    spec = _load_pair(args)
    return _pair_report(spec, **channels.commutes(spec).to_dict()), 0


def _cmd_invariance(args):
    tf = invariance._resolve_psi(args.psi)
    c4 = tf.c4 if args.C is None else args.C
    bounds_info = {"C": c4}

    if args.g is None:
        target, _ = _load_function(args.f, args.n)
        mode = "single"
        eps = boolfn.max_influence(target)
        try:
            bound = invariance.corollary_bound(target, c4, eps)
            bounds_info["kind"] = "low-influence"
        except PreconditionError:
            bound = invariance.basic_bound(target, c4)
            bounds_info["kind"] = "basic"
        bounds_info["eps"] = float(eps)
    else:
        spec = _load_pair(args)
        f_poly, g_poly = spec.f_poly, spec.g_poly
        if not all(spec.booleans):
            mode = "additive"
            target = boolfn.sub(f_poly, g_poly)
            bound = invariance.additive_bound(f_poly, g_poly, c4)
            bounds_info["kind"] = "additive"
            bounds_info["k"] = invariance.pair_degree(f_poly, g_poly)
        else:
            bound = invariance.multiplicative_bound(spec, c4)
            # The product is built once for the noise and the variant's k.
            mode = "multiplicative"
            target = boolfn.mul(f_poly, g_poly)
            k_factor = invariance.pair_degree(f_poly, g_poly)
            k_product = boolfn.degree(target)
            variant = invariance.multiplicative_bound(
                spec, c4, k=max(k_product, 1))
            bounds_info.update({
                "kind": "multiplicative",
                "k_factor_degrees": k_factor,
                "k_product_degree": k_product,
                "l": boolfn.term_count(f_poly) * boolfn.term_count(g_poly),
                "literal": bound,
                "degree_of_product_variant": variant,
                "literal_exceeds_variant": bound > variant,
            })
            if bound > variant:
                bounds_info["note"] = (
                    "the k = deg(f)*deg(g) exponent makes the literal bound "
                    f"{bound / variant:.6g}x larger than the deg(f*g) "
                    "variant; the variant is the tighter valid bound")
        bounds_info["eps"] = float(invariance.pair_epsilon(f_poly, g_poly))

    result = invariance.verify_invariance(
        target, tf, bound, samples=args.samples, seed=args.seed, z=args.z)
    report = {
        "mode": mode,
        "n": target.n,
        "noise": _Text(funcdsl.serialize_poly(target)),
        "bound_info": bounds_info,
        **result.to_dict(),
    }
    return report, 0 if result.passed else 3


def _cmd_lemmas(args):
    spec = _load_pair(args)
    return _pair_report(spec, **invariance.lemma_suite(spec).to_dict()), 0


def _cmd_moments(args):
    if args.dist not in invariance.DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {args.dist!r}; "
            f"choices: {sorted(invariance.DISTRIBUTIONS)}")
    dist = invariance.DISTRIBUTIONS[args.dist]
    report = invariance.hypothesis_check(dist, args.samples, args.seed)
    return report.to_dict(), 0


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _pretty_lines(obj, indent=0, out=None):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)):
                out.append(f"{pad}{key}:")
                _pretty_lines(value, indent + 1, out)
            else:
                out.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _pretty_lines(item, indent + 1, out)
            else:
                out.append(f"{pad}- {item}")
    else:
        out.append(f"{pad}{obj}")
    return out


def _csv_rows(obj, prefix, rows):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _csv_rows(obj[key], f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(obj, list):
        if obj and all(isinstance(r, list) for r in obj):
            # matrix: header row then one row per matrix row
            rows.append([prefix, "rows", len(obj), "cols",
                         len(obj[0]) if obj else 0])
            for i, row in enumerate(obj):
                rows.append([f"{prefix}[{i}]"] + list(row))
        else:
            rows.append([prefix] + list(obj))
    else:
        rows.append([prefix, obj])


def _placeholders(report: dict, values: list) -> dict:
    """``report`` with each ``_Text`` and ``_Terms`` value of its dicts
    replaced by a placeholder ``"\\0<i>"``, the value appended to
    ``values`` at index i.  No other report string holds a NUL."""
    out = dict(report)
    for key, value in report.items():
        kind = type(value)
        if kind is dict:
            out[key] = _placeholders(value, values)
        elif kind is _Text or kind is _Terms:
            values.append(value)
            out[key] = f"\0{len(values) - 1}"
    return out


#: A placeholder as ``json.dumps`` writes it: its quotes and its index
#: captured.
_PLACEHOLDER_RE = re.compile(r'(")\\u0000(\d+)(")')


def _render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` of the report with
    ``_Text`` as plain strings and ``_Terms`` as their rows, and a line
    break.  The report is dumped once with placeholders, and each
    already rendered value is spliced in for its placeholder."""
    values = []
    parts = _PLACEHOLDER_RE.split(
        json.dumps(_placeholders(report, values), sort_keys=True, indent=2))
    for i in range(2, len(parts), 4):
        value = values[int(parts[i])]
        if isinstance(value, _Terms):  # a list, without the quotes
            parts[i - 1:i + 2] = "", value.json(), ""
        else:
            parts[i] = value
    parts.append("\n")
    return "".join(parts)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _render_json(report)
    terms = report.get("terms")
    if isinstance(terms, _Terms):
        report = {**report, "terms": terms.dicts()}
    if fmt == "pretty":
        return "\n".join(_pretty_lines(report, 0, [])) + "\n"
    if fmt == "csv":
        rows = []
        _csv_rows(report, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="compwiretap",
        description="Fourier analysis of Boolean functions and "
                    "wiretap-channel constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_g=False, optional_g=False):
        p.add_argument("--f", required=True,
                       help="polynomial expression or @file for f")
        if need_g:
            p.add_argument("--g", required=True,
                           help="polynomial expression or @file for g")
        elif optional_g:
            p.add_argument("--g", default=None,
                           help="optional second function g")
        p.add_argument("--n", type=int, default=None,
                       help="declared number of variables")
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="Fourier coefficients and influences")
    common(p)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("channel", help="joint, forward/posterior channels, "
                                       "MAP rule and noise models")
    common(p, need_g=True)
    p.set_defaults(run=_cmd_channel)

    p = sub.add_parser("commute", help="can the estimate always be exact?")
    common(p, need_g=True)
    p.set_defaults(run=_cmd_commute)

    p = sub.add_parser("invariance", help="verify a noise bound by Monte Carlo")
    common(p, optional_g=True)
    p.add_argument("--psi", default="cos",
                   help="test function name (default cos)")
    p.add_argument("--C", type=float, default=None,
                   help="override the catalog bound on sup|psi''''|")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=float, default=4.0)
    p.set_defaults(run=_cmd_invariance)

    p = sub.add_parser("lemmas", help="check the pairwise inequalities")
    common(p, need_g=True)
    p.set_defaults(run=_cmd_lemmas)

    p = sub.add_parser("moments", help="moment-hypothesis check")
    p.add_argument("--dist", required=True,
                   help=f"distribution name: {sorted(invariance.DISTRIBUTIONS)}")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_moments)

    return parser


#: The command line, built once: ``parse_args`` only reads it, and fills
#: a fresh namespace for each call.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report, code = args.run(args)
        rendered = _render(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (funcdsl.ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # an exact input value too large to become a float
        print(f"error: a value is outside float range ({exc})", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # such as a sample count whose arrays cannot be allocated
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: not enough memory for this input{detail}", file=sys.stderr)
        return 1
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
