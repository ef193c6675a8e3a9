"""Traced runs: spans and counts around the package's public functions.

``install`` wraps each function named in ``LAYERS`` and rebinds the
wrapper in every ``compwiretap`` module namespace that holds the
original (``channels.mul``, ``invariance.inverse_wht``, ...), so calls
between modules are traced too.  No file of the package changes.
Private helpers (``_butterfly``, ``_gaussian_chunk``, ``_render``) are
never wrapped: Gaussian generation shows up as ``expect_gaussian_mc``
self time and rendering as ``cli.main`` self time.

A span is ``(name, start, end, parent span index, request)``.  Spans
stay in memory until the run ends.  A layer's self time is the summed
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (self-time metric, module, public functions of the layer)
LAYERS = [
    ("cli.main.self_s", "cli", ["main"]),
    ("funcdsl.parse_poly.s", "funcdsl", ["parse_poly"]),
    ("funcdsl.parse_table.s", "funcdsl", ["parse_table"]),
    ("funcdsl.serialize_poly.s", "funcdsl", ["serialize_poly"]),
    ("boolfn.wht.s", "boolfn", ["wht"]),
    ("boolfn.MultilinearPolynomial.s", "boolfn", ["MultilinearPolynomial.__init__"]),
    ("boolfn.inverse_wht.s", "boolfn", ["inverse_wht"]),
    ("boolfn.mul.s", "boolfn", ["mul"]),
    ("boolfn.influence.s", "boolfn",
     ["influence_profile", "influence_spectral", "max_influence"]),
    ("boolfn.sub.s", "boolfn", ["sub"]),
    ("boolfn.evaluate_batch.s", "boolfn", ["evaluate_batch"]),
    ("channels.joint_distribution.s", "channels", ["joint_distribution"]),
    ("channels.derived.self_s", "channels",
     ["classic_channel", "posterior_channel", "map_estimator",
      "eve_success_probability", "commutes"]),
    ("channels.additive_noise.self_s", "channels", ["additive_noise"]),
    ("channels.multiplicative_noise.self_s", "channels", ["multiplicative_noise"]),
    ("invariance.expect_gaussian_mc.self_s", "invariance", ["expect_gaussian_mc"]),
    ("invariance.expect_exact.self_s", "invariance", ["expect_exact"]),
    ("invariance.bounds.s", "invariance",
     ["basic_bound", "corollary_bound", "additive_bound", "multiplicative_bound"]),
    ("invariance.lemma_suite.self_s", "invariance", ["lemma_suite"]),
    ("invariance.hypothesis_check.s", "invariance", ["hypothesis_check"]),
]

# Work counts taken at the same boundaries: function -> (args, kwargs,
# result) -> {metric: amount}.
COUNTS = {
    "funcdsl.parse_poly": lambda a, k, r: {"funcdsl.parse_poly.calls": 1},
    "funcdsl.parse_table": lambda a, k, r: {"funcdsl.parse_table.points": 1 << r.n},
    "funcdsl.serialize_poly":
        lambda a, k, r: {"funcdsl.serialize_poly.terms": len(a[0].coeffs)},
    "boolfn.wht": lambda a, k, r: {"boolfn.wht.points": 1 << a[0].n},
    "boolfn.MultilinearPolynomial.__init__":
        lambda a, k, r: {"boolfn.MultilinearPolynomial.terms": len(a[0].coeffs)},
    "boolfn.inverse_wht": lambda a, k, r: {"boolfn.inverse_wht.points": 1 << a[0].n},
    "boolfn.mul": lambda a, k, r: {"boolfn.mul.calls": 1,
                                   "boolfn.mul.term_pairs":
                                       len(a[0].coeffs) * len(a[1].coeffs)},
    "boolfn.evaluate_batch":
        lambda a, k, r: {"boolfn.evaluate_batch.term_rows": len(a[0].coeffs) * len(a[1])},
    "invariance.expect_gaussian_mc":
        lambda a, k, r: {"invariance.gaussians":
                         a[0].n * (a[2] if len(a) > 2 else k["samples"])},
}

# Functions whose PreconditionError is a refusal worth counting.
REFUSALS = {
    "channels.multiplicative_noise": "channels.multiplicative_noise.refused",
    "invariance.corollary_bound": "invariance.corollary_bound.refused",
}

# Every per-layer metric with its unit, in reporting order.  The worker
# takes cli.output_bytes and traced.workload_s from its own timing and
# the calls_per_answer ratios from the spans.
PER_LAYER = [(metric, "s") for metric, _, _ in LAYERS] + [
    ("traced.workload_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("funcdsl.parse_poly.calls", "count"),
    ("funcdsl.parse_table.points", "count"),
    ("funcdsl.serialize_poly.terms", "count"),
    ("boolfn.wht.points", "count"),
    ("boolfn.MultilinearPolynomial.terms", "count"),
    ("boolfn.inverse_wht.points", "count"),
    ("boolfn.inverse_wht.calls_per_answer", "count"),
    ("boolfn.mul.calls", "count"),
    ("boolfn.mul.term_pairs", "count"),
    ("boolfn.evaluate_batch.term_rows", "count"),
    ("channels.joint_distribution.calls_per_answer", "count"),
    ("channels.multiplicative_noise.refused", "count"),
    ("invariance.gaussians", "count"),
    ("invariance.corollary_bound.refused", "count"),
]


class Tracer:
    """Span recorder for one single-threaded worker."""

    def __init__(self, precondition_error):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = Counter()
        self._refusal = precondition_error

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count, refused = COUNTS.get(name), REFUSALS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, index = stack[-1] if stack else -1, len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._refusal:
                if refused:
                    self.counts[refused] += 1
                raise
            finally:
                # A tuple of plain values, which the cyclic collector stops
                # tracking, so that a long run's spans do not slow it down.
                spans[index] = (name, start, perf_counter(), parent, self.request)
                stack.pop()
            if count:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    modules = [m for key, m in sys.modules.items()
               if key == "compwiretap" or key.startswith("compwiretap.")]
    for _, module, names in LAYERS:
        owner = sys.modules[f"compwiretap.{module}"]
        for name in names:
            if "." in name:  # a method: rebind on its class
                cls_name, attr = name.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, tracer.wrap(f"{module}.{name}", getattr(cls, attr)))
                continue
            original = getattr(owner, name)
            wrapper = tracer.wrap(f"{module}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def self_times(spans) -> dict:
    """Summed self time per layer metric."""
    metric_of = {f"{module}.{name}": metric
                 for metric, module, names in LAYERS for name in names}
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        totals[metric_of[name]] += end - start - child
    return {metric: totals[metric] for metric, _, _ in LAYERS}


def calls_per_answer(spans, name, requests, cmd) -> float:
    """Calls of ``name`` per answer of subcommand ``cmd``."""
    answers = {span[4] for span in spans if span[0] == "cli.main"
               and requests[span[4][1]]["cmd"] == cmd}
    calls = sum(1 for span in spans if span[0] == name and span[4] in answers)
    return calls / len(answers) if answers else 0.0


def metrics(tracer, requests, pass_times, pass_counts, pass_bytes) -> dict:
    """Every PER_LAYER metric of a traced run, per pass.

    Counts are those of the first pass: every pass repeats them, except
    the output size, whose float digits and seeds differ between passes.
    """
    passes, spans = len(pass_times), tracer.spans
    out = {name: value / passes for name, value in self_times(spans).items()}
    out["traced.workload_s"] = statistics.median(pass_times)
    out["cli.output_bytes"] = pass_bytes[0]
    out["boolfn.inverse_wht.calls_per_answer"] = calls_per_answer(
        spans, "boolfn.inverse_wht", requests, cmd="invariance")
    out["channels.joint_distribution.calls_per_answer"] = calls_per_answer(
        spans, "channels.joint_distribution", requests, cmd="channel")
    for name, _ in PER_LAYER:
        out.setdefault(name, pass_counts[0].get(name, 0))
    return out
