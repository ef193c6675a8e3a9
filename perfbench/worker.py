"""One benchmark run in a fresh process: ``worker.py SPEC OUT``.

Times ``import compwiretap.cli``, then answers the workload's requests in
passes through ``compwiretap.cli.main(argv)`` as one closed-loop client,
with stdout and stderr captured in memory.  Only the ``main`` call is
timed; each answer is then checked against the oracle.  Passes repeat
until the next one would end after the time budget, and there are at
least two.  With tracing on, the package's public functions are
wrapped first (see :mod:`layers`) and the per-layer numbers are written
instead of being left to the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time

MIN_PASSES = 2
MAX_FAILURES_KEPT = 20


def _answer(cli, argv):
    """(exit code or None, stdout, seconds, error text) of one request."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed answer, not a failed run
        code, error = None, repr(exc)
    else:
        error = err.getvalue().strip()
    return code, out.getvalue(), time.perf_counter() - start, error


def run(spec: dict) -> dict:
    start = time.perf_counter()
    import compwiretap.cli
    import_s = time.perf_counter() - start
    # Imported after the timed import, which must pay for numpy itself.
    import layers
    import oracle
    import workloads

    cli = sys.modules["compwiretap.cli"]
    if not cli.__file__.startswith(spec["src"]):
        raise SystemExit(f"compwiretap imported from {cli.__file__}, not {spec['src']}")

    # A CLI process answers once and exits, so the cyclic collector never
    # walks its import-time objects during an answer.  Freezing them (and
    # the spec) keeps full collections in this long-lived worker from
    # walking them at whichever answer happens to trigger one.
    gc.collect()
    gc.freeze()

    tracer = None
    if spec["trace"]:
        tracer = layers.Tracer(compwiretap.boolfn.PreconditionError)
        layers.install(tracer)

    requests, seed = spec["requests"], spec["seed"]
    times, pass_times, pass_counts, pass_bytes, failures = [], [], [], [], []
    failed = 0
    begin = time.perf_counter()
    while True:
        pass_index, pass_start = len(pass_times), time.perf_counter()
        busy, output_bytes = 0.0, 0
        if tracer:
            tracer.counts.clear()
        for index, request in enumerate(requests):
            if tracer:
                tracer.request = (pass_index, index)
            argv = workloads.argv_for(request, seed, pass_index, index)
            code, stdout, seconds, error = _answer(cli, argv)
            busy += seconds
            times.append((index, seconds))
            output_bytes += len(stdout.encode())
            reason = error if code is None else oracle.check(
                request["cmd"], request["expect"], code, stdout)
            if reason:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{' '.join(argv)[:160]}: {reason}")
        pass_times.append(busy)
        pass_bytes.append(output_bytes)
        if tracer:
            pass_counts.append(dict(tracer.counts))
        elapsed = time.perf_counter() - begin
        last = time.perf_counter() - pass_start
        if len(pass_times) >= MIN_PASSES and elapsed + last > spec["seconds"]:
            break

    result = {
        "import_s": import_s,
        "passes": pass_times,
        "times": times,
        "attempted": len(times),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = layers.metrics(tracer, requests, pass_times, pass_counts,
                                          pass_bytes)
        result["counts_repeat"] = all(c == pass_counts[0] for c in pass_counts)
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            for name, begin_s, end_s, parent, request in tracer.spans:
                handle.write(json.dumps([name, begin_s, end_s, parent, request]) + "\n")
    return result


def main(argv) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
