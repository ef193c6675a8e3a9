"""compwiretap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  One run:

1. builds the workload's requests, table files and expected answers from
   ``--seed`` (see ``workloads.py``; the oracle never calls the package);
2. times ``import compwiretap.cli`` in several fresh processes
   (``setup_s`` is their median);
3. starts one fresh worker process that answers every request in passes
   through ``compwiretap.cli.main(argv)`` for about ``--seconds``, one
   closed-loop client, single-threaded, checking every answer;
4. prints each metric with its unit, a ``record`` line with the seed,
   machine facts and error rate, and as the last line the result JSON.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the worker wraps the package's public functions and the
result holds the per-layer metrics of ``layers.py`` instead; end-to-end
numbers come only from untraced runs.  ``--workload all`` runs every
workload once untraced and twice traced, and also prints the tracing
overhead and whether the per-layer counts of the two traced runs agree.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# One client, no worker threads: pin the BLAS/OpenMP pools to one thread
# in this process (before numpy loads) and in every child.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170
SUBCOMMANDS = ("analyze", "channel", "commute", "lemmas", "invariance", "moments")
END_TO_END = [("setup_s", "s"), ("workload_s", "s")] + [
    (f"{cmd}_s", "s") for cmd in SUBCOMMANDS] + [
    ("answer_p50_s", "s"), ("answer_p90_s", "s"), ("peak_rss_mb", "MB")]
IMPORT_PROBE = ("import time; t = time.perf_counter(); import compwiretap.cli; "
                "print(time.perf_counter() - t)")


def _env() -> dict:
    """Child environment: the checkout's sources, one thread, and bytecode
    caching on (as for an installed package) whatever the caller set."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _proc_field(path, key):
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "client": "one closed-loop client, single-threaded worker",
    }


def setup_times(deadline) -> list:
    """``import compwiretap.cli`` in fresh processes, first one discarded.

    The discarded first import writes the bytecode cache of a fresh
    checkout, which a user pays once, not on every call.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                               cwd=ROOT, capture_output=True, text=True, check=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        samples.append(float(probe.stdout))
    return samples[1:]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        requests = workloads.build(name, seed, tmp)
        setup = setup_times(deadline)
        spec = {"src": str(SRC), "seed": seed, "seconds": seconds, "trace": trace,
                "requests": requests, "spans_path": str(SCRATCH / f"spans-{name}.jsonl")}
        spec_path, out_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        subprocess.run([sys.executable, str(WORKER), spec_path, out_path], env=_env(),
                       cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
        with open(out_path, encoding="utf-8") as handle:
            worker = json.load(handle)

    by_cmd = defaultdict(list)
    for index, seconds_taken in worker["times"]:
        by_cmd[requests[index]["cmd"]].append(seconds_taken)
    answers = [s for _, s in worker["times"]]
    if trace:
        values, units = worker["layers"], dict(layers.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "workload_s": statistics.median(worker["passes"]),
            **{f"{cmd}_s": statistics.fmean(by_cmd[cmd]) for cmd in SUBCOMMANDS},
            "answer_p50_s": statistics.median(answers),
            "answer_p90_s": statistics.quantiles(answers, n=10)[-1],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    counts_repeat = worker.get("counts_repeat", True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "passes": len(worker["passes"]), "pass_s": worker["passes"],
        "answers_per_subcommand": {cmd: len(by_cmd[cmd]) for cmd in SUBCOMMANDS},
        "error_rate": worker["failed"] / worker["attempted"],
        "failures": worker["failures"],
        "worker_import_s": worker["import_s"], "setup_samples_s": setup,
        "counts_repeat_across_passes": counts_repeat,
    }
    return {
        "record": record,
        "result": {
            "correct": worker["failed"] == 0 and counts_repeat,
            "attempted": worker["attempted"],
            "failed": worker["failed"],
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()},
        },
    }


def _print_metrics(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"  {key:46s} {metric['value']:.6g} {metric['unit']}")


def run_all(seed: int, seconds: float) -> dict:
    summary = {}
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, seconds, 0)
        traced = [run_workload(name, seed, seconds, 1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in run["result"]["metrics"].items()
                   if m["unit"] != "s"} for run in traced]
        overhead = (traced[0]["result"]["metrics"]["traced.workload_s"]["value"]
                    - plain["result"]["metrics"]["workload_s"]["value"])
        print(f"{name}: error_rate {plain['record']['error_rate']:.6g}")
        _print_metrics(plain["result"])
        _print_metrics(traced[0]["result"])
        print(f"  tracing overhead (traced - untraced workload_s) {overhead:.6g} s")
        print(f"  per-layer counts repeat across two traced runs: {counts[0] == counts[1]}")
        summary[name] = {
            "correct": all(r["result"]["correct"] for r in (plain, *traced)),
            "error_rate": plain["record"]["error_rate"],
            "end_to_end": plain["result"]["metrics"],
            "per_layer": traced[0]["result"]["metrics"],
            "trace_overhead_s": overhead,
            "counts_repeat": counts[0] == counts[1],
        }
    return {"seed": seed, "machine": machine(), "workloads": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compwiretap" / "cli.py").is_file():
        print(f"no compwiretap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_metrics(run["result"])
    print("record " + json.dumps(run["record"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
