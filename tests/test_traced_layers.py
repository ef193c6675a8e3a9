"""The benchmark's traced run still finds every function it wraps.

``perfbench/layers.py`` wraps the package's public functions by module
and name.  A renamed or moved function would otherwise surface only as
a crash of a traced benchmark run.  The check runs in a subprocess, so
that no wrapper leaks into the rest of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MAJ3 = "1/2*(x1 + x2 + x3 - x1*x2*x3)"
ZCHAN_F = "x1*x2*x3"
ZCHAN_G = "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)"

# The README's channel, invariance and lemmas examples.
README_ARGV = [
    ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G],
    ["invariance", "--f", MAJ3, "--psi", "cos", "--samples", "1000000",
     "--seed", "0"],
    ["lemmas", "--f", "1/8*(x1*x2 + x2*x3)", "--g", "1/8*(x1 + x2 + x3)"],
]

SCRIPT = """
import contextlib, importlib, io, json, sys
import compwiretap.cli as cli
from compwiretap.boolfn import PreconditionError
import layers

missing = []
for _, module, names in layers.LAYERS:
    owner = importlib.import_module(f"compwiretap.{module}")
    for name in names:
        target = owner
        for part in name.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{name}")

tracer = layers.Tracer(PreconditionError)
layers.install(tracer)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"missing": missing, "codes": codes,
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_traced_layers_resolve_and_answer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the benchmark tree as it is
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(README_ARGV)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["missing"] == []
    assert result["codes"] == [0, 0, 0]
    # the wrappers sit on the paths these answers take
    assert {"cli.main", "channels.joint_distribution",
            "channels.posterior_channel", "invariance.expect_gaussian_mc",
            "invariance.lemma_suite"} <= set(result["spans"])


# One multi-chunk invariance answer, traced with a given number of pool
# workers: its counts, its span tree, its output and the threads that
# opened its spans.
WORKER_SCRIPT = """
import contextlib, io, json, os, sys, threading
from collections import Counter
import compwiretap.cli as cli
from compwiretap import boolfn
from compwiretap.boolfn import PreconditionError
import layers

class Spans(list):
    threads = set()

    def append(self, span):
        self.threads.add(threading.get_ident())
        super().append(span)

workers = int(sys.argv[1])
boolfn._MAX_WORKERS = workers
os.sched_getaffinity = lambda pid: set(range(workers))
tracer = layers.Tracer(PreconditionError)
tracer.spans = Spans()  # before install: each wrapper keeps this list
layers.install(tracer)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[2]))
spans = tracer.spans
tree = Counter(f"{name} < {spans[parent][0] if parent >= 0 else None}"
               for name, _, _, parent, _ in spans)
print(json.dumps({"code": code, "counts": tracer.counts, "tree": tree,
                  "out": out.getvalue(), "threads": len(Spans.threads)}))
"""

CHAIN20 = "1/20*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 20)) + ")"


def traced_at_one_and_two_workers(argv) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    results = []
    for workers in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", WORKER_SCRIPT, str(workers), json.dumps(argv)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout))
    return results


def test_traced_counts_do_not_depend_on_worker_count():
    # every wrapped call stays on the calling thread, where the tracer's
    # one span stack can see it: Gaussian chunks and moment powers run
    # on workers, and nothing wrapped runs there
    one, two = traced_at_one_and_two_workers(
        ["invariance", "--f", CHAIN20, "--psi", "sin",
         "--samples", "200000", "--seed", "3"])
    assert one["code"] == two["code"] == 0
    assert one["threads"] == two["threads"] == 1
    assert one["counts"]["boolfn.evaluate_batch.term_rows"] == 19 * 200_000
    assert one == two
    one, two = traced_at_one_and_two_workers(
        ["moments", "--dist", "gaussian", "--samples", "100000", "--seed", "3"])
    assert one["code"] == two["code"] == 0
    assert one["threads"] == two["threads"] == 1
    assert one["tree"] == {"cli.main < None": 1,
                           "invariance.hypothesis_check < cli.main": 1}
    assert one == two
