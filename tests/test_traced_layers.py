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
