"""Self-test of the benchmark's answer checking: ``python3 perfbench/selftest.py``.

Runs two README requests through the real worker loop with
``compwiretap.cli.main`` wrapped so that every ``commute`` answer has its
``commutes`` verdict flipped, and requires that exactly those answers
are counted as failed, so that they raise the run's ``error_rate``.
Untouched answers must pass.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compwiretap.cli as cli  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def _flip_commutes(main):
    def corrupted(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        report = json.loads(out.getvalue())
        if "commutes" in report:
            report["commutes"] = not report["commutes"]
        sys.stdout.write(json.dumps(report))
        return code
    return corrupted


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        requests = [r for r in workloads.build("worked_examples", 0, tmp)[:4]
                    if r["cmd"] in ("analyze", "commute")]
    spec = {"src": str(ROOT / "src"), "seed": 0, "seconds": 0, "trace": 0,
            "requests": requests}
    clean = worker.run(spec)
    cli.main = _flip_commutes(cli.main)
    corrupted = worker.run(spec)
    per_pass = sum(r["cmd"] == "commute" for r in requests)
    passes = len(corrupted["passes"])
    error_rate = corrupted["failed"] / corrupted["attempted"]
    ok = (clean["failed"] == 0 and per_pass == 1
          and corrupted["failed"] == per_pass * passes and error_rate > 0
          and all("commutes" in f for f in corrupted["failures"]))
    print(f"clean failed {clean['failed']}/{clean['attempted']}; "
          f"flipped commutes failed {corrupted['failed']}/{corrupted['attempted']} "
          f"(error_rate {error_rate:.3g}): {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
