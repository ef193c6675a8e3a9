"""Compare the CLI answers of two source trees, request by request.

    python tests/cli_bytes.py OLD_SRC NEW_SRC --seed S

OLD_SRC and NEW_SRC are ``src`` directories, each holding a
``compwiretap`` package.  The script builds the requests of both
benchmark workloads at seed S with ``perfbench/workloads.py``, writing
their table files into a temporary directory, and a third group,
``extra``, of requests that reach paths neither workload does:

* ``moments`` of each distribution at 10^4, 10^5 and 10^6 samples and
  seeds S and S+1;
* ``analyze`` of a ±1 monomial and of a chain at n = 17, 20 and 24
  (above 2**16 points);
* ``channel`` on a pair of n=8 tables of distinct values (a 256 x 256
  joint) and on a pair of n=11 tables whose joint has 1025 x 1024
  cells, just over the dense joint cap (a tree without that cap answers
  it with three 1M-cell matrices, a few seconds and a few hundred MB);
* ``invariance`` on the n=24 chain against the n=24 sum (a tree that
  builds the pair's tables for its ±1 check peaks at about 600 MB);
* ``analyze``, ``lemmas``, ``invariance``, ``commute`` and ``channel``
  on a seed-drawn pair with ±1 coefficients on x9..x24, the first term
  of f a negative constant (``lemmas`` is the lightest answer that
  writes both texts of an n=24 pair, about 600 MB; a tree that walks
  the pair's two dense tables for ``commute`` or ``channel`` peaks above
  1 GB);
* ``lemmas``, ``invariance``, ``commute`` and ``channel`` on a
  seed-drawn pair of ±1 monomials at n = 24 (a tree that builds the
  pair's tables for the ±1 flags peaks at about 600 MB, and one that
  walks them for ``channel`` at about 1.5 GB);
* ``analyze`` and ``commute`` on a pair of dense n=14 tables of
  3-decimal values, with many distinct magnitudes;
* ``analyze`` and ``channel`` on a pair of quarter-valued n=14 CSV
  tables written with CRLF line breaks, with lone-CR line breaks, with
  ``i, v`` rows and with permuted rows;
* ``analyze`` of an n=1 CSV table of ``+1``/``-1`` point rows, and of
  one with a 4-digit exponent (exit code 1);
* ``invariance`` on five constant targets, whose exact side and
  estimate differ by rounding alone, and on one real gap (exit code 3);
* ``lemmas``, ``channel`` and ``invariance`` on a pair where only g has
  Var > 1/4 and on one where only g is not ±1, so each reason and
  refusal is compared;
* ``analyze`` of a JSON table with an entry that is no number and of an
  expression nested 330 parentheses deep (exit code 1 each);
* ``analyze`` of the canonical text of a dense quarter-valued n=12
  table, given as an ``@file``, which the expression parser reads in one
  pass;
* ``analyze`` of three expressions that hold a syntax error ahead of
  another error, ``x1 x2 $``, ``x30 + $`` and ``x1 + * y`` (the parser
  reports the first error in text order);
* ``lemmas`` on ``x1`` against ``1e154*x1``, whose bound 4 * eps is
  beyond float range (exit code 1);
* ``analyze`` of JSON tables with a string and a bool entry, and with a
  null entry (exit code 1 each);
* ``analyze``, ``lemmas``, ``invariance`` (alone and with ``--g x1``),
  ``channel`` and ``commute`` on an n=1 JSON table of ±1e200, whose
  squares are beyond float range (the first four exit 1; the last two
  read no squares), and ``analyze`` of a JSON table with ``"n": true``
  (exit code 1).

The ``extra`` group is answered a second time, as ``extra_1core``, by
processes pinned to one core, so every pooled loop takes its one-worker
path, which a machine of several cores otherwise takes only for a loop
of one task.

It answers every request in each output format (``json``, ``pretty``
and ``csv``) through ``compwiretap.cli.main`` with each tree, each tree
in a fresh process, and compares per answer the exit code, the length
and sha256 of stdout, and stderr.  It prints every difference and, per
workload, the difference count and each tree's peak RSS (``ru_maxrss``
of the process that answered) with the first request after which the
process had reached it, and exits 1 if there is a difference, 0
otherwise.  Each process runs with ``MALLOC_MMAP_THRESHOLD_`` fixed at
128 KiB: glibc otherwise raises its threshold as large blocks are freed,
so a process's peak RSS would follow its allocation history, not its
tree.  Sampled requests get the seed the benchmark's first pass
gives them.

No process writes bytecode, so nothing is left under ``perfbench/`` or
either tree.  This is a script, not a collected test: a refactor that
must keep every byte runs it against the parent commit's tree.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

# importing perfbench's modules must leave no __pycache__ there
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

# Run in a fresh interpreter with argv [tree, requests.json]: prints the
# process's peak RSS in KiB and, per request, [exit code, stdout length in
# bytes, stdout sha256, stderr, the process's peak RSS in KiB so far].
ANSWER = """
import contextlib, hashlib, io, json, resource, sys
tree, path = sys.argv[1:]
sys.path.insert(0, tree)
import compwiretap.cli as cli
if not cli.__file__.startswith(tree):
    raise SystemExit(f"compwiretap imported from {cli.__file__}, not {tree}")
answers = []
for argv in json.load(open(path, encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = None
            print(f"raised {exc!r}", file=sys.stderr)
    data = out.getvalue().encode("utf-8")
    answers.append([code, len(data), hashlib.sha256(data).hexdigest(),
                    err.getvalue(),
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump([peak_kib, answers], sys.stdout)
"""

FIELDS = ("exit code", "stdout length", "stdout sha256", "stderr")
FORMATS = ("json", "pretty", "csv")


def answers(tree: str, requests_path: str, one_core: bool) -> tuple:
    """(peak RSS in MB, the index of the first request after which the
    process had reached it, the answers) of one tree in a fresh process,
    pinned to one core if ``one_core``."""
    def pin():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = subprocess.run([sys.executable, "-B", "-c", ANSWER, tree, requests_path],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "MALLOC_MMAP_THRESHOLD_": str(128 << 10)},
                         preexec_fn=pin if one_core else None)
    peak_kib, result = json.loads(run.stdout)
    reached = next(i for i, answer in enumerate(result) if answer[-1] == peak_kib)
    return peak_kib * 1024 / 1e6, reached, result


def extra(seed: int, directory: str) -> list:
    """The argv of each request of the ``extra`` group at ``seed``,
    without ``--format``; table files are written into ``directory``."""
    rng = np.random.default_rng(seed)
    argvs = [["moments", "--dist", dist, "--samples", str(samples),
              "--seed", str(s)]
             for dist in workloads.DISTS for samples in (10**4, 10**5, 10**6)
             for s in (seed, seed + 1)]
    for n in (17, 20, 24):
        a, b = sorted(rng.choice(n - 1, 2, replace=False) + 1)
        argvs.append(["analyze", "--f", f"x{a}*x{b}*x{n}"])
        argvs.append(["analyze", "--f", workloads._chain(n)[0]])
    order = rng.permutation(1 << 11)
    pairs = {"distinct8": rng.standard_normal((2, 1 << 8)),
             "over_cap11": np.minimum(order, [[1023], [1024]]) * 1.0}
    for name, (f, g) in pairs.items():
        f_arg, g_arg = (workloads._write_table(
            os.path.join(directory, f"{name}_{side}.csv"), values, "csv")
            for side, values in (("f", f), ("g", g)))
        argvs.append(["channel", "--f", f_arg, "--g", g_arg])
    argvs.append(["invariance", "--f", workloads._chain(24)[0],
                  "--g", workloads._sum(24)[0], "--samples", "10000"])

    def pm1_terms(first):
        terms = [first]
        for _ in range(6):
            size = rng.integers(1, 4)
            variables = sorted(rng.choice(np.arange(9, 25), size, replace=False))
            terms += ["-" if rng.integers(2) else "+",
                      "*".join(f"x{v}" for v in variables)]
        return " ".join(terms)

    f, g = pm1_terms("-1"), pm1_terms("x17*x24")
    argvs += [["analyze", "--f", f], ["lemmas", "--f", f, "--g", g],
              ["invariance", "--f", f, "--g", g, "--samples", "10000"],
              ["commute", "--f", f, "--g", g], ["channel", "--f", f, "--g", g]]
    a, b, c = rng.choice(23, 3, replace=False) + 1
    f, g = f"x{a}*x24", f"-x{b}*x{c}"
    argvs += [["lemmas", "--f", f, "--g", g],
              ["invariance", "--f", f, "--g", g, "--samples", "10000"],
              ["commute", "--f", f, "--g", g], ["channel", "--f", f, "--g", g]]
    f_arg, g_arg = (workloads._write_table(
        os.path.join(directory, f"decimal14_{side}.csv"), values, "csv")
        for side, values in zip("fg", np.round(rng.standard_normal((2, 1 << 14)), 3)))
    argvs += [["analyze", "--f", f_arg], ["commute", "--f", f_arg, "--g", g_arg]]

    def write_csv(name, rows, newline="\n"):
        path = os.path.join(directory, f"{name}.csv")
        n = len(rows).bit_length() - 1
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(newline.join([f"# n={n}", "index,value", *rows, ""]))
        return "@" + path

    pair = (rng.integers(-4, 5, (2, 1 << 14)) / 4.0).tolist()
    in_order = range(1 << 14)
    variants = {"crlf": ("{},{!r}", "\r\n", in_order),
                "cr": ("{},{!r}", "\r", in_order),
                "spaced": ("{}, {!r}", "\n", in_order),
                "permuted": ("{},{!r}", "\n", rng.permutation(1 << 14).tolist())}
    for name, (row, newline, indices) in variants.items():
        f_arg, g_arg = (write_csv(f"{name}14_{side}",
                                  [row.format(i, values[i]) for i in indices], newline)
                        for side, values in zip("fg", pair))
        argvs += [["analyze", "--f", f_arg], ["channel", "--f", f_arg, "--g", g_arg]]
    argvs += [["analyze", "--f", write_csv("points1", ["+1,0.75", "-1,-0.25"])],
              ["analyze", "--f", write_csv("exponent1", ["0,1e0005", "1,2"])]]
    argvs += [["invariance", *more] for more in (
        ["--f", "1/3", "--psi", "identity", "--samples", "1000000"],
        ["--f", "1/3", "--samples", "1000"],
        ["--f", "0.7", "--psi", "sin", "--samples", "100000"],
        ["--f", "-0.7", "--psi", "quartic", "--C", "0", "--samples", "300000"],
        ["--f", "1", "--g", "-1", "--samples", "1000"],
        ["--f", "x1*x2", "--psi", "quartic", "--C", "0", "--samples", "100000"])]
    for f, g in (("1/4*x1 + 1/4*x2", "3/2*x2 - 1/2*x1*x3"),  # only Var[g] > 1/4
                 ("x1*x2", "1/4*x1 + 1/4*x3")):  # only g is not ±1
        argvs += [[command, "--f", f, "--g", g, *more] for command, more in
                  (("lemmas", []), ("channel", []),
                   ("invariance", ["--samples", "10000"]))]
    # the canonical text of a dense table: terms by (subset size, mask)
    coeffs = oracle.fwht(rng.integers(-8, 9, 1 << 12) / 4) / (1 << 12)
    terms = [workloads.expression({mask: Fraction(value)})
             for mask, value in sorted(enumerate(coeffs.tolist()),
                                       key=lambda term: (term[0].bit_count(), term[0]))
             if value]
    dense = terms[0] + "".join(f" - {term[1:]}" if term[0] == "-" else f" + {term}"
                               for term in terms[1:])
    for name, text in (("entry1.json", '{"n": 1, "values": [{"a": 1}, 1]}'),
                       ("deep330.txt", "(" * 330 + "x1" + ")" * 330 + "\n"),
                       ("dense12.txt", dense),
                       ("string1.json", '{"n": 1, "values": ["0.5", true]}'),
                       ("null1.json", '{"n": 1, "values": [0.5, null]}'),
                       ("wide1.json", '{"n": 1, "values": [1e200, -1e200]}'),
                       ("ntrue.json", '{"n": true, "values": [1, -1]}')):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argvs.append(["analyze", "--f", "@" + path])
    argvs += [["analyze", "--f", text] for text in ("x1 x2 $", "x30 + $", "x1 + * y")]
    argvs.append(["lemmas", "--f", "x1", "--g", "1e154*x1"])
    wide = "@" + os.path.join(directory, "wide1.json")
    argvs += [["lemmas", "--f", "x1", "--g", wide],
              ["invariance", "--f", wide, "--samples", "2000"],
              ["invariance", "--f", wide, "--g", "x1", "--samples", "2000"],
              ["channel", "--f", wide, "--g", "x1"], ["commute", "--f", wide, "--g", "x1"]]
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(tree) for tree in (args.old_src, args.new_src)]

    differences = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in (*workloads.WORKLOADS, "extra", "extra_1core"):
            directory = os.path.join(tmp, name)
            os.mkdir(directory)
            if name.startswith("extra"):
                requests = extra(args.seed, directory)
            else:
                requests = [workloads.argv_for(request, args.seed, 0, index)
                            for index, request in enumerate(
                                workloads.build(name, args.seed, directory))]
            argvs = [[*request, "--format", fmt]
                     for request in requests for fmt in FORMATS]
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(argvs, handle)
            (old_peak, old_at, old), (new_peak, new_at, new) = (
                answers(tree, path, name == "extra_1core") for tree in trees)
            found = 0
            for index, (argv, a, b) in enumerate(zip(argvs, old, new)):
                for field, x, y in zip(FIELDS, a, b):  # not the peak RSS so far
                    if x != y:
                        found += 1
                        print(f"{name}[{index // len(FORMATS)}] {argv[0]} "
                              f"{argv[-1]}: {field} differs: {x!r} != {y!r}")
            differences += found
            total += len(requests)
            at = [f"{name}[{i // len(FORMATS)}] {argvs[i][0]}" for i in (old_at, new_at)]
            print(f"{name}: {len(requests)} requests answered by both trees "
                  f"in {len(FORMATS)} formats, {found} differences; "
                  f"peak RSS {old_peak:.1f} MB (old, reached at {at[0]}), "
                  f"{new_peak:.1f} MB (new, reached at {at[1]})")
    print(f"{differences} differences in {total} requests")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
