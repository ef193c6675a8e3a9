"""Byte-for-byte comparison of CLI stdout against frozen outputs.

Each case runs ``compwiretap.cli.main`` on fixed arguments and compares
its exit code and stdout with ``tests/golden/<case>.out``.  The inputs
are the README examples and the table files next to the outputs: a ±1
pair at n=8 (``pm8_f.json``, ``pm8_g.csv``) and a real-valued table at
n=6 (``real6.csv``), dense real-valued tables at n=10 (``real10.csv``,
whose eighths give coefficients exact in any addition order, and
``real10d.csv``, whose 3-decimal values make every coefficient, influence
and variance sum round in its last bits), and an n=4 table written in every value form the
table reader takes (``mixed4.csv``).  A change to any answer shows up
as a diff here.

Existing outputs are frozen.  To write the output of a new case (one
whose file is missing) and list every case whose bytes differ::

    PYTHONPATH=src python tests/test_golden.py

It writes no existing file, and exits 1 when any case differs.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from compwiretap.cli import main

GOLDEN = Path(__file__).parent / "golden"

MAJ3 = "1/2*(x1 + x2 + x3 - x1*x2*x3)"
ZCHAN_F = "x1*x2*x3"
ZCHAN_G = "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)"
PM8_F = f"@{GOLDEN / 'pm8_f.json'}"
PM8_G = f"@{GOLDEN / 'pm8_g.csv'}"
REAL6 = f"@{GOLDEN / 'real6.csv'}"
REAL10 = f"@{GOLDEN / 'real10.csv'}"
REAL10D = f"@{GOLDEN / 'real10d.csv'}"
MIXED4 = f"@{GOLDEN / 'mixed4.csv'}"
SAMPLES = ["--samples", "10000"]

# case name -> (argv, exit code)
CASES = {
    "readme_analyze": (["analyze", "--f", MAJ3], 0),
    "readme_analyze_pretty": (["analyze", "--f", MAJ3, "--format", "pretty"], 0),
    "readme_channel": (["channel", "--f", ZCHAN_F, "--g", ZCHAN_G], 0),
    "readme_channel_pretty": (
        ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G, "--format", "pretty"], 0),
    "readme_commute": (["commute", "--f", "x1 + 2*x2 + 4*x3", "--g", "x1*x2"], 0),
    "readme_invariance": (
        ["invariance", "--f", MAJ3, "--psi", "cos", "--seed", "0", *SAMPLES], 0),
    "readme_lemmas": (
        ["lemmas", "--f", "1/8*(x1*x2 + x2*x3)", "--g", "1/8*(x1 + x2 + x3)"], 0),
    "readme_moments": (["moments", "--dist", "gaussian", "--samples", "100000"], 0),
    "readme_moments_rademacher": (
        ["moments", "--dist", "rademacher", "--samples", "100000", "--seed", "4"], 0),
    # every sample is ±2, so the cubes and fourth powers pin the bits of
    # numpy's pow on negative bases; an odd count leaves a partial tail
    "readme_moments_pm2": (
        ["moments", "--dist", "uniform_pm2", "--samples", "123457", "--seed", "7"], 0),
    # pretty output follows each report's key order; csv flattens lists
    "readme_moments_pretty": (
        ["moments", "--dist", "gaussian", "--samples", "100000",
         "--format", "pretty"], 0),
    "readme_invariance_pretty": (
        ["invariance", "--f", MAJ3, "--psi", "cos", "--seed", "0", *SAMPLES,
         "--format", "pretty"], 0),
    "readme_lemmas_pretty": (
        ["lemmas", "--f", "1/8*(x1*x2 + x2*x3)", "--g", "1/8*(x1 + x2 + x3)",
         "--format", "pretty"], 0),
    "readme_commute_csv": (
        ["commute", "--f", "x1 + 2*x2 + 4*x3", "--g", "x1*x2", "--format", "csv"], 0),
    "pm8_analyze_f": (["analyze", "--f", PM8_F], 0),
    "pm8_analyze_g": (["analyze", "--f", PM8_G], 0),
    "pm8_channel": (["channel", "--f", PM8_F, "--g", PM8_G], 0),
    "pm8_commute": (["commute", "--f", PM8_F, "--g", PM8_G], 0),
    "pm8_commute_csv": (
        ["commute", "--f", PM8_F, "--g", PM8_G, "--format", "csv"], 0),
    "pm8_lemmas": (["lemmas", "--f", PM8_F, "--g", PM8_G], 0),
    "pm8_lemmas_csv": (["lemmas", "--f", PM8_F, "--g", PM8_G, "--format", "csv"], 0),
    "pm8_invariance": (
        ["invariance", "--f", PM8_F, "--g", PM8_G, "--psi", "sin",
         "--seed", "1", *SAMPLES], 0),
    "pm8_invariance_pretty": (
        ["invariance", "--f", PM8_F, "--g", PM8_G, "--psi", "sin",
         "--seed", "1", *SAMPLES, "--format", "pretty"], 0),
    "real6_analyze": (["analyze", "--f", REAL6], 0),
    # the terms cells hold each term dict's repr, frozen as is
    "real6_analyze_csv": (["analyze", "--f", REAL6, "--format", "csv"], 0),
    "real6_invariance": (
        ["invariance", "--f", REAL6, "--psi", "quartic", "--seed", "2", *SAMPLES], 0),
    "real6_channel_lifted": (["channel", "--f", REAL6, "--g", "x1*x7"], 0),
    "real6_invariance_additive": (
        ["invariance", "--f", REAL6, "--g", "1/8*(x1 + x8)", "--psi", "cos",
         "--seed", "3", *SAMPLES], 0),
    # 1020 terms up to degree 10: the deepest monomial chains, evaluated
    # across a whole chunk and a partial one
    "real10_invariance": (
        ["invariance", "--f", REAL10, "--psi", "quartic", "--seed", "3",
         "--samples", "100000"], 0),
    # inexact dense coefficients: addition order and float formatting
    # show in the last digits of the coefficients, influences and sums
    "real10d_analyze": (["analyze", "--f", REAL10D], 0),
    "real10d_analyze_pretty": (
        ["analyze", "--f", REAL10D, "--format", "pretty"], 0),
    "real10d_lemmas": (["lemmas", "--f", REAL10D, "--g", "1/8*(x1 + x10)"], 0),
    "real10d_channel": (["channel", "--f", REAL10D, "--g", "1/8*(x1 + x10)"], 0),
    # exponents, leading signs, a/b values and blank lines in one table
    "mixed4_analyze": (["analyze", "--f", MIXED4], 0),
    "mixed4_channel": (["channel", "--f", MIXED4, "--g", "1/2*(x1 + x2*x3)"], 0),
    # an exact product of 1024 by 1024 terms: over the pair cap, refused
    "product20_analyze_refused": (
        ["analyze", "--f",
         "((1+x1)*(1+x2)*(1+x3)*(1+x4)*(1+x5)*(1+x6)*(1+x7)*(1+x8)*(1+x9)*(1+x10))"
         "*((1+x11)*(1+x12)*(1+x13)*(1+x14)*(1+x15)*(1+x16)*(1+x17)*(1+x18)*(1+x19)*(1+x20))"],
        1),
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    argv, expected_code = CASES[name]
    code, stdout = run_case(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_refresh_writes_only_missing_outputs(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", tmp_path)
    monkeypatch.setattr(module, "CASES", {"maj3": CASES["readme_analyze"]})
    assert refresh() == 0
    path = tmp_path / "maj3.out"
    assert path.read_text(encoding="utf-8") == run_case(CASES["maj3"][0])[1]
    path.write_text("stale\n", encoding="utf-8")
    assert refresh() == 1
    assert path.read_text(encoding="utf-8") == "stale\n"
    assert capsys.readouterr().out == "wrote maj3.out\ndiffers: maj3\n"


def refresh() -> int:
    """Write the output of every case whose file is missing; list the
    cases whose bytes differ from their file, and return 1 if any do."""
    differ = []
    for case, (case_argv, _) in sorted(CASES.items()):
        path = GOLDEN / f"{case}.out"
        _, text = run_case(case_argv)
        if not path.exists():
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.name}")
        elif path.read_text(encoding="utf-8") != text:
            differ.append(case)
    for case in differ:
        print(f"differs: {case}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(refresh())
