import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compwiretap import boolfn, channels, cli, funcdsl, invariance
from compwiretap.cli import main
from helpers import PRODUCT_20, eval_poly_at, reference_looks_like_table

GOLDEN = Path(__file__).parent / "golden"

MAJ3 = "1/2*(x1 + x2 + x3 - x1*x2*x3)"
ZCHAN_F = "x1*x2*x3"
ZCHAN_G = "1/4*(1 - x1 - x2 - x3 + x1*x2 + x1*x3 + x2*x3 + 3*x1*x2*x3)"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_maj3(capsys):
    code, report = run_json(capsys, ["analyze", "--f", MAJ3])
    assert code == 0
    assert report["influences"] == [0.5, 0.5, 0.5]
    assert report["variance"] == 1.0
    assert report["boolean_valued"] is True
    assert report["terms"][0]["exact"] == "1/2"


def test_analyze_zero(capsys):
    code, report = run_json(capsys, ["analyze", "--f", "0", "--n", "2"])
    assert code == 0
    assert report["variance"] == 0.0
    assert report["influences"] == [0.0, 0.0]
    assert report["expression"] == "0"


def test_analyze_zchannel_g(capsys):
    code, report = run_json(capsys, ["analyze", "--f", ZCHAN_G])
    assert code == 0
    assert report["degree"] == 3
    assert report["term_count"] == 8


def test_analyze_table_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("# n=1\nindex,value\n0,1\n1,-1\n")
    code, report = run_json(capsys, ["analyze", "--f", f"@{path}"])
    assert code == 0
    assert report["expression"] == "x1"


def test_analyze_poly_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text(MAJ3 + "\n")
    code, report = run_json(capsys, ["analyze", "--f", f"@{path}"])
    assert code == 0
    assert report["term_count"] == 4


# ---------------------------------------------------------------------------
# channel / commute
# ---------------------------------------------------------------------------

def test_channel_zchannel(capsys):
    code, report = run_json(
        capsys, ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0
    post = report["posterior"]
    v = post["inputs"].index(-1.0)
    assert post["matrix"][v][post["outputs"].index(1.0)] == 0.25
    assert post["matrix"][v][post["outputs"].index(-1.0)] == 0.75
    assert report["success_probability"] == 0.875
    bac = report["multiplicative"]["bac"]
    assert bac["flip_one_to_minus"] == 0.25
    assert bac["flip_minus_to_one"] == 0.0


def test_channel_identical_functions(capsys):
    code, report = run_json(capsys, ["channel", "--f", "x1", "--g", "x1"])
    assert code == 0
    assert report["success_probability"] == 1.0


def test_channel_chain_additive_histogram(capsys):
    f = "1/4*(x1*x2 + x2*x3 + x3*x4)"
    g = "1/4*(x1 + x2 + x3 + x4)"
    code, report = run_json(capsys, ["channel", "--f", f, "--g", g])
    assert code == 0
    additive = report["additive"]
    assert abs(sum(additive["noise_probs"]) - 1.0) <= 1e-12
    assert len(additive["noise_values"]) > 1
    assert report["multiplicative"]["applicable"] is False


def test_commute_cases(capsys):
    code, report = run_json(
        capsys, ["commute", "--f", "x1 + 2*x2 + 4*x3", "--g", "x1*x2*x3"])
    assert code == 0 and report["commutes"] is True

    code, report = run_json(capsys, ["commute", "--f", "1", "--g", "x1"])
    assert code == 0 and report["commutes"] is False
    assert report["witness"] is not None

    code, report = run_json(capsys, ["commute", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0 and report["commutes"] is False


def _distinct_table_sources(tmp_path, n, seed):
    """``@file`` sources of two CSV tables of distinct Gaussian values."""
    rng = np.random.default_rng(seed)
    sources = []
    for name in ("f", "g"):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(f"{i},{v!r}\n" for i, v in
                                enumerate(rng.standard_normal(1 << n).tolist())))
        sources.append(f"@{path}")
    return sources


def test_commute_on_distinct_valued_n12_tables_holds_no_dense_joint(
        tmp_path, capsys):
    # 4096 distinct values on each side: a dense |U| x |V| joint would
    # take 256 MiB
    sources = _distinct_table_sources(tmp_path, 12, 12)
    tracemalloc.start()
    try:
        code = main(["commute", "--f", sources[0], "--g", sources[1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commutes"] is True and report["success_probability"] == 1.0
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

def test_invariance_single_maj3(capsys):
    code, report = run_json(capsys, [
        "invariance", "--f", MAJ3, "--samples", "20000"])
    assert code == 0
    assert report["mode"] == "single"
    assert report["bound"] == 91.125
    assert report["passed"] is True


def test_invariance_additive_chain(capsys):
    f = "1/8*(x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x6 + x6*x7 + x7*x8)"
    g = "1/8*(x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8)"
    code, report = run_json(capsys, [
        "invariance", "--f", f, "--g", g, "--samples", "20000"])
    assert code == 0
    assert report["mode"] == "additive"
    assert report["bound"] == 108.0 / 64.0
    assert report["passed"] is True


def test_invariance_multiplicative_zchannel(capsys):
    code, report = run_json(capsys, [
        "invariance", "--f", ZCHAN_F, "--g", ZCHAN_G, "--samples", "20000"])
    assert code == 0
    info = report["bound_info"]
    assert info["literal"] == 24 * 9 ** 9
    assert info["degree_of_product_variant"] == 5832.0
    assert info["literal_exceeds_variant"] is True
    assert "note" in info


def test_invariance_square_zero_bound(capsys):
    code, report = run_json(capsys, [
        "invariance", "--f", "1/4*(x1 + x2)", "--psi", "square",
        "--samples", "20000"])
    assert code == 0
    assert report["bound"] == 0.0
    assert report["passed"] is True


def test_invariance_verdict_failure_exits_3(capsys):
    # forcing C = 0 with psi = cos makes the bound 0 while the true gap
    # for Maj3 is about 0.09, far beyond 4 standard errors
    code, report = run_json(capsys, [
        "invariance", "--f", MAJ3, "--C", "0", "--samples", "50000"])
    assert code == 3
    assert report["passed"] is False


def test_invariance_pair_reports_the_exponent_its_bound_used(capsys):
    # a constant counts as degree 1 in k = k1*k2, in the reported k too
    code, report = run_json(capsys, [
        "invariance", "--f", "1/4", "--g", "1/4*x1", "--samples", "20000"])
    assert code == 0 and report["mode"] == "additive"
    info = report["bound_info"]
    assert info["k"] == 1
    assert report["bound"] == 0.1875
    assert report["bound"] == info["C"] / 3 * info["k"] * 9 ** info["k"] * info["eps"]

    code, report = run_json(capsys, [
        "invariance", "--f", "1", "--g", "x1*x2", "--samples", "20000"])
    assert code == 0 and report["mode"] == "multiplicative"
    info = report["bound_info"]
    k = info["k_factor_degrees"]
    assert k == 2 and info["l"] == 1
    assert info["literal"] == 54.0
    assert info["literal"] == info["C"] / 3 * k * info["l"] * 9 ** k * info["eps"]


def test_invariance_precondition_exits_2(capsys):
    code = main(["invariance", "--f", "2*x1", "--g", "0.3*x2",
                 "--samples", "20000"])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


def _count_calls(monkeypatch, name, modules):
    """Count calls of function ``name`` through every listed module: the
    list returned holds each call's first argument."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_invariance_single_reads_the_values_in_one_strip_pass(monkeypatch, capsys):
    # the exact side reads the values as strips, one pass, and builds no
    # table; the parent built one
    tables = _count_calls(monkeypatch, "inverse_wht", [boolfn])
    passes = _count_calls(monkeypatch, "_value_strips", [boolfn, invariance])
    code, _ = run_json(capsys, [
        "invariance", "--f", MAJ3, "--samples", "2000"])
    assert code == 0
    assert tables == []
    assert passes == [funcdsl.parse_poly(MAJ3)]


def test_invariance_pair_parses_each_source_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.csv"
    path.write_text("# n=2\nindex,value\n0,1\n1,-1\n2,-1\n3,1\n")
    polys = _count_calls(monkeypatch, "parse_poly", [funcdsl])
    tables = _count_calls(monkeypatch, "parse_table", [funcdsl])
    code, report = run_json(capsys, [
        "invariance", "--f", "x1*x2", "--g", f"@{path}", "--samples", "2000"])
    assert code == 0 and report["mode"] == "multiplicative"
    assert len(polys) == 1 and len(tables) == 1


def test_invariance_multiplicative_builds_product_once(monkeypatch, capsys):
    # the ±1 check and the exact expectation read value strips, so no
    # table is built; one product serves both the noise and the
    # degree-of-product variant
    products = _count_calls(monkeypatch, "mul", [boolfn, channels, invariance])
    tables = _count_calls(monkeypatch, "inverse_wht", [boolfn])
    code, report = run_json(capsys, [
        "invariance", "--f", MAJ3, "--g", "x4*x5*x6", "--psi", "sin",
        "--samples", "2000"])
    assert code == 0 and report["mode"] == "multiplicative"
    assert len(products) == 1
    assert tables == []


def test_channel_computes_each_function_once(monkeypatch, capsys):
    # one strip pass over both functions gives the distinct value pairs
    # that the joint, both noise models and the ±1 flags then read; the
    # parent built both tables
    tables = _count_calls(monkeypatch, "inverse_wht", [boolfn])
    passes = []
    original = boolfn._value_strips

    def counted(poly, emit, imag=None):
        passes.append((poly, imag))
        return original(poly, emit, imag)

    for module in (boolfn, channels, invariance):
        monkeypatch.setattr(module, "_value_strips", counted)
    code, report = run_json(capsys, ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0 and report["multiplicative"]["kind"] == "multiplicative"
    f, g = funcdsl.parse_poly(ZCHAN_F), funcdsl.parse_poly(ZCHAN_G)
    assert tables == []
    assert passes == [(f, g)]


def test_channel_builds_one_joint(monkeypatch, capsys):
    joints = _count_calls(monkeypatch, "joint_distribution", [channels])
    code, _ = run_json(capsys, ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0
    assert len(joints) == 1


def test_lemmas_on_expressions_builds_no_table(monkeypatch, capsys):
    # the ±1 precondition is the only value lemmas reads: one strip pass
    # per function and no table; the parent built both tables
    tables = _count_calls(monkeypatch, "inverse_wht", [boolfn])
    passes = _count_calls(monkeypatch, "_value_strips", [boolfn, invariance])
    code, report = run_json(capsys, ["lemmas", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0 and report["checks"][2]["applicable"]
    assert tables == []
    assert passes == [funcdsl.parse_poly(ZCHAN_F), funcdsl.parse_poly(ZCHAN_G)]


def test_invariance_multiplicative_bad_c_exits_1(capsys):
    assert main(["invariance", "--f", ZCHAN_F, "--g", ZCHAN_G,
                 "--C", "-1", "--samples", "2000"]) == 1
    assert capsys.readouterr().err.startswith("error: C must be finite")


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "-1"])
def test_invariance_z_not_finite_and_nonnegative_exits_1(capsys, z):
    assert main(["invariance", "--f", MAJ3, f"--z={z}", "--samples", "2000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: z must be finite and >= 0, got ")


def test_number_over_the_digit_limit_exits_1(capsys):
    assert main(["analyze", "--f", "x" + "1" * 5000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: variable index has more than 4300 digits")
    assert "sys" not in err


def test_invariance_unknown_psi_exits_1(capsys):
    assert main(["invariance", "--f", MAJ3, "--psi", "tan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown test function 'tan'; choices: [")


def test_too_few_samples_exits_2(capsys):
    assert main(["invariance", "--f", MAJ3, "--samples", "500"]) == 2
    capsys.readouterr()
    assert main(["moments", "--dist", "gaussian", "--samples", "5000"]) == 2


# ---------------------------------------------------------------------------
# lemmas / moments
# ---------------------------------------------------------------------------

def test_lemmas_zchannel(capsys):
    code, report = run_json(capsys, ["lemmas", "--f", ZCHAN_F, "--g", ZCHAN_G])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["variance_difference", "influence_difference",
                     "influence_product"]
    assert report["passed"] is True


def test_moments_rademacher(capsys):
    code, report = run_json(capsys, [
        "moments", "--dist", "rademacher", "--samples", "100000"])
    assert code == 0
    assert report["moments"] == [0.0, 1.0, 0.0, 1.0]
    assert report["passed"] is True


def test_moments_gaussian(capsys):
    code, report = run_json(capsys, [
        "moments", "--dist", "gaussian", "--samples", "100000"])
    assert code == 0
    assert report["moments"] == [0.0, 1.0, 0.0, 3.0]


def test_moments_violating(capsys):
    code, report = run_json(capsys, [
        "moments", "--dist", "uniform_pm2", "--samples", "100000"])
    assert code == 0  # a failing hypothesis is reported, not an error
    assert report["passed"] is False


def test_moments_unknown_distribution(capsys):
    assert main(["moments", "--dist", "cauchy"]) == 1


# ---------------------------------------------------------------------------
# I/O behaviour and exit codes
# ---------------------------------------------------------------------------

def test_parse_error_exits_1(capsys):
    assert main(["analyze", "--f", "x0 + 1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["analyze", "--f", "@/no/such/file"]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["analyze"]) == 1  # --f is required
    assert main(["no-such-command"]) == 1


@given(st.lists(st.sampled_from(
    ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028", " ", "\t",
     "#", ",", "{", "x1", "0", "index", "value", "n=2"]), max_size=12).map("".join))
def test_looks_like_table_reads_the_first_non_blank_line_property(text):
    assert cli._looks_like_table(text) == reference_looks_like_table(text)


def test_commute_names_g_chain_when_both_tables_chain(tmp_path, capsys):
    # g's values merge first, as in the joint, so g's chained run is named
    for name, start in (("f", 0.0), ("g", 5.0)):
        rows = "".join(f"{i},{start + i * 0.9e-9!r}\n" for i in range(2048))
        (tmp_path / f"{name}.csv").write_text("# n=11\nindex,value\n" + rows)
    argv = ["commute", "--f", f"@{tmp_path / 'f.csv'}",
            "--g", f"@{tmp_path / 'g.csv'}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: values from 5.0 to ")


def test_table_n_mismatch_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("# n=1\nindex,value\n0,1\n1,-1\n")
    assert main(["analyze", "--f", f"@{path}", "--n", "3"]) == 1


def test_value_beyond_float_range_exits_1(tmp_path, capsys):
    # from a table file, and from an exact expression at its float boundary
    path = tmp_path / "t.csv"
    path.write_text("# n=1\nindex,value\n0,1e999\n1,2\n")
    assert main(["analyze", "--f", f"@{path}"]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: value '1e999' is outside float range\n"
    for argv in (["analyze", "--f", "1e999*x1"],
                 ["channel", "--f", "1e999*x1", "--g", "x1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a value is outside float range")
        assert "Traceback" not in captured.err


def test_product_over_the_pair_cap_exits_1(capsys):
    start = time.perf_counter()
    assert main(["analyze", "--f", PRODUCT_20]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exact product of 1024 by 1024 terms "
                            "exceeds the cap of 65536 term pairs\n")


@pytest.mark.parametrize("name, text", [
    ("expression", "x1000000000"),
    ("table.json", '{"n": 1000000000, "values": [1, -1]}'),
    ("table.csv", "# n=1000000000\nindex,value\n0,1\n1,-1\n"),
])
def test_n_over_the_cap_fails_before_any_allocation(tmp_path, capsys, name, text):
    # 1 << 10**9 alone would be a 125 MB integer
    source = text
    if name != "expression":
        (tmp_path / name).write_text(text)
        source = f"@{tmp_path / name}"
    tracemalloc.start()
    try:
        code = main(["analyze", "--f", source])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        "error: n = 1000000000 exceeds the dense enumeration cap of 24\n")


def test_expression_over_the_parse_pair_cap_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(funcdsl, "_MAX_PARSE_PAIRS", 7)
    assert main(["analyze", "--f", "(1+x1)*(1+x2) + (1+x3)*(1+x4)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exact products of the expression exceed "
                            "the cap of 7 term pairs in all\n")


@pytest.mark.parametrize("exc, detail", [
    (MemoryError("Unable to allocate 745. GiB for an array"),
     " (Unable to allocate 745. GiB for an array)"),
    (MemoryError(), ""),
])
def test_out_of_memory_exits_1(monkeypatch, capsys, exc, detail):
    def allocate(*args):
        raise exc
    monkeypatch.setattr(invariance, "hypothesis_check", allocate)
    assert main(["moments", "--dist", "gaussian",
                 "--samples", "100000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not enough memory for this input{detail}\n"


def test_json_output_is_byte_stable(capsys):
    for argv in (["invariance", "--f", MAJ3, "--samples", "20000"],
                 ["channel", "--f", ZCHAN_F, "--g", ZCHAN_G],
                 ["channel", "--f", "x1 + 1/3*x2", "--g", "x1*x3"]):
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)


def test_channel_over_the_joint_cap_exits_1_at_once(tmp_path, capsys):
    # 4096 x 4096 cells: the dense joint and its channel views, unchecked,
    # run for minutes and need more memory than most hosts have
    f, g = _distinct_table_sources(tmp_path, 12, 12)
    start = time.perf_counter()
    code = main(["channel", "--f", f, "--g", g])
    elapsed = time.perf_counter() - start
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a dense joint of 4096 by 4096 merged values needs 16777216 "
        "cells, more than the cap of 1048576\n")
    assert elapsed < 1.0


def test_channel_under_the_joint_cap_answers(tmp_path, capsys):
    f, g = _distinct_table_sources(tmp_path, 8, 8)
    code, report = run_json(capsys, ["channel", "--f", f, "--g", g])
    assert code == 0
    assert np.shape(report["joint"]["probs"]) == (256, 256)
    assert report["success_probability"] == 1.0


@pytest.mark.parametrize("text, n, expected", [
    ("x1*x17", 17, True),
    ("1/20*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 20)) + ")", 20, False),
    ("x3*x17*x24", 24, True),
])
def test_analyze_above_n16_reports_the_boolean_flag(capsys, text, n, expected):
    code, report = run_json(capsys, ["analyze", "--f", text, "--n", str(n)])
    assert code == 0 and report["n"] == n
    assert report["boolean_valued"] is expected


@pytest.mark.parametrize("text", ["1e308*x1 + 1e308*x2", "1e308*x1 + 1e308*x20"])
def test_analyze_values_beyond_float_range_exit_1(capsys, text):
    assert main(["analyze", "--f", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table values must be finite\n"


OVERFLOW_REQUESTS = [
    *(([command, "--f", f"1e308*x1 + 1e308*x{n}", *(["--g", "x1"] * pair)],
       "error: table values must be finite\n")
      for n in (2, 20) for command, pair in [("analyze", False), ("lemmas", True),
                                             ("channel", True), ("commute", True)]),
    # f - g is 2e308 where x1 = 1 and xn = -1
    *((["channel", "--f", "1e308*x1", f"--g=-1e308*x{n}"],
       "error: additive noise values f - g must be finite\n") for n in (2, 20)),
    # psi of values beyond float range: invariance refuses a side that is
    # not finite, where it used to print NaN or Infinity and exit 3
    *((["invariance", "--f", f, "--psi", psi, "--samples", samples, *more],
       f"error: the {side} is not finite: {value}\n")
      for f, psi, samples, more, side, value in [
          ("1e60*x1", "quartic", "1000", [],
           "standard error of the Gaussian estimate", "nan"),
          ("1e78*x1", "quartic", "1000", ["--C", "0"],
           "exact side E[psi(F(x))]", "inf"),
          ("1e100*x1", "square", "70000", [],
           "standard error of the Gaussian estimate", "nan"),
          ("1e153*x1", "square", "70000", [],
           "Gaussian estimate of E[psi(F(g))]", "inf"),
          # psi runs on the butterfly's workers
          ("1e78*x17", "quartic", "1000", ["--C", "0"],
           "exact side E[psi(F(x))]", "inf")]),
]


@pytest.mark.parametrize("argv, err", OVERFLOW_REQUESTS,
                         ids=[" ".join(argv) for argv, _ in OVERFLOW_REQUESTS])
def test_values_beyond_float_range_print_one_error_line(argv, err):
    # in a process of its own, since pytest diverts the warnings that
    # numpy would print on stderr
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "compwiretap.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", err)


def _analyze_file_in_a_process(path: Path, text: str):
    # the recursion limit counts the frames of pytest in process
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "compwiretap.cli", "analyze",
                           "--f", f"@{path}"],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, text, err", [
    ("entry.json", '{"n": 1, "values": [{"a": 1}, 1]}',
     r"error: 'values' entry 0 is not a number, got \{'a': 1\}\n"),
    ("entry2.json", '{"n": 2, "values": [1, -1, {"a": 1}, 1]}',
     r"error: 'values' entry 2 is not a number, got \{'a': 1\}\n"),
    # 663 bytes; 200 and 300 levels answer
    ("deep330.txt", "(" * 330 + "x1" + ")" * 330 + "\n",
     r"error: expression nests too deeply \(at position \d+\)\n"),
])
def test_malformed_inputs_print_one_error_line(tmp_path, name, text, err):
    # where a TypeError or a RecursionError ended in a traceback
    done = _analyze_file_in_a_process(tmp_path / name, text)
    assert (done.returncode, done.stdout) == (1, "")
    assert re.fullmatch(err, done.stderr), done.stderr


@pytest.mark.parametrize("depth", [200, 300])
def test_deeply_nested_expressions_still_answer(tmp_path, depth):
    done = _analyze_file_in_a_process(
        tmp_path / "deep.txt", "(" * depth + "x1" + ")" * depth + "\n")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["expression"] == "x1"


#: Requests whose exact side and estimate differ by rounding alone, which
#: exited 3, and one real gap (delta 8.49, stderr 0.35), which still does.
VERDICT_REQUESTS = [
    (["--f", "1/3", "--psi", "identity", "--samples", "1000000"], 0),
    (["--f", "1/3", "--samples", "1000"], 0),
    (["--f", "0.7", "--psi", "sin", "--samples", "100000"], 0),
    (["--f", "-0.7", "--psi", "quartic", "--C", "0", "--samples", "300000"], 0),
    (["--f", "1", "--g", "-1", "--samples", "1000"], 0),
    (["--f", "x1*x2", "--psi", "quartic", "--C", "0", "--samples", "100000"], 3),
]


@pytest.mark.parametrize("argv, code", VERDICT_REQUESTS,
                         ids=[" ".join(argv) for argv, _ in VERDICT_REQUESTS])
def test_rounding_alone_does_not_flip_the_verdict(capsys, argv, code):
    got, report = run_json(capsys, ["invariance", *argv])
    assert (got, report["passed"]) == (code, code == 0)
    if code == 0:  # a constant target: the two sides differ in last bits
        assert 0 < report["delta"] < 1e-15 and report["bound"] == 0.0


def test_analyze_n24_holds_no_dense_table(capsys):
    # the 128 MiB dense table and the ±1 check's temporaries on it, built
    # for the boolean_valued flag alone, peaked at 384 MiB
    chain = "1/24*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 24)) + ")"
    tracemalloc.start()
    try:
        code = main(["analyze", "--f", chain])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 24 and report["boolean_valued"] is False
    assert peak < 16 << 20


def test_invariance_pair_that_is_not_pm1_holds_no_dense_table(capsys):
    # neither the 1/24 chain nor the 1/24 sum is ±1, so the additive bound
    # needs no table; the pair's two n=24 tables and the ±1 check's
    # temporaries on them peaked at 512 MiB
    chain = "1/24*(" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, 24)) + ")"
    total = "1/24*(" + " + ".join(f"x{i}" for i in range(1, 25)) + ")"
    tracemalloc.start()
    try:
        code = main(["invariance", "--f", chain, "--g", total, "--samples", "10000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 24 and report["mode"] == "additive"
    assert peak < 32 << 20


#: An n=24 pair whose functions are not ±1, with few terms each.
SPARSE24_F = "-1 + x9*x12*x14 + x10*x19 - x19*x20*x23 - x24 + x16*x21 + x20"
SPARSE24_G = "x17*x24 + x24 + x12*x15 + x20*x23 - x14*x19 - x20 - x14"


@pytest.mark.parametrize("argv, applicable", [
    (["lemmas", "--f", SPARSE24_F, "--g", SPARSE24_G], False),
    (["lemmas", "--f", "x1*x24", "--g", "x2*x23"], True),
    (["invariance", "--f", "x1*x24", "--g", "x2*x23", "--samples", "10000"], True),
    *(([command, "--f", f, "--g", g], pm1) for command in ("commute", "channel")
      for f, g, pm1 in [(SPARSE24_F, SPARSE24_G, False), ("x1*x24", "x2*x23", True)]),
])
def test_pair_answer_at_max_n_holds_no_dense_table(capsys, argv, applicable):
    # lemmas and invariance read no table value but the ±1 flags (and the
    # exact side of the product, by strips); building the pair's two
    # 128 MiB tables for the flags peaked at 512 MiB.  commute and channel
    # read the distinct value pairs of one strip pass, where the pair's
    # two tables and the walks over them peaked above 1 GB
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 24
    if argv[0] == "lemmas":
        assert report["checks"][2]["applicable"] is applicable
    elif argv[0] == "invariance":
        assert report["mode"] == "multiplicative"
    elif argv[0] == "channel":
        assert ("kind" in report["multiplicative"]) is applicable
    else:  # a witness: one f-value, two g-values
        f, g = (funcdsl.parse_poly(argv[i], 24).coeffs for i in (2, 4))
        x0, x1 = report["witness"]
        assert eval_poly_at(f, x0) == eval_poly_at(f, x1)
        assert eval_poly_at(g, x0) != eval_poly_at(g, x1)
    assert peak < (16 << 20 if argv[0] in ("lemmas", "invariance") else 128 << 20)


@pytest.mark.parametrize("f, g, mode", [
    ("x1*x17", "x2*x17", "multiplicative"),
    ("1", "1/4*x2*x17", "additive"),  # a ±1 constant, lifted to n = 17
    ("1/4*(x1 + x17)", "-1", "additive"),
    ("1/4*(x1 + x17)", "1/4*x2*x17", "additive"),
])
def test_invariance_pair_above_n16_takes_the_mode_of_its_pm1_flags(capsys, f, g, mode):
    code, report = run_json(capsys, [
        "invariance", "--f", f, "--g", g, "--samples", "2000"])
    assert code == 0 and report["n"] == 17
    assert report["mode"] == mode


def test_invariance_pm1_pair_above_n16_reads_each_function_once(
        monkeypatch, capsys):
    # both ±1 flags come from their polynomials and the exact side from
    # the product's: one strip pass per function and no table.  The
    # parent read f's flag from its polynomial and built both tables
    flags = _count_calls(monkeypatch, "is_boolean_function", [boolfn, channels])
    tables = _count_calls(monkeypatch, "inverse_wht", [boolfn])
    passes = _count_calls(monkeypatch, "_value_strips", [boolfn, invariance])
    code, report = run_json(capsys, [
        "invariance", "--f", "x1*x17", "--g", "x2*x17", "--samples", "2000"])
    assert code == 0 and report["mode"] == "multiplicative"
    f, g, product = (funcdsl.parse_poly(text, 17)
                     for text in ("x1*x17", "x2*x17", "x1*x2"))
    assert flags == [f, g]
    assert tables == []
    assert passes == [f, g, product]


def test_channel_chained_values_exit_1(tmp_path, capsys):
    # 0, 0.8e-9 and 1.6e-9 sit within the tolerance of their neighbours
    # but span more than it, so they cannot be read as one symbol
    path = tmp_path / "chain.csv"
    path.write_text("# n=2\nindex,value\n0,0\n1,0.0000000008\n"
                    "2,0.0000000016\n3,1\n")
    assert main(["channel", "--f", f"@{path}", "--g", "x1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: values from 0.0 to 1.6e-09 chain into one symbol spanning "
        "1.6e-09, more than the merge tolerance 1e-09\n")


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["analyze", "--f", MAJ3, "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(path.read_text())["variance"] == 1.0


def test_csv_format(capsys):
    code = main(["analyze", "--f", MAJ3, "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "variance,1.0" in out
    assert "influences,0.5,0.5,0.5" in out


def test_csv_format_matrix(capsys):
    code = main(["channel", "--f", "x1", "--g", "x1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "classic.matrix,rows,2,cols,2" in out
    assert "classic.matrix[0],1.0,0.0" in out


def test_pretty_format(capsys):
    code = main(["analyze", "--f", MAJ3, "--format", "pretty"])
    assert code == 0
    out = capsys.readouterr().out
    assert "variance: 1.0" in out


def _zchannel_spec():
    return channels.WiretapSpec.from_polys(
        funcdsl.parse_poly(ZCHAN_F), funcdsl.parse_poly(ZCHAN_G))


@pytest.fixture(scope="module")
def reports():
    """One report of each class the CLI renders, from the z-channel pair."""
    spec = _zchannel_spec()
    joint = channels.joint_distribution(spec)
    lemmas = invariance.lemma_suite(spec)
    return {
        "joint": joint,
        "classic": channels.classic_channel(joint),
        "posterior": channels.posterior_channel(joint),
        "commutes": channels.commutes(spec),
        "commutes_witness": channels.commutes(
            channels.WiretapSpec.from_polys(
                funcdsl.parse_poly("x1"), funcdsl.parse_poly("x1*x2"))),
        "moments": invariance.hypothesis_check(
            invariance.DISTRIBUTIONS["gaussian"], 10_000),
        "invariance": invariance.verify_invariance(
            funcdsl.parse_poly(MAJ3), "cos", 91.125, samples=1000),
        "lemma_check": lemmas.checks[0],
        "lemma_suite": lemmas,
    }


@pytest.mark.parametrize("name", [
    "classic", "commutes", "commutes_witness", "invariance", "joint",
    "lemma_check", "lemma_suite", "moments", "posterior"])
def test_report_keys_are_field_names(reports, name):
    # pretty output follows key order, so keys must follow field order
    report = reports[name]
    out = report.to_dict()
    assert list(out) == [f.name for f in dataclasses.fields(report)]
    json.dumps(out)  # plain values only


def test_noise_model_keys():
    spec = _zchannel_spec()
    common = ["kind", "noise_values", "noise_probs", "u_values",
              "joint_u_noise", "reconstruction_max_error"]
    assert list(channels.additive_noise(spec).to_dict()) == common
    out = channels.multiplicative_noise(spec).to_dict()
    assert list(out) == common + ["bac"]
    assert list(out["bac"]) == ["flip_one_to_minus", "flip_minus_to_one"]
    json.dumps(out)


def test_mixed_n_functions_lift(capsys):
    code, report = run_json(capsys, ["channel", "--f", "x1", "--g", "x2"])
    assert code == 0
    assert report["n"] == 2
    assert report["success_probability"] == 0.5


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def test_main_answers_without_building_a_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("parser built per answer")
    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert main(["analyze", "--f", MAJ3]) == 0
    expected = (GOLDEN / "readme_analyze.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_answers_in_one_process_match_fresh_processes(capsys):
    # each answer in turn in this process, against the same request in a
    # process of its own: no flag or default carries over to the next
    requests = [
        ["invariance", "--f", MAJ3, "--samples", "10000", "--seed", "5", "--z", "9"],
        ["invariance", "--f", MAJ3, "--samples", "10000"],
        ["analyze", "--f", MAJ3],
        ["moments", "--dist", "gaussian", "--samples", "10000"],
        ["commute", "--f", ZCHAN_F],
        ["commute", "--f", ZCHAN_F, "--g", ZCHAN_G],
    ]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    answers = []
    for argv in requests:
        code = main(argv)
        captured = capsys.readouterr()
        answers.append((code, captured.out, captured.err))
        fresh = subprocess.run([sys.executable, "-m", "compwiretap.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert answers[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in answers] == [0, 0, 0, 0, 1, 0]
    first, second = (json.loads(out) for _, out, _ in answers[:2])
    assert (first["seed"], first["z"]) == (5, 9.0)
    assert (second["seed"], second["z"]) == (0, 4.0)


HELP_COMMANDS = ["", "analyze", "channel", "commute", "invariance", "lemmas",
                 "moments"]


@pytest.mark.parametrize("columns", [80, 132])
@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_matches_golden(command, columns, monkeypatch, capsys):
    # help is laid out when asked for, at the width of that moment
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    name = f"help_{command or 'top'}_{columns}.out"
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
