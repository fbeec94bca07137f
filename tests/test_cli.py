import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eulerprod import experiments, product, sieve
from eulerprod.cli import CSV_HEADER, _fmt, _truncation, build_parser, main
from eulerprod.primes import DEFAULT_MAX_LIMIT

HEADER_COLUMNS = CSV_HEADER.split(",")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out: str) -> list[dict]:
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    return [dict(zip(HEADER_COLUMNS, line.split(","))) for line in lines[1:]]


def test_mertens_row(capsys):
    code, out, _ = run_cli(capsys, "mertens", "--x", "10")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["re_value"]) - 1.0667945554233962) < 1e-12
    assert rows[0]["re_ref"] == "1"
    assert rows[0]["x"] == "10"


def test_e1_branch_row(capsys):
    code, out, _ = run_cli(capsys, "e1", "--re", "-1", "--im", "0")
    assert code == 0
    row = parse_rows(out)[0]
    assert abs(float(row["im_value"]) + math.pi) < 1e-12
    assert row["flags"] == "on-cut"
    assert row["x"] == ""
    assert row["re_ref"] == ""


def test_e1_below_cut(capsys):
    code, out, _ = run_cli(capsys, "e1", "--re", "-1", "--cut", "below")
    row = parse_rows(out)[0]
    assert abs(float(row["im_value"]) - math.pi) < 1e-12


def test_eval_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "--sigma", "2", "--t", "0", "--x", "10000")
    assert code == 0
    row = parse_rows(out)[0]
    assert abs(float(row["re_value"]) - math.pi**2 / 6) < 1e-3
    assert float(row["abs_err"]) < 1e-3
    assert row["flags"] == ""


def test_scan_real_excludes_pole_guard(capsys):
    code, out, _ = run_cli(
        capsys, "scan-real", "--s-min", "0.9", "--s-max", "1.1",
        "--step", "0.05", "--x", "100",
    )
    assert code == 0
    sigmas = [float(r["sigma"]) for r in parse_rows(out)]
    assert sigmas == pytest.approx([0.9, 0.95, 1.05, 1.1])


def test_scan_line_on_cut_flag(capsys):
    code, out, _ = run_cli(
        capsys, "scan-line", "--sigma", "0.7", "--t-max", "1",
        "--step", "0.5", "--x", "100",
    )
    rows = parse_rows(out)
    assert rows[0]["flags"] == "on-cut"
    assert rows[1]["flags"] == ""


def test_values_round_trip_17_digits(capsys):
    _, out, _ = run_cli(capsys, "eval", "--sigma", "1.3", "--t", "2.7", "--x", "1000")
    row = parse_rows(out)[0]
    value = complex(float(row["re_value"]), float(row["im_value"]))
    _, out2, _ = run_cli(capsys, "eval", "--sigma", "1.3", "--t", "2.7", "--x", "1000")
    row2 = parse_rows(out2)[0]
    assert complex(float(row2["re_value"]), float(row2["im_value"])) == value


def test_output_file_byte_identical(tmp_path, capsys):
    args = ["scan-line", "--sigma", "0.8", "--t-max", "10", "--step", "0.1",
            "--x", "1000"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    data = path_a.read_bytes()
    assert data == path_b.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_decay_rows_and_fit_summary(capsys):
    code, out, err = run_cli(
        capsys, "decay", "--sigma", "0.75", "--t", "5",
        "--x-grid", "100,1000,10000,100000",
    )
    assert code == 0
    rows = parse_rows(out)
    assert [int(r["x"]) for r in rows] == [100, 1000, 10000, 100000]
    assert "decay fit: slope=" in err
    assert "target=-0.250000" in err


def test_decay_sums_every_x_in_one_kernel_pass(capsys, monkeypatch):
    # One pass of the prime kernel over the table sieved to the largest x
    # sums every x's prefix of it: pi(x) terms for each x, the largest the
    # deepest table's count.  Each x still gets one row.
    passes = []
    original = product._prime_sums

    def counting(counts, rows, terms):
        passes.append(list(counts))
        return original(counts, rows, terms)

    monkeypatch.setattr(product, "_prime_sums", counting)
    x_grid = [100, 1000, 10000, 100000]
    code, out, _ = run_cli(capsys, "decay", "--sigma", "0.75", "--t", "5",
                           "--x-grid", ",".join(map(str, x_grid)))
    assert code == 0
    assert [int(row["x"]) for row in parse_rows(out)] == x_grid
    assert passes == [[25, 168, 1229, 9592]]
    assert passes[0][-1] == sieve(x_grid[-1]).count


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "scan-real", "--s-min", "2", "--s-max", "1",
                           "--step", "0.1")
    assert code == 2
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "decay", "--sigma", "0.75", "--x-grid", "10,20")
    assert code == 2


@pytest.mark.parametrize("sigma", ["0.5", "0.3"])
def test_decay_left_of_the_strip_is_a_usage_error(capsys, sigma):
    # Re(s) <= 1/2 is refused before sieving, like a bad grid: a bad flag,
    # not a failed computation.
    code, out, err = run_cli(capsys, "decay", "--sigma", sigma)
    assert code == 2
    assert out == ""
    assert err.startswith("eulerprod: usage error:") and "Re(s) > 1/2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sigma", "0.7"],
        ["scan-real", "--s-min", "0.6", "--s-max", "0.7", "--step", "0.1"],
        ["scan-line", "--sigma", "0.8", "--t-max", "1", "--step", "1"],
        ["decay", "--sigma", "0.75"],
    ],
    ids=["eval", "scan-real", "scan-line", "decay"],
)
def test_products_take_no_branch_side(capsys, argv):
    # exp(E1) is the same on both sides of the cut, so only e1 has --cut.
    with pytest.raises(SystemExit) as info:
        main([*argv, "--cut", "below"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_decay_at_the_pole_is_refused_before_sieving(capsys, monkeypatch):
    # s = 1 is a numerical error (exit 1), found before the sieve runs: a
    # grid up to 10^8 would take about 0.25 s and 75 MB to sieve first.
    def sieve_refused(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(experiments, "sieve", sieve_refused)
    code, out, err = run_cli(
        capsys, "decay", "--sigma", "1", "--t", "0",
        "--x-grid", "10000,100000,1000000,10000000,100000000",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "eulerprod: error: s = 1 is excluded (pole of the zeta product, zero of "
        "its inverse); use mertens_ratio for the limiting behaviour at s = 1\n"
    )


@pytest.mark.parametrize(
    "x_grid, message",
    [
        (",", "at least 4 points"),
        ("1000,100,10,1000000000", "strictly ascending"),
        ("1,10,100,1000", "start at 2"),
        ("0,10,100,1000", "start at 2"),
    ],
)
def test_decay_grid_is_checked_before_sieving(capsys, x_grid, message):
    # A bad grid is a usage error, found before anything is sieved: the
    # second grid's largest entry, 10^9, is more than the sieve accepts,
    # and log x must be positive for every x.
    code, out, err = run_cli(capsys, "decay", "--sigma", "0.75", "--x-grid", x_grid)
    assert code == 2
    assert out == ""
    assert "usage error" in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-real", "--s-min", "1.1", "--s-max", "inf", "--step", "0.1", "--x", "100"],
        ["scan-real", "--s-min", "1.1", "--s-max", "2", "--step", "nan", "--x", "100"],
        ["scan-line", "--sigma", "0.8", "--t-max", "inf", "--step", "0.5", "--x", "100"],
        ["scan-line", "--sigma", "nan", "--t-max", "1", "--step", "0.5", "--x", "100"],
        ["eval", "--sigma", "nan"],
        ["eval", "--sigma", "inf"],
        ["eval", "--sigma", "2", "--t", "1e400"],
        ["decay", "--sigma", "nan"],
        ["e1", "--re", "nan"],
        ["e1", "--re", "1", "--im", "inf"],
    ],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a finite number" in captured.err


@pytest.mark.parametrize("x", ["-5", "0", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sigma", "2"],
        ["scan-real", "--s-min", "1.5", "--s-max", "2", "--step", "0.5"],
        ["scan-line", "--sigma", "0.8", "--t-max", "1", "--step", "1"],
        ["mertens"],
    ],
    ids=["eval", "scan-real", "scan-line", "mertens"],
)
def test_truncation_below_two_is_a_usage_error(capsys, argv, x):
    # Below x = 2 there is no prime and log x <= 0: every subcommand
    # refuses it while parsing, as decay refuses such a grid.
    with pytest.raises(SystemExit) as info:
        main([*argv, "--x", x])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sigma", "2", "--x", "1000000000"],
        ["scan-real", "--s-min", "1.5", "--s-max", "2", "--step", "0.5", "--x", "100000001"],
        ["scan-line", "--sigma", "0.8", "--t-max", "1", "--step", "1", "--x", "100000001"],
        ["mertens", "--x", "100000001"],
        ["decay", "--sigma", "0.75", "--x-grid", "10000,100000,1000000,1000000000"],
    ],
    ids=["eval", "scan-real", "scan-line", "mertens", "decay"],
)
def test_truncation_above_the_sieve_cap_is_a_usage_error(capsys, argv):
    # The library refuses such an x with ResourceLimitError, a numerical
    # error; on the command line it is a bad flag, like x below 2, and it is
    # refused before anything is sieved.
    try:
        code = main(argv)
    except SystemExit as info:
        code = info.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"must be at most {DEFAULT_MAX_LIMIT}" in captured.err


def test_truncation_accepts_the_sieve_cap():
    assert _truncation(str(DEFAULT_MAX_LIMIT)) == DEFAULT_MAX_LIMIT


def test_every_subcommand_binds_its_runner():
    # main calls args.run with no table of names to fall back on.
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"eval", "scan-real", "scan-line", "mertens", "decay", "e1"}
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name


@pytest.mark.parametrize("x", [2, 10, 10**4, 10**7, DEFAULT_MAX_LIMIT, 2**31 - 1])
def test_fmt_prints_an_integer_x_as_str_does(x):
    # .17g is exact for every integer below 2^53.
    assert _fmt(x) == str(x)


def test_numerical_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--sigma", "1", "--t", "0")
    assert code == 1
    assert "error" in err


def test_too_large_grid_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "scan-real", "--s-min", "1.1", "--s-max", "2",
                             "--step", "1e-320")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "MAX_GRID_POINTS" in err


def test_e1_overflow_is_an_error_not_a_traceback(capsys):
    # At sigma = -800, x = 1000 the E1 argument has real part -5533.
    code, out, err = run_cli(capsys, "eval", "--sigma", "-800", "--t", "5",
                             "--x", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith("eulerprod: error:") and "overflows" in err
    code, out, _ = run_cli(capsys, "scan-line", "--sigma", "-800", "--t-max", "1",
                           "--step", "1", "--x", "1000")
    assert code == 0
    assert [r["flags"] for r in parse_rows(out)] == ["error:EulerProductError"] * 2


def run_process(*argv, code=None):
    """The CLI, or Python ``code`` given ``argv``, in a fresh interpreter, so
    stderr holds whatever Python prints."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    command = ["-m", "eulerprod.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True, env=env,
    )


def test_importing_the_cli_loads_no_pool_logging_or_fractions():
    # concurrent.futures imports logging, and zeta_ref's weights need no
    # fractions.  The CLI's start-up pays for none of them.
    proc = run_process(code=(
        "import sys, eulerprod.cli\n"
        "print(*(m in sys.modules for m in ('concurrent.futures', 'logging', 'fractions')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 3


MODULES_OF_MAIN = """
import os, sys, threading
from eulerprod import cli
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
started = []
start = threading.Thread.start
threading.Thread.start = lambda thread: (started.append(thread), start(thread))[1]
code = cli.main(sys.argv[1:])
print(len(started), *(m in sys.modules for m in ("concurrent.futures", "logging")))
sys.exit(code)
"""


def test_a_line_scan_on_two_workers_loads_no_pool_or_logging():
    # line-tall's scan sums its 193 batches in one kernel call, on two
    # plain threads here: concurrent.futures would import logging (7.3 ms
    # by -X importtime) in every such scan.
    proc = run_process("scan-line", "--sigma", "0.55", "--t", "0.01", "--t-max", "100",
                       "--step", "0.02", "--x", "10000", "--out", os.devnull,
                       code=MODULES_OF_MAIN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False", "False"]


FAULTS_OF_MAIN = """
import resource, sys
from eulerprod import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux page faults")
def test_line_scan_does_not_fault_in_fresh_pages(tmp_path):
    # The scan's one kernel call makes its 197 complex rows at x = 10^6,
    # 591 (batch, block) units, in one work array per worker.  When every
    # block allocated its own temporaries, these rows took 220,000 minor
    # page faults; one array per worker takes about 1,100, sieve included.
    proc = run_process("scan-line", "--sigma", "0.75", "--t", "1", "--t-max", "50",
                       "--step", "0.25", "--x", "1000000",
                       "--out", str(tmp_path / "line.csv"), code=FAULTS_OF_MAIN)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 20_000


def test_overflowing_terms_print_no_numpy_warnings():
    # At sigma = -800 every p^-s overflows.  The product's inf and nan
    # reach the user only as the one error line, not as numpy warnings.
    proc = run_process("eval", "--sigma", "-800", "--t", "5", "--x", "1000")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert sum(line.startswith("eulerprod: error:") for line in lines) == 1
    assert "encountered in" not in proc.stderr


def test_outside_domain_rows_are_flagged_not_warned():
    # Each row left of the strip carries its flag; nothing reaches stderr.
    proc = run_process("scan-real", "--x", "100", "--s-min", "0.3", "--s-max", "0.5",
                       "--step", "0.01")
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = parse_rows(proc.stdout)
    assert len(rows) == 21
    assert all(row["flags"] == "outside-domain;on-cut" for row in rows)


def test_scan_serializes_error_rows(capsys):
    # The vertical line at sigma = 1 hits the pole at t = 0; the row keeps
    # the grid position, leaves the value cells empty and carries the flag.
    code, out, _ = run_cli(capsys, "scan-line", "--sigma", "1", "--t-max", "1",
                           "--step", "0.5", "--x", "100")
    assert code == 0
    rows = parse_rows(out)
    assert rows[0]["flags"] == "error:SingularityError"
    assert rows[0]["re_value"] == "" and rows[0]["abs_err"] == ""
    assert rows[1]["flags"] == "" and rows[1]["re_value"] != ""


def test_eval_scan_and_decay_share_one_order(capsys):
    # Every subcommand evaluates at the same correction order, so the same
    # point gives the same cells from eval, scan-real and decay.
    value_cells = ("re_value", "im_value", "re_ref", "im_ref", "abs_err", "flags")
    _, out, _ = run_cli(capsys, "eval", "--sigma", "0.7", "--x", "1000")
    point = parse_rows(out)[0]
    code, out, _ = run_cli(capsys, "scan-real", "--s-min", "0.7", "--s-max", "0.7",
                           "--step", "0.1", "--x", "1000")
    assert code == 0
    row = parse_rows(out)[0]
    assert [row[c] for c in value_cells] == [point[c] for c in value_cells]
    _, out, _ = run_cli(capsys, "eval", "--sigma", "0.75", "--t", "5", "--x", "1000")
    point = parse_rows(out)[0]
    code, out, _ = run_cli(capsys, "decay", "--sigma", "0.75", "--t", "5",
                           "--x-grid", "100,1000,10000,100000")
    assert code == 0
    row = parse_rows(out)[1]
    assert [row[c] for c in value_cells] == [point[c] for c in value_cells]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--sigma", "2", "--bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_scan_real_full_range_invocation(capsys):
    # Coarse version of the real-axis sweep; the full grid lives in the
    # acceptance suite.
    code, out, _ = run_cli(
        capsys, "scan-real", "--x", "10000", "--s-min", "0.501", "--s-max", "2",
        "--step", "0.1",
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 14  # 15 grid points minus s = 1.001 inside the guard
    assert all(abs(float(r["sigma"]) - 1.0) >= 0.05 - 1e-9 for r in rows)
    first = rows[0]
    assert first["flags"] == "on-cut"
    assert float(first["re_value"]) < 0.0  # matches the sign of zeta there
