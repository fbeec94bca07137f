"""Tests of the benchmark's own arithmetic: self time, row failures, metric names.

    python3 -m pytest -q bench/test_bench.py

The traced runs use tiny grids, so the whole file takes a few seconds.
"""

import json
import math
import re
import threading
import types
from pathlib import Path

import pytest

import layers
import oracle
import run
import workloads
from spans import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- self time -----------------------------------------------------------------


def test_covered_counts_overlaps_once_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.2, 0.4), (0.3, 0.5), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.4)
    assert covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)
    assert covered([(0.1, 0.9), (0.2, 0.3)], 0.0, 1.0) == pytest.approx(0.8)


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        Span(1, None, "main", 0, 0.0, 10.0),
        Span(2, 1, "scan", 0, 1.0, 9.0),
        Span(3, 2, "eval", 1, 2.0, 6.0),  # two pool threads overlap
        Span(4, 2, "eval", 2, 4.0, 8.0),
        Span(5, 3, "e1", 1, 2.0, 3.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 2.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0})


def test_tracer_nests_adopts_pool_threads_and_records_errors():
    mod = types.SimpleNamespace(
        inner=lambda x: x + 1,
        fail=lambda: 1 / 0,
    )
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    assert tracer.wrap(mod, "inner", "inner", lambda a, args, kw, r: a.update(r=r))
    assert tracer.wrap(mod, "outer", "outer")
    assert tracer.wrap(mod, "fail", "fail")
    assert not tracer.wrap(mod, "missing", "missing")

    def in_pool():
        worker = threading.Thread(target=mod.inner, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    assert tracer.call("root", lambda: mod.outer(1)) == 4
    tracer.call("scan", in_pool)
    with pytest.raises(ZeroDivisionError):
        mod.fail()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root, = by_name["root"]
    outer, = by_name["outer"]
    scan, = by_name["scan"]
    first, second = sorted(by_name["inner"], key=lambda s: s.start)
    assert outer.parent == root.id and first.parent == outer.id
    assert first.attrs == {"r": 2}
    assert second.parent == scan.id and second.thread != scan.thread
    assert by_name["fail"][0].attrs == {"error": "ZeroDivisionError"}
    assert by_name["fail"][0].parent is None


# --- row failures --------------------------------------------------------------


def _row(value=1 + 0j, reference=1 + 0j, flags=()):
    return oracle.Row(0.75, 5.0, 10**4, value, reference, flags)


def test_classify_each_failure_and_the_error_measure():
    exact = 2.0 + 1.0j
    assert oracle.classify(_row(flags=("error:ConvergenceError",)), exact, "complex").failure == "error-flag"
    assert oracle.classify(_row(value=None), exact, "complex").failure == "non-finite"
    assert oracle.classify(_row(value=complex(math.inf, 0)), exact, "complex").failure == "non-finite"
    off = exact * (1 + 2e-9)
    assert oracle.classify(_row(reference=off), exact, "complex").failure == "off-oracle"
    close = exact * (1 + 5e-10)
    v = oracle.classify(_row(value=2.0 - 1.0j, reference=close, flags=("on-cut",)), exact, "modulus")
    assert v.failure is None and v.rel_err == pytest.approx(0.0, abs=1e-15)
    v = oracle.classify(_row(value=2.1 + 1.0j, reference=exact), exact, "real")
    assert v.rel_err == pytest.approx(0.1 / abs(exact))
    v = oracle.classify(_row(value=2.0 + 2.0j, reference=exact), exact, "complex")
    assert v.rel_err == pytest.approx(1.0 / abs(exact))


def test_summary_shares_and_medians():
    acc = oracle.summarise([
        oracle.Verdict(None, 1e-3), oracle.Verdict(None, 3e-3), oracle.Verdict(None, 2e-3),
        oracle.Verdict("off-oracle", None), oracle.Verdict("error-flag", None),
    ])
    assert acc.failures == {"off-oracle": 1, "error-flag": 1}
    assert acc.passed_share == pytest.approx(0.6)
    assert (acc.median_rel_err, acc.max_rel_err) == (2e-3, 3e-3)


def test_parse_csv_reads_cells_and_rejects_bad_headers():
    text = (oracle.CSV_HEADER + "\n"
            "0.55000000000000004,0.5,100,,,,,,,error:ConvergenceError\n"
            "2,0,100,1.5,0,1.6,0,0.1,0.0625,on-cut;outside-domain\n")
    bad, good = oracle.parse_csv(text)
    assert bad.value is None and bad.flags == ("error:ConvergenceError",)
    assert good.value == 1.5 and good.reference == 1.6 and good.flags == ("on-cut", "outside-domain")
    with pytest.raises(ValueError):
        oracle.parse_csv("a,b\n")


# --- workloads -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_repeat_per_seed_and_move_with_it(name):
    a, b, c = workloads.make(name, 7), workloads.make(name, 7), workloads.make(name, 8)
    assert a == b and a.argv != c.argv
    sizes = {"real-axis": (279, 280), "line-tall": (5000,), "decay-deep": (5,)}
    assert len(a.points) in sizes[name] and len(c.points) in sizes[name]


def test_line_tall_offset_stays_inside_the_first_step():
    for seed in range(50):
        t0 = workloads.line_tall(seed).points[0][1]
        assert 0.0 < t0 < 0.02


# --- traced runs on tiny grids -------------------------------------------------


def _traced(argv, tmp_path):
    rep = run.run_child(ROOT, tuple(argv), tmp_path, trace=True)
    assert rep.ok, rep.stderr
    rows = oracle.parse_csv(rep.csv_text)
    return rep, rows, layers.layer_metrics(rep.spans, rep.installed, len(rows))


def test_tiny_line_scan_counts_and_fits_in_wall(tmp_path):
    argv = ["scan-line", "--sigma", "0.55", "--t", "0.01", "--t-max", "0.5",
            "--step", "0.1", "--x", "10000"]
    rep, rows, m = _traced(argv, tmp_path)
    assert len(rows) == 5
    assert m["product.evals_per_row"] == 1.0
    assert m["product.log_raw_product.prime_terms"] == 5 * 1229
    assert m["specfun.e1.calls"] == 5
    assert m["specfun.e1.errors"] >= 1  # t = 0.01 lies in the wedge at the cut
    assert m["specfun.e1.errors"] + m["zetaref.zeta_ref.calls"] == 5
    top, wall = layers.top_level_fit(rep.spans)
    assert 0 < top <= wall
    assert m["cli.main.self_s"] == pytest.approx(wall - top, abs=1e-9)


def test_tiny_decay_evaluates_every_x_twice(tmp_path):
    argv = ["decay", "--sigma", "0.75", "--t", "5", "--x-grid", "100,1000,10000,100000"]
    rep, rows, m = _traced(argv, tmp_path)
    assert len(rows) == 4
    assert m["product.evals_per_row"] == 2.0
    assert m["primes.truncate.calls"] == 8
    assert m["primes.sieve.primes"] == 9592
    assert m["primes.sieve.bytes_computed"] == 100001 + 16 * 9592


def test_missing_layer_is_absent_not_zero():
    installed = {name: True for name in (layers.SIEVE, layers.CORRECTED, layers.MAIN)}
    spans = [Span(1, None, layers.MAIN, 0, 0.0, 1.0)]
    m = layers.layer_metrics(spans, installed, rows=1)
    assert m["specfun.e1.calls"] is None and m["zetaref.zeta_ref.busy_s"] is None
    assert m["primes.sieve.primes"] == 0 and m["product.evals_per_row"] == 0.0


# --- metric names --------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_LAYER_EXTRAS = {"zetaref.off_oracle_rows", "experiments.error_rows", "cli.out_bytes",
                    "cli.threads", "trace.overhead_ratio"}


def test_benchmark_json_names_are_the_metrics_the_run_reports():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert e2e == ["wall_s", "setup_s", "peak_rss_mb", "passed_share",
                   "median_rel_err", "max_rel_err"]
    assert set(per_layer) == set(layers.METRICS) | RUN_LAYER_EXTRAS
    assert set(layers.EXACT) <= set(layers.METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    names = e2e + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _NAME.match(m["name"]) and _UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
