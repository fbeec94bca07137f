"""eulerprod benchmark: runs one CLI workload as a user runs it and reports its metrics.

    python3 bench/run.py --workload real-axis --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every repetition is a fresh
interpreter (``bench/child.py``) with ``src`` on PYTHONPATH and
EULERPROD_THREADS unset, so the shipped defaults and the per-process set-up
are what gets measured.  Repetitions run until ``--seconds`` have passed
(at least ``MIN_REPS``), and timings are medians over them.

The CSV is checked against an mpmath oracle computed once, before any
repetition.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` half the
time goes to untraced repetitions and half to traced ones, and the JSON
carries the per-layer metrics.  Lines before it print every metric with its
unit, the run record and the exact counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import layers
import oracle
import workloads
from spans import Span

#: Fewest repetitions per phase, however short ``--seconds`` is.
MIN_REPS = 3
#: A single CLI invocation taking longer than this counts as failed.
CHILD_TIMEOUT_S = 120.0
#: Scratch space, inside the checkout, for CSVs, spans and run records.
WORK_DIR = Path(".bench_work")

_DECAY_FIT = re.compile(r"^decay fit: slope=(\S+) ", re.MULTILINE)


@dataclass
class Rep:
    """One CLI invocation in a fresh interpreter."""

    ok: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    threads: Optional[int] = None
    csv_text: str = ""
    sha256: str = ""
    stderr: str = ""
    spans: list[Span] = field(default_factory=list)
    installed: dict[str, bool] = field(default_factory=dict)


def run_child(root: Path, argv: tuple[str, ...], tmp: Path, trace: bool) -> Rep:
    out, result_path = tmp / "out.csv", tmp / "result.json"
    for path in (out, result_path):
        path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("EULERPROD_THREADS", None)
    # Users of an installed package import compiled bytecode, so the cache
    # stays on whatever the caller's environment says; it lives in WORK_DIR.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / WORK_DIR / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(root / "bench" / "child.py"), str(result_path),
           "1" if trace else "0", "--", *argv]
    if argv:
        cmd += ["--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep(ok=False, stderr=f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.exists():
        return Rep(ok=False, stderr=proc.stderr)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    rep = Rep(
        ok=result["rc"] == 0 and (out.exists() or not argv),
        wall_s=result.get("wall_s", math.nan),
        setup_s=result["setup_s"],
        peak_rss_mb=result["peak_rss_mb"],
        threads=result["threads"],
        stderr=proc.stderr,
        installed=result.get("installed", {}),
        spans=[Span(*s) for s in result.get("spans", [])],
    )
    if out.exists():
        data = out.read_bytes()
        rep.sha256 = hashlib.sha256(data).hexdigest()
        rep.csv_text = data.decode("ascii", errors="replace")
    return rep


def repeat(root, argv, tmp, trace: bool, seconds: float, setups: list[float]) -> list[Rep]:
    """Run the CLI until ``seconds`` have passed, at least MIN_REPS times.

    After each run a fresh interpreter only imports the CLI, which adds a
    set-up sample to ``setups`` (set-up is short and noisy, so it gets twice
    the samples).
    """
    reps = []
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        reps.append(run_child(root, argv, tmp, trace))
        probe = run_child(root, (), tmp, False)
        if probe.ok:
            setups.append(probe.setup_s)
    return reps


def run_record(seed: int) -> dict:
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": oracle.mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "mem_total_gb": pages / 1e9,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
    }


def check_output(w: workloads.Workload, reps: list[Rep], exact: list[complex],
                 problems: list[str]) -> tuple[oracle.Accuracy, list[oracle.Row]]:
    """Check the CSV of the repetitions and judge its rows against the oracle."""
    good = [r for r in reps if r.ok]
    if len(good) < len(reps):
        bad = next(r for r in reps if not r.ok)
        problems.append(f"{len(reps) - len(good)} invocation(s) failed: {bad.stderr.strip()[-500:]}")
    if not good:
        return oracle.summarise([oracle.Verdict("exit-status", None)] * len(w.points)), []
    shas = {r.sha256 for r in good}
    if len(shas) != 1:
        problems.append(f"CSV bytes differ between repetitions: {sorted(shas)}")
    try:
        rows = oracle.parse_csv(good[0].csv_text)
    except ValueError as exc:
        problems.append(f"CSV does not parse: {exc}")
        return oracle.summarise([oracle.Verdict("bad-csv", None)] * len(w.points)), []
    if [(r.sigma, r.t, r.x) for r in rows] != list(w.points):
        problems.append(f"CSV rows do not match the requested grid ({len(rows)} rows, "
                        f"{len(w.points)} expected)")
        return oracle.summarise([oracle.Verdict("grid", None)] * len(w.points)), rows
    verdicts = [oracle.classify(r, e, w.compare) for r, e in zip(rows, exact)]
    for row, ex, v in zip(rows, exact, verdicts):
        if v.failure is None and not oracle.within_envelope(row, ex, w.compare):
            problems.append(f"error at s = {row.sigma} + {row.t}i, x = {row.x} exceeds "
                            "x^(1/2 - sigma) log x")
            break
    acc = oracle.summarise(verdicts)
    if acc.failed == acc.rows:
        problems.append("no row passed the oracle check")
    if w.compare == "complex":
        fits = [_DECAY_FIT.search(r.stderr) for r in good]
        if not all(f and math.isfinite(float(f.group(1))) for f in fits):
            problems.append("decay did not report a finite fitted slope on stderr")
    return acc, rows


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eulerprod" / "cli.py").is_file():
        print(f"bench: no eulerprod source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    w = workloads.make(args.workload, args.seed)
    record = run_record(args.seed)
    started = perf_counter()
    exact = oracle.zeta_oracle(w.points)
    record["oracle_s"] = perf_counter() - started

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        run_child(root, (), tmp, False)  # fills the bytecode cache; not a sample
        setups: list[float] = []
        if args.trace:
            plain = repeat(root, w.argv, tmp, False, seconds / 2, setups)
            traced = repeat(root, w.argv, tmp, True, seconds / 2, setups)
        else:
            plain, traced = repeat(root, w.argv, tmp, False, seconds, setups), []
    finally:
        shutil.rmtree(tmp)

    problems: list[str] = []
    reps = plain + traced
    acc, rows = check_output(w, reps, exact, problems)
    ok_plain = [r for r in plain if r.ok]
    samples = {
        "wall_s": [r.wall_s for r in ok_plain],
        "setup_s": setups + [r.setup_s for r in reps if r.ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok_plain],
    }
    e2e = {
        **{k: statistics.median(v) if v else None for k, v in samples.items()},
        "passed_share": acc.passed_share,
        "median_rel_err": acc.median_rel_err if acc.failed < acc.rows else None,
        "max_rel_err": acc.max_rel_err if acc.failed < acc.rows else None,
    }
    record.update(
        workload=w.name, argv=list(w.argv), seconds=seconds, reps=len(plain),
        traced_reps=len(traced), csv_sha256=sorted({r.sha256 for r in reps if r.ok}),
        rows=acc.rows, failures=acc.failures, wall_s_reps=samples["wall_s"],
    )

    per_layer: dict[str, Optional[float]] = {}
    if args.trace:
        spans_path = WORK_DIR / f"spans-{w.name}-{args.seed}.json"
        per_layer = trace_metrics(traced, e2e["wall_s"], acc, len(rows), problems, record,
                                  spans_path)

    print(f"workload {w.name}  seed {args.seed}  argv {' '.join(w.argv)}")
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in e2e.items():
        extra = quartiles(samples[name]) if name in samples else ""
        print(f"{name:40s} {_show(value):>14s} {units[name]:10s} {extra}")
    for name, value in per_layer.items():
        print(f"{name:40s} {_show(value):>14s} {units[name]}")
    for p in problems:
        print(f"check failed: {p}")

    chosen = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps),
        "failed": sum(1 for r in reps if not r.ok),
        "metrics": {k: {"value": chosen.get(k), "unit": units[k]} for k in reported},
    }))
    return 0


def trace_metrics(traced: list[Rep], plain_wall: Optional[float], acc: oracle.Accuracy,
                  rows: int, problems: list[str], record: dict, spans_path: Path) -> dict:
    """Per-layer metrics: medians over traced repetitions, with the exact counts checked.

    The spans of the first traced repetition are written to ``spans_path``.
    """
    good = [r for r in traced if r.ok]
    if not good:
        problems.append("no traced repetition succeeded")
        return {}
    runs = [layers.layer_metrics(r.spans, r.installed, rows) for r in good]
    counts = [{k: m[k] for k in layers.EXACT} for m in runs]
    if any(c != counts[0] for c in counts):
        problems.append(f"exact counts differ between traced repetitions: {counts}")
    record["exact_counts"] = counts[0]
    fits = [layers.top_level_fit(r.spans) for r in good]
    if any(top > wall for top, wall in fits):
        problems.append(f"top-level spans exceed the traced wall: {fits}")
    record["top_level_share"] = [top / wall for top, wall in fits]
    metrics = {
        name: (runs[0][name] if runs[0][name] is None or name in layers.EXACT
               else statistics.median(m[name] for m in runs))
        for name in layers.METRICS
    }
    metrics["zetaref.off_oracle_rows"] = acc.failures.get("off-oracle", 0)
    metrics["experiments.error_rows"] = acc.failures.get("error-flag", 0)
    metrics["cli.out_bytes"] = len(good[0].csv_text.encode("ascii"))
    metrics["cli.threads"] = good[0].threads
    traced_wall = statistics.median(r.wall_s for r in good)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else None
    spans_path.write_text(json.dumps([vars(s) for s in good[0].spans]), encoding="utf-8")
    return metrics


def _show(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


if __name__ == "__main__":
    sys.exit(main())
