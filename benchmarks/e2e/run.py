"""End-to-end benchmark: six figure cells, from seed to figure data.

Each workload runs one figure configuration of the reproduction through
the public experiment API, one repeat per fresh process (``child.py``),
one process at a time.  Every metric is printed by name and unit, the
figure data of every cell is checked against the committed digests in
``reference.json`` (or, for other seeds, against the other repeats), and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced, ``metrics`` holds the end-to-end metrics (medians over the
repeats).  With ``--trace`` one traced repeat follows the timed ones and
``metrics`` holds its per-layer metrics instead, less the
:data:`STRUCTURAL_ZEROS`.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--repeats R | --seconds S] [--trace [0|1]] [--scale X]
        [--out FILE] [--write-reference]

The defaults are every workload, seed 0 and R=5.  ``--seconds S`` starts
repeats while the next one is expected to end within S seconds (at least
three).  README.md next to this file defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("quickstart", "expensive", "production", "unpredictable", "fleet", "audited")
#: Seeds with committed reference digests (seed 1 is held out for claims).
REFERENCE_SEEDS = (0, 1)
#: Fewest repeats a time-boxed (``--seconds``) run takes a median over.
MIN_REPEATS = 3
DEFAULT_REPEATS = 5
#: A repeat still running after this long is killed and its cells fail.
#: One repeat takes 2-3 s untraced and under 10 s traced.
CHILD_TIMEOUT_S = 60.0

#: End-to-end metrics (name, unit), medians over the untraced repeats.
#: Times are CPU seconds at the reference host speed (see ``child.py``).
E2E_METRICS = (
    ("ref_cpu_s", "s"),
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Printed and written with ``--out`` beside them, but left out of the
#: result line: on a shared host they measure the host as much as the
#: program.
HOST_METRICS = (
    ("cpu_s", "s"),
    ("wall_s", "s"),
    ("slowdown", "x"),
)

#: Per-layer metrics of the traced repeat (name, unit).
LAYER_METRICS = (
    ("workloads.generate_s", "s"),
    ("workloads.transform_s", "s"),
    ("workloads.records", "count"),
    ("workloads.kept_frac", "ratio"),
    ("clock.self_s", "s"),
    ("clock.events", "count"),
    ("clock.events_per_request", "count/request"),
    ("clock.peak_pending", "count"),
    ("clock.cancel_frac", "ratio"),
    ("server.self_s", "s"),
    ("server.finish.calls", "count"),
    ("server.refresh_ticks", "count"),
    ("sources.self_s", "s"),
    ("sources.submits", "count"),
) + tuple(
    (f"core.{name}.{what}", unit)
    for name in ("enqueue", "dequeue", "dequeue_batch", "complete", "refresh")
    for what, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("core.cancel.calls", "count"),
    ("core.dequeue.empty_frac", "ratio"),
    ("core.index.stale_pop_frac", "ratio"),
    ("estimation.calls", "count"),
    ("estimation.self_s", "s"),
    ("estimation.calls_per_request", "count/request"),
    ("gps.arrive.calls", "count"),
    ("gps.advance.calls", "count"),
    ("gps.service.calls", "count"),
    ("gps.self_s", "s"),
    ("gps.purges", "count"),
    ("metrics.listener.self_s", "s"),
    ("metrics.sample.calls", "count"),
    ("metrics.sample.self_s", "s"),
    ("metrics.sample.us_per_tenant", "us"),
    ("metrics.result_s", "s"),
    ("metrics.reduce_s", "s"),
    ("metrics.dispatch_records", "count"),
    ("fleet.self_s", "s"),
    ("fleet.route.calls", "count"),
    ("fleet.health.probes", "count"),
    ("fleet.failover_retries", "count"),
    ("fleet.completed_frac", "ratio"),
    ("obs.self_s", "s"),
    ("obs.events", "count"),
    ("obs.export_s", "s"),
    ("bench.trace_overhead_x", "x"),
    ("bench.spans", "count"),
    ("bench.unattributed_frac", "ratio"),
)

#: Per-layer metrics that read exactly 0 on at least one workload, because
#: that workload never does what they measure: no trace generation in
#: ``quickstart``, no refresh charging in ``expensive``, no fleet or trace
#: session outside ``fleet`` and ``audited``, ...  The result line carries
#: one set of names for every workload, and a value that is 0 by
#: construction measures nothing, so these are printed and written with
#: ``--out`` only.  Every other name reads non-zero on all six workloads.
STRUCTURAL_ZEROS = (
    "workloads.generate_s",
    "workloads.transform_s",
    "workloads.records",
    "workloads.kept_frac",
    "clock.cancel_frac",
    "server.refresh_ticks",
    "core.refresh.calls",
    "core.refresh.self_s",
    "core.cancel.calls",
    "core.dequeue.empty_frac",
    "core.index.stale_pop_frac",
    "gps.purges",
    "metrics.dispatch_records",
    "fleet.self_s",
    "fleet.route.calls",
    "fleet.health.probes",
    "fleet.failover_retries",
    "fleet.completed_frac",
    "obs.self_s",
    "obs.events",
    "obs.export_s",
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end figure-cell benchmark of the 2DFQ reproduction."
    )
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--repeats", type=int, default=None,
                        help=f"untraced repeats per workload (default {DEFAULT_REPEATS})")
    length.add_argument("--seconds", type=float, default=None,
                        help=f"time box for the untraced repeats (at least {MIN_REPEATS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add one traced repeat and report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every simulated horizon (references hold at 1)")
    parser.add_argument("--out", type=Path, default=None, help="write every result as JSON")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the figure digests of seeds {REFERENCE_SEEDS}")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def _refused_environment() -> List[str]:
    """Variables that make the package measure a different program."""
    return sorted(
        name for name in os.environ
        if name == "REPRO_VALIDATE" or name.startswith("REPRO_BENCH_")
    )


# -- one repeat ----------------------------------------------------------------


def run_child(
    workload: str, seed: int, scale: float, trace: bool, spans: Optional[Path] = None
) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter and return its JSON record
    (``{"error": ...}`` when the process itself failed)."""
    # Scratch space of the repeat (the audited workload's trace export).
    with tempfile.TemporaryDirectory(prefix=".bench_e2e-", dir=ROOT) as work:
        command = [
            sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--work-dir", work,
        ]
        if trace:
            command.append("--trace")
            if spans is not None:
                command += ["--spans", str(spans)]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


# -- one workload ----------------------------------------------------------------


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return p25, p50, p75


def _check_cells(
    records: List[Dict[str, Any]], labels: List[str], expected: Optional[Dict[str, str]]
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every repeat's cells.  A cell
    fails when its repeat raised, when it completed no request, or when
    its digest differs from ``expected`` (the committed reference, or
    else the first repeat that produced one)."""
    if expected is None:
        expected = {}
        for record in records:
            for label, value in (record.get("digests") or {}).items():
                expected.setdefault(label, value)
    attempted = failed = 0
    problems: List[str] = []
    for index, record in enumerate(records):
        digests = record.get("digests") or {}
        completed = record.get("cell_completed") or {}
        if record.get("error"):
            problems.append(f"repeat {index}: {record['error'].strip().splitlines()[-1]}")
        for label in labels:
            attempted += 1
            value = digests.get(label)
            if value is None or completed.get(label, 0) <= 0:
                failed += 1
            elif value != expected.get(label):
                failed += 1
                problems.append(
                    f"repeat {index}: cell {label} digest {value} != {expected.get(label)}"
                )
    return attempted, failed, problems


def measure(
    workload: str,
    seed: int,
    scale: float,
    repeats: Optional[int],
    seconds: Optional[float],
    trace: bool,
    labels: List[str],
    expected: Optional[Dict[str, str]],
    spans: Optional[Path] = None,
) -> Dict[str, Any]:
    """All repeats of one workload, then their summary.  A repeat that
    fails ends the series: its cells already count as failed."""
    records: List[Dict[str, Any]] = []
    started = perf_counter()  # repro: ignore[RPR001] -- host timing of the bench itself
    while True:
        records.append(run_child(workload, seed, scale, trace=False))
        if records[-1].get("error"):
            break
        elapsed = perf_counter() - started  # repro: ignore[RPR001] -- host timing of the bench itself
        if repeats is not None:
            if len(records) >= repeats:
                break
        elif len(records) >= MIN_REPEATS and elapsed * (len(records) + 1) / len(records) > seconds:
            break
    traced = run_child(workload, seed, scale, trace=True, spans=spans) if trace else None
    checked = records + ([traced] if traced is not None else [])
    attempted, failed, problems = _check_cells(checked, labels, expected)

    ok = [r for r in records if not r.get("error")]
    samples: Dict[str, List[float]] = {
        name: [r[name] for r in ok]
        for name in ("ref_cpu_s", "setup_s", "peak_rss_mb", "cpu_s", "wall_s", "slowdown")
    }
    samples["requests_per_s"] = [r["completed"] / (r["ref_cpu_s"] - r["setup_s"]) for r in ok]
    summary: Dict[str, Any] = {}
    if ok:
        for name, unit in E2E_METRICS + HOST_METRICS:
            p25, p50, p75 = _quartiles(samples[name])
            summary[name] = {"value": p50, "p25": p25, "p75": p75, "unit": unit}
    summary["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    layers: Optional[Dict[str, Any]] = None
    if traced is not None and "layers" in traced and ok:
        values = dict(traced["layers"])
        values["bench.trace_overhead_x"] = traced["cpu_s"] / summary["cpu_s"]["value"]
        layers = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "repeats": len(ok),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": summary,
        "layers": layers,
        "runs": records,
        "traced": traced,
    }


# -- reporting -----------------------------------------------------------------


def _print_workload(result: Dict[str, Any]) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  scale={result['scale']:g}  "
        f"R={result['repeats']}  cells={result['attempted']}  failed={result['failed']}"
    )
    for problem in result["problems"]:
        print(f"   ! {problem}")
    for name, entry in result["metrics"].items():
        spread = f"   p25 {entry['p25']:.6g}  p75 {entry['p75']:.6g}" if "p25" in entry else ""
        print(f"   {name:34s} {entry['value']:14.6g} {entry['unit']:<8s}{spread}")
    if result["layers"]:
        print("   per layer (one traced repeat):")
        for name, entry in result["layers"].items():
            print(f"   {name:34s} {entry['value']:14.6g} {entry['unit']}")


def _git_sha() -> Optional[str]:
    """HEAD of the checkout (none outside a clone)."""
    proc = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def _load_reference() -> Dict[str, Any]:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def write_reference(args: argparse.Namespace, cell_labels: Any) -> int:
    """Record the digests of every selected workload for the reference
    seeds, after checking that two repeats of each agree."""
    if args.scale != 1.0:
        print("--write-reference records the benchmark scale only (--scale 1)", file=sys.stderr)
        return 2
    reference = _load_reference()
    for seed in REFERENCE_SEEDS:
        for workload in args.workload:
            result = measure(workload, seed, 1.0, 2, None, False, cell_labels(workload), None)
            if result["failed"]:
                print(f"seed {seed} {workload}: {result['problems']}", file=sys.stderr)
                return 1
            digests = result["runs"][0]["digests"]
            reference.setdefault(str(seed), {})[workload] = digests
            print(f"seed {seed} {workload}: {digests}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    refused = _refused_environment()
    if refused:
        print(f"unset {', '.join(refused)}: they change the program under test",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cells import cell_labels

    if args.write_reference:
        return write_reference(args, cell_labels)
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    reference = _load_reference() if args.scale == 1.0 else {}
    results = []
    for workload in args.workload:
        expected = reference.get(str(args.seed), {}).get(workload)
        spans = args.out.with_suffix(f".{workload}.spans.npz") if args.out and args.trace else None
        result = measure(
            workload, args.seed, args.scale, repeats, args.seconds, bool(args.trace),
            cell_labels(workload), expected, spans,
        )
        _print_workload(result)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(r["layers"] if args.trace else r["metrics"].get("ref_cpu_s") for r in results)
    metrics: Dict[str, Any] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        if args.trace:
            chosen = {
                name: entry for name, entry in (result["layers"] or {}).items()
                if name not in STRUCTURAL_ZEROS
            }
        else:
            chosen = {name: result["metrics"][name] for name, _ in E2E_METRICS
                      if name in result["metrics"]}
        for name, entry in chosen.items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"environment": environment(), "args": sys.argv[1:], "results": results},
            indent=1, sort_keys=True,
        ) + "\n")
    print(json.dumps(
        {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
         "metrics": metrics}
    ))
    return 0 if failed == 0 and complete else 1


if __name__ == "__main__":
    sys.exit(main())
