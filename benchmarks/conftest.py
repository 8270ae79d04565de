"""Shared helpers for the benchmarks.

Each figure benchmark runs one entry of :data:`repro.figures.FIGURES`
at its committed scale (shorter duration / fewer tenants than the
paper; EXPERIMENTS.md records the reductions), asserts the figure's
shape on its data, and emits the entry's text.  The printed rows/series
are the deliverable: they are echoed to the terminal (bypassing pytest's
capture) *and* written to ``benchmarks/results/<id>.txt`` so the
committed bench output is inspectable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.figures import FIGURES, framed

RESULTS_DIR = Path(__file__).parent / "results"

#: Shared provenance/measurement record; several benches contribute
#: top-level sections, so writers must merge, never clobber.
BENCH_MANIFEST = RESULTS_DIR / "BENCH_manifest.json"


def read_bench_manifest() -> dict:
    """The committed BENCH_manifest.json, or {} if absent/corrupt."""
    try:
        return json.loads(BENCH_MANIFEST.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def merge_bench_manifest(**sections) -> None:
    """Update top-level sections of BENCH_manifest.json in place,
    preserving sections owned by other benchmark modules."""
    manifest = read_bench_manifest()
    manifest.update(sections)
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_MANIFEST.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _write(capsys, name: str, payload: str) -> None:
    with capsys.disabled():
        print(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(payload)


def emit_figure(capsys, figure_id: str, data) -> None:
    """Print a paper figure as its :data:`repro.figures.FIGURES` entry
    renders ``data`` and persist it to ``results/<figure_id>.txt``."""
    _write(capsys, figure_id, FIGURES[figure_id].text(data))


def emit(capsys, title: str, text: str) -> None:
    """Print an ablation's or bench's series under ``title`` and persist
    it to a file named after the title."""
    slug = (
        title.replace(":", "")
        .replace("(", "")
        .replace(")", "")
        .strip()
        .replace(" ", "_")
        .lower()
    )
    _write(capsys, slug, framed(title, text))


def once(benchmark, fn):
    """Run an expensive experiment exactly once under the benchmark
    timer (the experiments are deterministic, so repeated timing rounds
    would only re-measure identical work)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
