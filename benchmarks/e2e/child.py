"""One repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat, so no measurement sees
the garbage-collector state or allocator layout another one left behind.
The clocks start after every import.  The last line of standard output
is one JSON object with the times of the span from seed to figure data:

* ``cpu_s`` -- CPU seconds of the main thread, which runs the whole
  workload, less the speed probe's;
* ``slowdown`` -- how much slower than the reference the host ran
  meanwhile, from :class:`speed.SpeedProbe`;
* ``ref_cpu_s`` -- ``cpu_s / slowdown``: the CPU seconds the repeat
  would have taken at the reference speed;
* ``setup_s`` -- the same as ``ref_cpu_s``, up to the first
  ``Simulation.run``;
* ``wall_s`` -- wall seconds, probe included;

and completed simulated requests, peak RSS, and the figure digest of
every cell (or the error that stopped the workload).

The workload is single-threaded, so on an idle machine its CPU time
equals its wall time.  Unlike wall time, CPU time leaves out the waits
for a CPU, in the run queue or while the hypervisor runs another guest;
the slowdown takes out the rest of the host's changes of speed.

With ``--trace`` the workload runs under the outside-in layer tracer
instead of the probe (whose samples would land in its spans), and the
object also carries the per-layer metrics.

    python benchmarks/e2e/child.py --workload quickstart --seed 0 --work-dir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None,
                        help="traced runs: write the span columns here (.npz)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import cells
    from repro.simulator import Simulation
    from speed import SpeedProbe

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder, cells, cells.REDUCERS)

    probe = SpeedProbe()
    # CPU time at the first Simulation.run, less the probe's.
    first_run: List[float] = []
    original_run = Simulation.run

    def run(self: Any, *run_args: Any, **kwargs: Any) -> Any:
        if not first_run:
            first_run.append(thread_time() - probe.sampled_s)
        return original_run(self, *run_args, **kwargs)

    Simulation.run = run  # type: ignore[method-assign]

    error = None
    result = None
    with nullcontext() if args.trace else probe:
        start = perf_counter()  # repro: ignore[RPR001] -- host timing of the bench itself
        cpu_start = thread_time()
        try:
            result = cells.WORKLOADS[args.workload](args.seed, args.scale, args.work_dir)
        except Exception:
            error = traceback.format_exc()
        cpu_end = thread_time() - probe.sampled_s
        end = perf_counter()  # repro: ignore[RPR001] -- host timing of the bench itself
    slowdown = probe.slowdown()

    figures = result.figures if result is not None else {}
    cpu = cpu_end - cpu_start
    out: Dict[str, Any] = {
        "cpu_s": cpu,
        "slowdown": slowdown,
        "ref_cpu_s": cpu / slowdown,
        "setup_s": ((first_run[0] if first_run else cpu_end) - cpu_start) / slowdown,
        "wall_s": end - start,
        "completed": result.completed if result is not None else 0,
        "digests": {label: cells.digest(figure) for label, figure in figures.items()},
        "cell_completed": {label: int(figure["completed"]) for label, figure in figures.items()},
        "error": error,
    }
    if recorder is not None:
        out["layers"] = tracing.layer_metrics(recorder, out["wall_s"], out["completed"])
        out["layer_self_s"] = tracing.layer_self_times(recorder)
        if args.spans is not None:
            import numpy as np

            np.savez(args.spans, site_names=np.array(recorder.site_names), **recorder.columns())
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
