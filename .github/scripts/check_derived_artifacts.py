"""Check that a run's derived artifacts agree with its ``events.jsonl``.

For each run directory:

* each ``flight_recorder.json`` dump's trigger is line ``events_seen``
  of the run's ``events.jsonl`` (1-based), and its ring is the
  ``capacity`` lines ending at that line (fewer near the start);
* each per-kind counter of ``manifest.json`` (``scheduler.*``,
  ``estimator.refreshes``, ``validate.violations``,
  ``fleet.route_decisions``, ``fleet.rejections``, ``faults.*``,
  ``audit.<monitor>``) equals a count of the ``events.jsonl`` lines, and
  every such count is in the manifest;
* when the run has an ``audit_report.json``, its ``trips`` equal the
  run's ``audit`` lines of ``events.jsonl``, in order and field by field
  apart from ``kind`` (a line leaves out a ``None`` tenant), and the
  manifest's ``audit.trips`` equals their count.

The counts are taken from the JSON lines here, without importing the
package.  Directories without ``events.jsonl`` (quarantined cells,
which leave only ``manifest.json``) are skipped.

Usage: ``python .github/scripts/check_derived_artifacts.py RUN_DIR...``
"""

import json
import os
import sys
from collections import Counter

WHOLE = {
    "dispatch": "scheduler.dispatches",
    "complete": "scheduler.completions",
    "cancel": "scheduler.cancellations",
    "estimate": "estimator.refreshes",
    "invariant": "validate.violations",
    "route": "fleet.route_decisions",
}
MONITORS = ("lag", "bursty", "estimator_drift")


def canonical(record):
    return json.dumps(record, sort_keys=True)


def expected_counts(events):
    counts = Counter()
    for event in events:
        kind = event["kind"]
        if kind in WHOLE:
            counts[WHOLE[kind]] += 1
        if kind == "route" and not event["accepted"]:
            counts["fleet.rejections"] += 1
        elif kind == "fault":
            counts["faults." + event["fault"]] += 1
        elif kind == "audit":
            counts["audit." + event["monitor"]] += 1
    return counts


def is_event_count(name):
    return (
        name in WHOLE.values()
        or name == "fleet.rejections"
        or name.startswith("faults.")
        or name in {"audit." + m for m in MONITORS}
    )


def check_audit(run_dir, events, manifest):
    """Returns the number of audit trips checked."""
    report_path = os.path.join(run_dir, "audit_report.json")
    if not os.path.exists(report_path):
        return 0
    with open(report_path) as f:
        trips = json.load(f)["trips"]
    lines = [
        {k: v for k, v in event.items() if k != "kind"}
        for event in events
        if event["kind"] == "audit"
    ]
    want = [
        {k: v for k, v in trip.items() if not (k == "tenant" and v is None)}
        for trip in trips
    ]
    assert len(lines) == len(want), (
        f"{report_path}: {len(want)} trips, {len(lines)} audit lines in events.jsonl"
    )
    for i, (line, trip) in enumerate(zip(lines, want)):
        assert canonical(line) == canonical(trip), (
            f"{report_path}: trip {i} {trip} != audit line {line}"
        )
    count = manifest.get("audit", {}).get("trips")
    assert count == len(trips), (
        f"{run_dir}: manifest audit.trips {count} != {len(trips)} report trips"
    )
    return len(trips)


def check_run(run_dir):
    """Returns the numbers of flight dumps and audit trips checked."""
    with open(os.path.join(run_dir, "events.jsonl")) as f:
        lines = f.read().splitlines()
    events = [json.loads(line) for line in lines]
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    counters = manifest.get("counters", {})
    got = {k: v for k, v in counters.items() if is_event_count(k)}
    want = dict(expected_counts(events))
    assert got == want, f"{run_dir}: manifest counts {got} != events.jsonl {want}"
    trips = check_audit(run_dir, events, manifest)
    flight = os.path.join(run_dir, "flight_recorder.json")
    if not os.path.exists(flight):
        return 0, trips
    with open(flight) as f:
        payload = json.load(f)
    assert payload["dumps"], f"{flight} written without dumps"
    for dump in payload["dumps"]:
        seen = dump["events_seen"]
        assert canonical(dump["trigger"]) == canonical(events[seen - 1]), (
            f"{flight}: trigger is not line {seen} of events.jsonl"
        )
        assert len(dump["ring"]) == min(payload["capacity"], seen), flight
        ring = events[seen - len(dump["ring"]):seen]
        assert [canonical(e) for e in dump["ring"]] == [canonical(e) for e in ring], (
            f"{flight}: ring is not the lines before line {seen}"
        )
    return len(payload["dumps"]), trips


if __name__ == "__main__":
    dirs = [d for d in sys.argv[1:] if os.path.exists(os.path.join(d, "events.jsonl"))]
    assert dirs, "no traced run directories given"
    checked = [check_run(d) for d in dirs]
    dumps = sum(dump for dump, _ in checked)
    trips = sum(trip for _, trip in checked)
    print(f"{len(dirs)} runs: per-kind counters match events.jsonl, "
          f"{dumps} flight dumps are slices of it, "
          f"{trips} audit trips are its audit lines")
