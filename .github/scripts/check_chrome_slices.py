"""Check exported Chrome traces: at least one request slice per trace,
and no two slices on one ``(pid, tid)`` overlapping by more than 1e-3.

Usage: ``python .github/scripts/check_chrome_slices.py TRACE.json...``
"""

import json
import sys


def check_slices(path):
    """At least one request slice, none overlapping on a thread."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    lanes = {}
    for e in events:
        if e["ph"] == "X":
            lanes.setdefault((e["pid"], e["tid"]), []).append(
                (e["ts"], e["ts"] + e["dur"]))
    assert lanes, f"{path} has no request slices"
    for lane, spans in lanes.items():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start + 1e-3, f"{path} {lane}: overlap at {start}"


if __name__ == "__main__":
    paths = sys.argv[1:]
    assert paths, "no chrome traces given"
    for path in paths:
        check_slices(path)
    print(f"{len(paths)} chrome traces: slices present, no overlaps")
