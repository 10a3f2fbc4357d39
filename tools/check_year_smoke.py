#!/usr/bin/env python3
"""Year-replay smoke gate for CI.

Compares the YEAR_SMOKE replay entry of a freshly generated BENCH_core.json
against the committed baseline: the metric-record digest must match
bit-for-bit (the year-scale workload exercises deep diurnal queue swings
the evaluation months don't, so a digest drift here can pass the monthly
replays).

The wall time is printed but not gated: the committed baseline's time was
recorded on another host, so a bound on it measures the host, not the
change. Timing is compared on one host by tools/ab_bench.py.

Usage: check_year_smoke.py CURRENT.json BASELINE.json
"""

import json
import sys

ENTRY = "YEAR_SMOKE"


def find_replay(doc, path):
    for replay in doc.get("replays", []):
        if replay.get("name") == ENTRY:
            return replay
    raise SystemExit(f"{path}: no {ENTRY} replay entry")


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    current_path, baseline_path = argv[1:]
    with open(current_path) as f:
        current = find_replay(json.load(f), current_path)
    with open(baseline_path) as f:
        baseline = find_replay(json.load(f), baseline_path)

    identical = current.get("digest") == baseline.get("digest")
    print(
        f"{ENTRY}: jobs={current.get('jobs')} "
        f"seconds={float(current.get('seconds', 0.0)):.3f} "
        f"(baseline {float(baseline.get('seconds', 0.0)):.3f}, not gated) "
        f"digest={'identical' if identical else 'CHANGED'} "
        f"{'ok' if identical else 'FAIL'}"
    )
    if not identical:
        print(
            f"  digest changed: {baseline.get('digest')} -> "
            f"{current.get('digest')} (schedule results differ)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
