#!/usr/bin/env python3
"""Pins the deterministic counters of the end-to-end smoke run.

`python3 bench/e2e/run.py --smoke` runs every workload twice and fails when
the two runs disagree; this checker compares both runs with the committed
values in tools/e2e_smoke_counters.json, so a change that moves a counter
fails even when it moves it the same way twice. It prints one line per
mismatch. A change that alters a counter on purpose updates the JSON file
and says why in CHANGES.md.

Usage: tools/check_smoke_counters.py [SMOKE_JSON]
  SMOKE_JSON defaults to build-e2e/results/smoke.json, which run.py --smoke
  writes. Exit status: 0 every counter matches, 1 a mismatch, 2 a missing
  or unreadable file.
"""

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = REPO / "tools" / "e2e_smoke_counters.json"
DEFAULT_SMOKE = REPO / "build-e2e" / "results" / "smoke.json"


def load(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as e:
        print(f"check_smoke_counters: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    expected = load(EXPECTED)
    smoke = load(argv[1] if len(argv) == 2 else DEFAULT_SMOKE)
    mismatches = []
    seen = set()
    for run in smoke.get("runs", []):
        workload = run.get("workload")
        want = expected.get(workload)
        if want is None:
            mismatches.append(f"{workload}: workload has no pinned counters")
            continue
        seen.add(workload)
        metrics = run.get("metrics", {})
        for name, value in want.items():
            got = metrics.get(name, {}).get("value")
            if got != value:
                mismatches.append(f"{workload} {name}: got {got}, want {value}")
    for workload in sorted(set(expected) - seen):
        mismatches.append(f"{workload}: no run in the smoke results")
    for line in mismatches:
        print(f"smoke counter mismatch: {line}")
    checked = sum(len(v) for v in expected.values())
    print(f"check_smoke_counters: {checked} counters, "
          f"{len(mismatches)} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
