"""Compare result sets of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds `<workload>.jsonl`: the last line that run.py printed,
one line per run, in the order the runs were made (alternate which side runs
first). Prints one row per workload and end-to-end metric: median and
quartiles of each side, then a verdict under the bounds in BENCHMARK.json:

- improved:   the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
- no worse:   the change's median is worse than the parent's by at most
              the bound, and the parent's own spread is within the bound
              (or every change run beats every parent run);
- worse:      the median is worse by more than the bound, with the spread
              within the bound;
- unresolved: the spread is wider than the bound, so neither can be said.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory, workload):
    path = Path(directory) / f"{workload}.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain <= bound * abs(pm) or all_better:
        return "no worse"
    return "worse"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':14s} {'metric':12s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s}  verdict")
    for w in spec["workloads"]:
        runs = [load(d, w["name"]) for d in argv]
        if not all(runs):
            print(f"{w['name']:14s} (no results on one side)")
            continue
        for side, rs in zip(("parent", "change"), runs):
            bad = sum(not r["correct"] for r in rs)
            if bad:
                print(f"{w['name']:14s} {side}: {bad} of {len(rs)} runs not correct")
        for m in spec["end_to_end"]:
            p, c = ([r["metrics"][m["name"]]["value"] for r in rs] for rs in runs)
            cells = ["/".join(f"{x:.5g}" for x in quartiles(v)) for v in (p, c)]
            print(f"{w['name']:14s} {m['name']:12s} {cells[0]:>32s} {cells[1]:>32s}  "
                  f"{verdict(p, c, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
