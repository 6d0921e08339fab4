"""Median and quartiles per workload x metric, for one or two sets of runs.

Usage:
    python3 bench/compare.py BEFORE [AFTER]

Each argument is a run record written by run.py (under
.bench_work/results/) or a directory of them. Records are grouped by
workload, trace mode and metric. For each group the table gives the run
count, the median, the first and third quartiles (Python's
statistics.quantiles with n=4) and the spread: the distance between the
quartiles as a share of the median. With two sets it also gives the
change of the AFTER median against the BEFORE median, in percent, and
flags the runs that were not correct.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(arg: str) -> dict:
    """(workload, trace, metric) -> values, plus the unit and failed-run count."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict = defaultdict(list)
    units: dict = {}
    bad = defaultdict(int)
    for f in files:
        rec = json.loads(f.read_text())
        if not rec["correct"]:
            bad[(rec["workload"], rec["trace"])] += 1
        for name, m in rec["metrics"].items():
            key = (rec["workload"], rec["trace"], name)
            groups[key].append(m["value"])
            units[key] = m["unit"]
    return {"values": groups, "units": units, "bad": bad}


def stats(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(a) for a in argv]
    keys = sorted(set().union(*(s["values"] for s in sides)))
    head = f"{'workload':24} {'t':1} {'metric':32} {'unit':12}"
    for label in ("before", "after")[:len(sides)]:
        head += f" | {label + ' n':>9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if len(sides) == 2:
        head += f" | {'change':>8}"
    print(head)
    for key in keys:
        unit = next(s["units"][key] for s in sides if key in s["units"])
        line = f"{key[0]:24} {key[1]:1} {key[2]:32} {unit:12}"
        medians = []
        for s in sides:
            values = s["values"].get(key)
            if not values:
                line += f" | {0:9d} {'-':>12} {'-':>12} {'-':>12} {'-':>7}"
                medians.append(None)
                continue
            med, q1, q3, spread = stats(values)
            medians.append(med)
            line += f" | {len(values):9d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%}"
        if len(sides) == 2:
            a, b = medians
            line += f" | {(b - a) / a:8.2%}" if a and b is not None else f" | {'-':>8}"
        print(line)
    for i, s in enumerate(sides):
        for (workload, trace), n in sorted(s["bad"].items()):
            print(f"{argv[i]}: {n} run(s) of {workload} trace {trace} not correct")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
