#!/usr/bin/env python3
"""Per-layer diff of two traced benchmark outputs.

    python3 perfbench/layer_diff.py BEFORE AFTER

BEFORE and AFTER are layer files written by traced runs
(.bench_out/layers-<workload>-seed<N>.json) or directories holding them.
Several runs of one workload on one side are combined by their median. For
each workload present on both sides, prints every layer metric with both
values, the delta and the delta as a percentage of BEFORE, largest relative
change first, so a change to one layer shows where its effect landed.
"""

import json
import os
import statistics
import sys


def load_side(path):
    """{workload: {metric: (median value, unit)}} from a file or directory."""
    if os.path.isdir(path):
        files = [os.path.join(path, name) for name in sorted(os.listdir(path))
                 if name.startswith("layers-") and name.endswith(".json")]
    else:
        files = [path]
    samples = {}
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                run = json.loads(line)
                per_metric = samples.setdefault(run["workload"], {})
                for metric, value in run["metrics"].items():
                    per_metric.setdefault(metric, ([], value["unit"]))[0].append(
                        value["value"])
    return {workload: {metric: (statistics.median(values), unit)
                       for metric, (values, unit) in metrics.items()}
            for workload, metrics in samples.items()}


def diff(before, after):
    """Rows (workload, metric, unit, before, after, delta, delta_pct)."""
    rows = []
    for workload in sorted(set(before) & set(after)):
        b, a = before[workload], after[workload]
        for metric in sorted(set(b) & set(a)):
            old, unit = b[metric]
            new = a[metric][0]
            delta = new - old
            pct = 100.0 * delta / abs(old) if old else None
            rows.append((workload, metric, unit, old, new, delta, pct))
    rows.sort(key=lambda r: (r[0], -(abs(r[6]) if r[6] is not None else 0.0)))
    return rows


def format_rows(rows):
    lines = []
    workload = None
    for name, metric, unit, old, new, delta, pct in rows:
        if name != workload:
            workload = name
            lines.append("== %s" % name)
            lines.append("  %-40s %14s %14s %14s %9s  %s" %
                         ("metric", "before", "after", "delta", "delta%",
                          "unit"))
        lines.append("  %-40s %14.6g %14.6g %+14.6g %9s  %s" %
                     (metric, old, new, delta,
                      "n/a" if pct is None else "%+.1f%%" % pct, unit))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load_side(argv[1]), load_side(argv[2])
    rows = diff(before, after)
    if not rows:
        print("no workload appears on both sides", file=sys.stderr)
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
