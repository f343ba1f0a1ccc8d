"""Compare two sets of benchmark results, one row per workload and metric.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py with
``--trace 0``.  Runs of the two sides are paired by workload seed.  Per
row the verdict is:

* improved   -- the change wins at least 9 of 10 pairs (ties count for
                neither) and its median beats the parent's by more than the
                parent's interquartile range;
* worse      -- the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
* unresolved -- neither, but one side's interquartile range exceeds the
                bound (as a share of its median), unless every run of the
                change reads better than every run of the parent;
* unchanged  -- otherwise.

Exits 1 when a row is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import benchmark_config, tail_percentile


def load(directory) -> dict:
    """workload -> seed -> result, trace-0 result files only."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3


def verdict(a, b, bound, lower_is_better) -> str:
    """Verdict for per-run values ``a`` (parent) and ``b`` (change), paired."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, q1_a, q3_a = summary(list(a.values()))
    med_b, q1_b, q3_b = summary(list(b.values()))
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    gain = sign * (med_a - med_b)
    if seeds and wins >= 0.9 * len(seeds) and gain > q3_a - q1_a:
        return "improved"
    if -gain > bound * med_a:
        return "worse"
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    all_better = max(sign * v for v in b.values()) < min(sign * v for v in a.values())
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def failed_frac(runs) -> str:
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return f"{failed / attempted:.4g} ({failed}/{attempted})" if attempted else "n/a"


def side_text(values, samples):
    med, q1, q3 = summary(values)
    label, tail = tail_percentile(samples)
    tail_text = f"{label} {tail:.4g}" if label else "-"
    return (f"{med:>10.4g} [{q1:.4g}, {q3:.4g}] {tail_text:>10} "
            f"n={len(values)}/{len(samples)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    config = benchmark_config()
    print(f"{'workload':<14} {'metric':<12} "
          f"{'parent median [q1, q3] tail n=runs/samples':<48} "
          f"{'change median [q1, q3] tail n=runs/samples':<48} verdict")
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, {}), change.get(workload, {})
        if not a_runs or not b_runs:
            print(f"{workload:<14} missing on one side")
            continue
        for m in config["end_to_end"]:
            name = m["name"]
            a = {s: r["metrics"][name] for s, r in a_runs.items()}
            b = {s: r["metrics"][name] for s, r in b_runs.items()}
            a_samples = [v for r in a_runs.values() for v in r["samples"][name]]
            b_samples = [v for r in b_runs.values() for v in r["samples"][name]]
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            print(f"{workload:<14} {name + ' ' + m['unit']:<12} "
                  f"{side_text(list(a.values()), a_samples):<48} "
                  f"{side_text(list(b.values()), b_samples):<48} {v}")
        print(f"{workload:<14} {'failed_frac':<12} {failed_frac(a_runs):<48} "
              f"{failed_frac(b_runs):<48}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
