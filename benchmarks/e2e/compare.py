#!/usr/bin/env python3
"""Compare benchmark reports of two commits, metric by metric.

Reads the JSON reports ``run.py --out DIR`` writes -- one directory per
commit, at least ten seeds each, run in alternating order -- and judges
every end-to-end metric on every workload with the choosing-metrics
rules for a small sandbox:

* each side's median and quartiles over its runs;
* ``gain``: the change wins at least 9 in 10 seed-matched pairs (ties
  count for neither side) and the medians differ by more than the
  parent's own interquartile distance;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``;
* ``unresolved``: the parent's spread (IQR / median) is wider than the
  bound, unless every change run beats every parent run;
* ``no change`` otherwise.

A gain does not count when the change fails more operations.  Runs no
benchmark itself.  Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--json]

Exits 1 when any metric regressed or the change failed more operations.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
#: Least number of pairs the rules are meant for.
MIN_PAIRS = 10
WIN_FRACTION = 0.9


def load_reports(directory: pathlib.Path) -> Dict[Tuple[str, int], Dict]:
    """Untraced full (non-smoke) reports by (workload, seed)."""
    reports = {}
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(report, dict) or "workload" not in report \
                or report.get("trace") or report.get("smoke"):
            continue
        reports[(report["workload"], report["seed"])] = report
    return reports


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent: List[float], change: List[float], lower_better: bool,
          bound: float) -> Dict[str, Any]:
    """Verdict for one metric on one workload over paired runs."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    win_fraction = wins / len(parent)
    worse_by = ((c_med - p_med) if lower_better else (p_med - c_med)) \
        / p_med
    spread = (p_q3 - p_q1) / p_med
    all_better = all(better(c, p) for c in change for p in parent)
    if win_fraction >= WIN_FRACTION and better(c_med, p_med) \
            and abs(c_med - p_med) > p_q3 - p_q1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {"verdict": verdict, "parent": [p_q1, p_med, p_q3],
            "change": [c_q1, c_med, c_q3], "wins": wins,
            "pairs": len(parent), "worse_by": worse_by,
            "parent_spread": spread, "bound": bound}


def compare(parent_dir: pathlib.Path, change_dir: pathlib.Path,
            spec: Dict[str, Any]) -> Dict[str, Any]:
    parent, change = load_reports(parent_dir), load_reports(change_dir)
    paired = sorted(set(parent) & set(change))
    workloads = sorted({workload for workload, _ in paired})
    rows = []
    notes = []
    for workload in workloads:
        seeds = [seed for w, seed in paired if w == workload]
        if len(seeds) < MIN_PAIRS:
            notes.append(f"{workload}: only {len(seeds)} pairs "
                         f"(rules assume >= {MIN_PAIRS})")
        first = sum(1 for seed in seeds
                    if parent[workload, seed]["started_at"]
                    < change[workload, seed]["started_at"])
        if seeds and not 0 < first < len(seeds):
            notes.append(f"{workload}: pairs did not alternate which side "
                         "ran first")
        failed = [sum(side[workload, seed]["failed"] for seed in seeds)
                  for side in (parent, change)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge([parent[workload, s]["metrics"][name]["value"]
                         for s in seeds],
                        [change[workload, s]["metrics"][name]["value"]
                         for s in seeds],
                        metric["better"] == "lower", metric["bound"])
            if row["verdict"] == "gain" and failed[1] > failed[0]:
                row["verdict"] = "gain void: more failures"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "failed": failed, **row})
    return {"rows": rows, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--benchmark", type=pathlib.Path,
                        default=ROOT / "BENCHMARK.json")
    parser.add_argument("--json", action="store_true",
                        help="print the comparison as JSON")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    result = compare(args.parent, args.change, spec)
    if args.json:
        print(json.dumps(result, indent=1))
    else:
        print(f"{'workload':14s} {'metric':18s} {'parent median':>14s} "
              f"{'change median':>14s} {'worse by':>9s} {'spread':>7s} "
              f"{'bound':>6s} {'wins':>6s}  verdict")
        for row in result["rows"]:
            print(f"{row['workload']:14s} {row['metric']:18s} "
                  f"{row['parent'][1]:14.6g} {row['change'][1]:14.6g} "
                  f"{row['worse_by']:9.2%} {row['parent_spread']:7.2%} "
                  f"{row['bound']:6.2f} {row['wins']:>2d}/{row['pairs']:<3d} "
                  f" {row['verdict']}")
        for note in result["notes"]:
            print(f"note: {note}")
    bad = any(row["verdict"] == "regression"
              or row["failed"][1] > row["failed"][0]
              for row in result["rows"])
    return 1 if bad or not result["rows"] else 0


if __name__ == "__main__":
    sys.exit(main())
