"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each input is a JSON-lines file of run records as run.py appends them.
Runs of the base and the change are paired by workload, trace mode and
seed, in the order they were recorded. A row's verdict follows the pair
and quartile rules for claiming a gain:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ in its favour by
  more than the base runs' interquartile distance;
- unresolved: the base runs spread (interquartile distance over the
  median) wider than the metric's bound, unless every change run reads
  better than every base run;
- worse: the change median is worse than the base median by more than
  the bound;
- no worse: otherwise.

Per-layer metrics have no bound; for them "worse" mirrors "improved" and
"unresolved" is a median difference wider than the base spread that the
pairs do not settle.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base, change, pairs, lower_is_better: bool, bound: float | None) -> str:
    """Verdict for one metric on one workload; see the module docstring."""
    def gain(b, c):
        return b - c if lower_is_better else c - b

    med_b, med_c = statistics.median(base), statistics.median(change)
    spread = _iqr(base)
    diff = gain(med_b, med_c)
    wins = sum(gain(b, c) > 0 for b, c in pairs)
    losses = sum(gain(b, c) < 0 for b, c in pairs)
    settled = len(pairs) >= MIN_PAIRS
    if settled and wins >= WIN_SHARE * len(pairs) and diff > spread:
        return "improved"
    if bound is None:
        if settled and losses >= WIN_SHARE * len(pairs) and -diff > spread:
            return "worse"
        return "no worse" if -diff <= spread else "unresolved"
    if all(gain(b, c) > 0 for b in base for c in change):
        return "no worse"
    if spread > bound * abs(med_b):
        return "unresolved"
    if -diff > bound * abs(med_b):
        return "worse"
    return "no worse"


def compare(base_records, change_records, spec: dict) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs = defaultdict(lambda: ([], []))
    for side, records in ((0, base_records), (1, change_records)):
        for rec in records:
            runs[(rec["workload"], rec["trace"], rec["seed"])][side].append(rec)
    values = defaultdict(lambda: ([], [], []))  # (workload, metric) -> base, change, pairs
    for (workload, _, _), (base, change) in sorted(runs.items()):
        for side, recs in ((0, base), (1, change)):
            for rec in recs:
                for name, m in rec["metrics"].items():
                    values[(workload, name)][side].append(m["value"])
        for b, c in zip(base, change):
            for name in b["metrics"].keys() & c["metrics"].keys():
                values[(workload, name)][2].append(
                    (b["metrics"][name]["value"], c["metrics"][name]["value"]))
    rows = []
    for (workload, name), (base, change, pairs) in sorted(values.items()):
        if not base or not change or name not in metrics:
            continue
        m = metrics[name]
        med_b, med_c = statistics.median(base), statistics.median(change)
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": m["unit"],
            "base": med_b,
            "change": med_c - med_b,
            "ratio": med_c / med_b if med_b else None,
            "pairs": len(pairs),
            "verdict": verdict(base, change, pairs, m["better"] == "lower", m.get("bound")),
        })
    return rows


def main(base_path, change_path, spec: dict) -> int:
    rows = compare(load(base_path), load(change_path), spec)
    print(f"{'workload':8} {'metric':34} {'unit':6} {'base':>14} {'change':>14} "
          f"{'ratio':>8} {'pairs':>5}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.4f}"
        print(f"{r['workload']:8} {r['metric']:34} {r['unit']:6} {r['base']:14.6g} "
              f"{r['change']:+14.6g} {ratio:>8} {r['pairs']:5d}  {r['verdict']}")
    return 0
