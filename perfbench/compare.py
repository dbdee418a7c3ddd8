"""Spread of one result file, or the verdict of a change over a parent.

    python3 perfbench/compare.py RUNS.jsonl              # medians, quartiles, spread
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result file holds one run.py record per line (run.py --record).  Per
workload and metric this prints the medians, the first and third quartiles
(statistics.quantiles, n=4) and, for two files, a verdict:

  improved    the change wins at least 9 of 10 seed-paired runs (or every
              change run beats every parent run) and the medians differ by
              more than the parent's own quartile spread
  worse       the change's median is worse by more than the metric's bound
              (for per-layer metrics, which have none: by more than the
              parent's spread)
  unresolved  the spread of either side exceeds the bound, and the runs do
              not separate completely
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> dict:
    """metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def load(path) -> dict:
    """(workload, metric) -> {seed: value}."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple:
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(parent: dict, change: dict, better: str, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0   # sign * (new - old) > 0 is worse
    old, new = list(parent.values()), list(change.values())
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == mn and spread(old) == spread(new) == 0.0:
        return "unchanged"
    worse_by = sign * (mn - mo) / abs(mo) if mo else sign * (mn - mo)
    parent_spread = spread(old)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    separated_better = max(sign * v for v in new) < min(sign * v for v in old)
    separated_worse = min(sign * v for v in new) > max(sign * v for v in old)
    if (separated_better or (pairs and wins >= 0.9 * len(pairs))) \
            and -worse_by > parent_spread:
        return "improved"
    limit = bound if bound is not None else parent_spread
    if bound is not None and max(parent_spread, spread(new)) > bound and not separated_worse:
        return "unresolved"
    if worse_by > limit:
        return "worse"
    return "unchanged"


def _fmt(v) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = declared()
    files = [load(p) for p in argv]
    keys = sorted(set(files[0]).intersection(*files[1:]))
    for workload, name in keys:
        better, bound = metrics.get(name, ("lower", None))
        cols = []
        for data in files:
            q1, med, q3 = quartiles(data[(workload, name)].values())
            cols.append(f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] "
                        f"spread {spread(data[(workload, name)].values()):.3f}")
        line = f"{workload:20s} {name:40s} " + " | ".join(cols)
        if len(files) == 2:
            line += "  " + verdict(files[0][(workload, name)], files[1][(workload, name)],
                                   better, bound)
        elif bound is not None:
            s = spread(files[0][(workload, name)].values())
            line += f"  bound {bound:g} ({'ok' if s <= bound / 3 else 'above a third'})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
