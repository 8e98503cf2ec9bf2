"""Compare two sets of benchmark records (parent and change).

    python3 bench/compare.py parent.jsonl change.jsonl [--claim cli-mix:latency_p50_ms]

Each file holds the records that `run.py --out FILE` appends, one run per
line. For every workload and end-to-end metric of BENCHMARK.json this
prints each side's median and quartiles and a verdict:

  ok           the change's median is not worse than the parent's by more
               than the metric's bound;
  REGRESSION   it is worse by more than the bound;
  unresolved   either side's quartile spread exceeds the bound, so the
               runs cannot tell, unless every change run beats every
               parent run.

A named claim counts pair wins over runs with the same seed on both
sides (ties count for neither). It holds when the change wins at least
nine tenths of the pairs and the medians differ by more than the
parent's quartile spread. Traced records get their per-layer medians
listed side by side, without bounds. The default and held-out seeds are
in bench/config.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(records, workload, metric, trace=0):
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and r["metrics"].get(metric, {}).get("value") is not None}


def verdict(parent, change, better, bound):
    """Verdict string and the change's relative worsening (+ is worse)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cm - pm) / pm
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound:
        beats = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
        return ("better (every run)" if beats else "unresolved"), worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def claim(parent, change, better):
    """Pair wins over common seeds and whether the gain is claimable."""
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds
               if (change[s] < parent[s] if better == "lower" else change[s] > parent[s]))
    p1, pm, p3 = quartiles([parent[s] for s in seeds]) if seeds else (0, 0, 0)
    cm = statistics.median([change[s] for s in seeds]) if seeds else 0
    holds = bool(seeds) and wins >= 0.9 * len(seeds) and abs(cm - pm) > (p3 - p1)
    return wins, len(seeds), holds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    workloads = sorted({r["workload"] for r in parent + change})
    regressions = 0
    print(f"{'workload':12s} {'metric':20s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'worse':>8s} bound  verdict")
    for wl in workloads:
        for m in bench["end_to_end"]:
            p = series(parent, wl, m["name"])
            c = series(change, wl, m["name"])
            if not p or not c:
                continue
            text, worse = verdict(list(p.values()), list(c.values()), m["better"], m["bound"])
            regressions += text == "REGRESSION"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{wl:12s} {m['name']:20s} {fmt(quartiles(list(p.values()))):>32s} "
                  f"{fmt(quartiles(list(c.values()))):>32s} {worse:+8.3f} {m['bound']:5.2f}  {text}"
                  f"  (n={len(p)}/{len(c)})")
        for m in bench["per_layer"]:
            p = series(parent, wl, m["name"], trace=1)
            c = series(change, wl, m["name"], trace=1)
            if p and c:
                print(f"{wl:12s} {m['name']:38s} parent {statistics.median(p.values()):.6g} "
                      f"change {statistics.median(c.values()):.6g} {m['unit']}")
    if args.claim:
        wl, metric = args.claim.split(":")
        spec = next(m for m in bench["end_to_end"] if m["name"] == metric)
        wins, pairs, holds = claim(series(parent, wl, metric), series(change, wl, metric),
                                   spec["better"])
        print(f"claim {args.claim}: change wins {wins} of {pairs} seed pairs; "
              f"{'holds' if holds else 'not met'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
