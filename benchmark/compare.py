#!/usr/bin/env python3
"""Compare benchmark results of two commits, one verdict per (workload, metric).

    python3 benchmark/compare.py [--bench BENCHMARK.json] BASE NEW

BASE and NEW are directories, searched recursively for the result.json files
benchmark/run.sh writes, or single results.json or result.json files. Runs
of the two sides are paired by (workload, seed); measure at least ten pairs,
alternating which side runs first. Both sides must be full runs or both
--smoke runs; the script refuses to compare them otherwise.

Verdicts follow the repository's measurement rules:
  invalid      a run of the workload, on either side, failed its output
               check;
  improved     the change wins at least 9 of 10 pairs (ties count for
               neither), the medians differ by more than the parent's
               interquartile range, and the change's paired runs failed no
               more operations than the parent's;
  regressed    the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
  unresolved   fewer than 10 pairs, the parent's spread (IQR over median)
               is wider than the bound and not every run of the change reads
               better than every run of the parent, or a gain came with more
               failed operations;
  unchanged    otherwise.
Exits 1 if any pairing regressed or any run was invalid, 2 if the two sides
cannot be compared.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    # In a directory, read every workload's result.json; results.json
    # repeats them.
    files = []
    if os.path.isdir(path):
        for d, _, names in os.walk(path):
            files += [os.path.join(d, n) for n in names if n == "result.json"]
    else:
        files.append(path)
    runs = []
    for f in sorted(files):
        with open(f) as fh:
            doc = json.load(fh)
        runs += doc["runs"] if "runs" in doc else [doc]
    # End-to-end metrics come from untraced runs only.
    return [r for r in runs if not r.get("trace")]


def by_seed(runs):
    # (workload, metric) -> seed -> values; the failed-operation count
    # rides along as the pseudo-metric "failed".
    out = {}
    for r in runs:
        values = {name: m["value"] for name, m in r["metrics"].items()}
        values["failed"] = r["failed"]
        for name, value in values.items():
            out.setdefault((r["workload"], name), {}).setdefault(
                r["seed"], []).append(value)
    return out


def pairs_of(base, new):
    return [(b, n) for seed in sorted(set(base) & set(new))
            for b, n in zip(base[seed], new[seed])]


def verdict(base, new, bound, higher_is_better, more_failures):
    pairs = pairs_of(base, new)
    b_vals = [b for b, _ in pairs]
    n_vals = [n for _, n in pairs]
    if len(pairs) < 2:
        return "unresolved", len(pairs), None, None, None
    sign = 1 if higher_is_better else -1
    med_b, med_n = statistics.median(b_vals), statistics.median(n_vals)
    q1, _, q3 = statistics.quantiles(b_vals, n=4)
    spread = (q3 - q1) / abs(med_b) if med_b else float("inf")
    worse_by = sign * (med_b - med_n) / abs(med_b) if med_b else 0.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    all_better = min(sign * n for n in n_vals) > max(sign * b for b in b_vals)
    if len(pairs) < 10:
        v = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(med_n - med_b) > q3 - q1:
        # A gain does not count when more operations failed.
        v = "unresolved" if more_failures else "improved"
    elif worse_by > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, len(pairs), med_b, med_n, spread


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench",
                    default=os.path.join(here, "..", "BENCHMARK.json"))
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    smoke = {bool(r.get("smoke")) for r in base_runs + new_runs}
    if len(smoke) > 1:
        print("compare.py: smoke and full runs cannot be compared",
              file=sys.stderr)
        return 2
    invalid = {r["workload"] for r in base_runs + new_runs
               if not r.get("correct")}
    base, new = by_seed(base_runs), by_seed(new_runs)
    bad = bool(invalid)
    print(f"{'workload':14} {'metric':16} {'verdict':11} {'pairs':>5} "
          f"{'base':>12} {'new':>12} {'change':>8} {'spread':>7} {'bound':>6}")
    for w in sorted({w for w, _ in base}):
        failed = pairs_of(base.get((w, "failed"), {}),
                          new.get((w, "failed"), {}))
        failed_b = sum(b for b, _ in failed)
        failed_n = sum(n for _, n in failed)
        for m in bench["end_to_end"]:
            if w in invalid:
                print(f"{w:14} {m['name']:16} {'invalid':11}")
                continue
            key = (w, m["name"])
            v, n, med_b, med_n, spread = verdict(
                base.get(key, {}), new.get(key, {}), m["bound"],
                m["better"] == "higher", failed_n > failed_b)
            bad = bad or v == "regressed"
            if med_b is None:
                print(f"{w:14} {m['name']:16} {v:11} {n:5}")
                continue
            change = (med_n - med_b) / med_b if med_b else 0.0
            print(f"{w:14} {m['name']:16} {v:11} {n:5} {med_b:12.6g} "
                  f"{med_n:12.6g} {change:+8.2%} {spread:7.2%} "
                  f"{m['bound']:6.0%}")
        if failed_n != failed_b:
            print(f"{w:14} failed operations over the pairs: base {failed_b}, "
                  f"new {failed_n}")
    for w in sorted(invalid):
        print(f"{w}: a run failed its output check", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
