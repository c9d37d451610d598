#!/usr/bin/env python3
"""Compare latency_us summaries across two sets of BENCH_*.json files.

Usage:
    bench_compare.py BASELINE CURRENT [--max-regression PCT] [--metric M]

BASELINE and CURRENT are each either a single BENCH_*.json file or a
directory containing BENCH_*.json files; directory mode pairs files by
basename and skips files present on only one side (with a note, so a
silently-vanished benchmark is visible in the log).

Every latency_us summary on both sides is paired by a stable key —
the file basename, the bench entry's "name", and any scalar shape
fields that distinguish repeated names (threads, clients, ...).
For each pair the chosen metric (default p50; p95/p99 are printed for
context but too noisy near bucket edges to gate on) is diffed, and the
run fails with exit code 1 if any pair regresses by more than
--max-regression percent (default 20).

Exit codes: 0 all within bounds, 1 regression found, 2 usage/IO error.
"""

import argparse
import json
import os
import sys

BENCH_PREFIX = "BENCH_"
# Scalar fields that identify a bench entry when "name" repeats.
SHAPE_FIELDS = ("threads", "clients", "rows")


def collect_summaries(path, base):
    """Map key -> latency_us dict for one BENCH_*.json file. `base` is
    the pairing name, so renamed baseline files still line up."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    if isinstance(doc.get("latency_us"), dict):
        out[base] = doc["latency_us"]
    for section in doc.values():
        if not isinstance(section, list):
            continue
        for entry in section:
            if not isinstance(entry, dict) or "latency_us" not in entry:
                continue
            key = base + ":" + str(entry.get("name", "?"))
            for field in SHAPE_FIELDS:
                if field in entry:
                    key += f":{field}={entry[field]}"
            out[key] = entry["latency_us"]
    return out


def bench_files(path):
    """Map basename -> path for one side of the comparison."""
    if os.path.isfile(path):
        return {os.path.basename(path): path}
    if os.path.isdir(path):
        return {
            name: os.path.join(path, name)
            for name in sorted(os.listdir(path))
            if name.startswith(BENCH_PREFIX) and name.endswith(".json")
        }
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(
        description="Diff latency_us across two BENCH_*.json sets.")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regression", type=float, default=20.0,
                    metavar="PCT",
                    help="fail when the metric grows by more than PCT "
                         "percent (default: 20)")
    ap.add_argument("--metric", default="p50",
                    choices=["p50", "p95", "p99", "mean"],
                    help="latency_us field to gate on (default: p50)")
    args = ap.parse_args()

    if os.path.isfile(args.baseline) and os.path.isfile(args.current):
        # Two explicit files pair with each other even when their
        # basenames differ (e.g. a saved BENCH_executor_baseline.json).
        name = os.path.basename(args.current)
        base_files = {name: args.baseline}
        cur_files = {name: args.current}
    else:
        base_files = bench_files(args.baseline)
        cur_files = bench_files(args.current)
    shared = sorted(set(base_files) & set(cur_files))
    if not shared:
        print("bench_compare: no BENCH_*.json files in common between "
              f"{args.baseline!r} and {args.current!r}", file=sys.stderr)
        return 2
    for name in sorted(set(base_files) ^ set(cur_files)):
        side = "baseline" if name in base_files else "current"
        print(f"  note: {name} only in {side}; skipped")

    regressions = []
    compared = 0
    for name in shared:
        base = collect_summaries(base_files[name], name)
        cur = collect_summaries(cur_files[name], name)
        for key in sorted(set(base) & set(cur)):
            b, c = base[key], cur[key]
            if args.metric not in b or args.metric not in c:
                continue
            before, after = float(b[args.metric]), float(c[args.metric])
            delta = (after - before) / before * 100.0 if before > 0 else 0.0
            compared += 1
            flag = ""
            if delta > args.max_regression:
                regressions.append((key, before, after, delta))
                flag = "  << REGRESSION"
            context = " ".join(
                f"{m}={b.get(m, '?')}->{c.get(m, '?')}"
                for m in ("p95", "p99") if m in b and m in c)
            print(f"  {key}: {args.metric} {before:.1f} -> {after:.1f} us "
                  f"({delta:+.1f}%)  [{context}]{flag}")
        for key in sorted(set(base) ^ set(cur)):
            side = "baseline" if key in base else "current"
            print(f"  note: summary {key} only in {side}; skipped")

    if not compared:
        print("bench_compare: no latency_us summaries in common",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"\nbench_compare: {len(regressions)} summaries regressed "
              f"more than {args.max_regression:.0f}% on {args.metric}:")
        for key, before, after, delta in regressions:
            print(f"  {key}: {before:.1f} -> {after:.1f} us ({delta:+.1f}%)")
        return 1
    print(f"\nbench_compare: OK — {compared} summaries within "
          f"{args.max_regression:.0f}% on {args.metric}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
