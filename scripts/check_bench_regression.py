#!/usr/bin/env python3
"""Bench-regression guard: a fresh BENCH_<name>.json vs the committed baseline.

Both files must carry the same "bench" name (fastpath, sharded, ...).
Compares --field (default ns_per_packet; lower is better) of every
benchmark present in BOTH files (by exact name) whose name starts with
--filter, and fails when a fresh number exceeds the baseline by more than
the tolerance band.  The default tolerance is deliberately wide (+50%):
CI runners and the dev container are shared hosts with double-digit-
percent run-to-run noise, so a timing guard is a collapse detector (an
accidental O(n) in the sweep, a dropped SIMD tier, a debug build), not a
microregression tribunal.  Tighten it with --tolerance or
VPM_BENCH_TOLERANCE where the hardware is quiet, or to 0 for a
deterministic field such as wire_bytes_per_packet.  A row of the baseline
that carries the field must carry it in the fresh file too.

Exit codes: 0 ok / skipped, 1 regression, 2 bad invocation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str):
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    if not isinstance(d.get("bench"), str) or not isinstance(
            d.get("results"), list):
        sys.exit(f"error: {path} is not a BENCH_*.json record")
    return d


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="BENCH_fastpath.json",
                    help="committed baseline JSON (default: repo root copy)")
    ap.add_argument("--fresh", default="build/BENCH_fastpath.json",
                    help="freshly generated JSON (default: build/ copy)")
    ap.add_argument("--filter", default="BM_CacheObservePathSweep",
                    help="benchmark-name prefix to guard (default: the "
                         "path-count sweeps, the PR-level perf headline)")
    ap.add_argument("--field", default="ns_per_packet",
                    help="row field to compare, lower is better (default: "
                         "ns_per_packet)")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("VPM_BENCH_TOLERANCE", 0.5)),
                    help="allowed fractional slowdown, e.g. 0.5 = +50%% "
                         "(env VPM_BENCH_TOLERANCE overrides the default)")
    args = ap.parse_args()

    if args.tolerance < 0:
        print("error: tolerance must be >= 0", file=sys.stderr)
        return 2
    for path, what in ((args.baseline, "baseline"), (args.fresh, "fresh")):
        if not os.path.exists(path):
            # Skip-if-missing: a bench-less build (no google-benchmark) or a
            # first-ever run must not fail the guard.
            print(f"skip: {what} file {path} not found")
            return 0

    baseline, latest = load(args.baseline), load(args.fresh)
    if baseline["bench"] != latest["bench"]:
        print(f"error: baseline is bench {baseline['bench']!r} but fresh is "
              f"{latest['bench']!r}", file=sys.stderr)
        return 2
    base = {r["name"]: r[args.field] for r in baseline["results"]
            if args.field in r}
    fresh = {r["name"]: r.get(args.field) for r in latest["results"]}

    names = [n for n in base if n.startswith(args.filter) and n in fresh]
    if not names:
        print(f"skip: no common benchmarks match prefix {args.filter!r}")
        return 0
    missing = [n for n in names if fresh[n] is None]
    if missing:
        print(f"error: fresh rows lack {args.field!r}: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    bad = []
    width = max(map(len, names))
    print(f"{args.field}, tolerance: +{args.tolerance * 100:.0f}%  "
          f"({args.baseline} -> {args.fresh})")
    for n in names:
        ratio = fresh[n] / base[n]
        flag = "REGRESSION" if ratio > 1.0 + args.tolerance else "ok"
        print(f"  {n:<{width}}  {base[n]:9.4f} -> {fresh[n]:9.4f}  "
              f"x{ratio:5.2f}  {flag}")
        if flag != "ok":
            bad.append(n)
    if bad:
        print(f"FAIL: {len(bad)} benchmark(s) regressed past the "
              f"+{args.tolerance * 100:.0f}% band: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    print("ok: no regression past the band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
