#!/usr/bin/env python3
"""A/B the end-to-end benchmark between a parent revision and the working tree.

Run from the root of the repository:

  python3 scripts/ab_pairs.py PARENT_REV [--workload NAME]... [--pairs N]
                              [--seed-base S] [--trace 0|1] [--workdir DIR]

`git archive`s PARENT_REV into a work directory, builds e2ebench for the
parent and for the working tree, each with its own CARGO_TARGET_DIR, and
runs N alternating pairs per workload (default: every workload in
BENCHMARK.json), each run as long as BENCHMARK.json's run_seconds: pair i
runs seed S+i on both sides, the parent first in even pairs and the
change first in odd ones.  Per workload and metric it
prints both medians, the parent's quartiles, the change's wins, ties and
losses, and a verdict:

  gain         the change wins at least 9/10 of the pairs and the medians
               differ by more than the parent's IQR (Q3 - Q1);
  worse        bounded metric: the change's median is worse than the
               parent's by more than the BENCHMARK.json bound; unbounded
               metric: the parent wins 9/10 and the medians differ by more
               than the parent's IQR;
  unresolved   bounded metric: the parent's IQR exceeds the bound and not
               every change run beats every parent run; unbounded metric:
               the change's median lies outside the parent's quartiles;
  within bound / within IQR   otherwise.

Exits 1 if a build fails or any run is not `correct` or has `failed > 0`,
and 2 on bad arguments.  Reads e2ebench/ and BENCHMARK.json; writes only
under the work directory (a fresh temporary one unless --workdir is given,
removed afterwards).
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def extract_parent(rev, dest):
    """Unpacks `git archive rev` into dest, unless dest already holds it."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    stamp = dest / ".ab_pairs_rev"
    if stamp.exists() and stamp.read_text().strip() == commit:
        return commit
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    stamp.write_text(commit + "\n")
    return commit


class Side:
    def __init__(self, name, tree, target_dir):
        self.name = name
        self.tree = tree
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))

    def run_py(self, *args):
        """Runs e2ebench/run.py; its build log is shown only on failure,
        and otherwise only the benchmark's own summary lines."""
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", *args], cwd=self.tree,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        for line in proc.stderr.splitlines():
            if proc.returncode != 0 or line.startswith("e2ebench:"):
                log(f"[{self.name}] {line}")
        return proc

    def build(self):
        """run.py --host builds the benchmark before printing the host."""
        proc = self.run_py("--host")
        if proc.returncode != 0:
            log(f"ab_pairs: {self.name} build failed")
            return False
        return True

    def run(self, workload, seed, trace):
        proc = self.run_py("--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", str(trace))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"ab_pairs: {self.name} {workload} seed {seed} exited "
                f"{proc.returncode}")
            return None
        return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """The choosing-metrics verdict for one metric over paired runs."""
    sign = 1 if better == "higher" else -1
    gains = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = len(parent) - gains - losses
    p50, c50 = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    shift = sign * (c50 - p50)  # positive: the change is better
    if 10 * gains >= 9 * len(parent) and shift > iqr:
        word = "gain"
    elif bound is None:
        if 10 * losses >= 9 * len(parent) and -shift > iqr:
            word = "worse"
        elif q1 <= c50 <= q3:
            word = "within IQR"
        else:
            word = "unresolved"
    elif p50 and -shift > bound * abs(p50):
        word = "worse"
    elif p50 and iqr > bound * abs(p50) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        word = "unresolved"
    else:
        word = "within bound"
    return {"parent_median": p50, "change_median": c50, "parent_q1": q1,
            "parent_q3": q3, "diff": (c50 - p50) / p50 if p50 else 0.0,
            "wins": gains, "ties": ties, "losses": losses, "verdict": word}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="parent revision, e.g. HEAD~1")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path,
                        help="keep the parent archive and both builds here")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    if args.pairs < 1:
        log("ab_pairs: --pairs must be >= 1")
        return 2
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    work = args.workdir or Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    work = work.resolve()
    try:
        try:
            commit = extract_parent(args.parent, work / "parent")
        except subprocess.CalledProcessError:
            log(f"ab_pairs: cannot archive revision {args.parent!r}")
            return 2
        parent = Side("parent", work / "parent", work / "build-parent")
        change = Side("change", ROOT, work / "build-change")
        if not (parent.build() and change.build()):
            return 1
        log(f"ab_pairs: parent {commit[:12]} vs working tree, "
            f"{args.pairs} pairs x {SECONDS} s, trace {args.trace}")

        ok = True
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = (parent, change) if i % 2 == 0 else (change, parent)
                for side in order:
                    result = side.run(workload, seed, args.trace)
                    if result is None:
                        return 1
                    if not result["correct"] or result["failed"]:
                        log(f"ab_pairs: {side.name} {workload} seed {seed} "
                            f"failed its checks: {result['failed']} of "
                            f"{result['attempted']} rounds")
                        ok = False
                    runs[side.name].append(result)
            seeds = f"{args.seed_base}-{args.seed_base + args.pairs - 1}"
            print(f"\n{workload}: {args.pairs} pairs, {SECONDS} s, "
                  f"seeds {seeds}, trace {args.trace}")
            if args.pairs < 10:
                print("  (fewer than ten pairs: verdicts are indicative, "
                      "not a claim)")
            print(f"  {'metric':32} {'unit':>5} {'parent p50':>12} "
                  f"{'change p50':>12} {'parent Q1':>12} {'parent Q3':>12} "
                  f"{'diff':>8} {'W/T/L':>8}  verdict")
            for name in runs["parent"][0]["metrics"]:
                spec_row = metrics.get(name, {})
                p = [r["metrics"][name]["value"] for r in runs["parent"]]
                c = [r["metrics"][name]["value"] for r in runs["change"]]
                row = verdict(p, c, spec_row.get("better", "lower"),
                              spec_row.get("bound"))
                unit = runs["parent"][0]["metrics"][name]["unit"]
                wtl = f"{row['wins']}/{row['ties']}/{row['losses']}"
                print(f"  {name:32} {unit:>5} "
                      f"{row['parent_median']:12.5g} "
                      f"{row['change_median']:12.5g} "
                      f"{row['parent_q1']:12.5g} {row['parent_q3']:12.5g} "
                      f"{row['diff']:+8.2%} {wtl:>8}  {row['verdict']}")
        if not ok:
            print("\nsome runs were not correct")
        return 0 if ok else 1
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
