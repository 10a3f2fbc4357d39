#!/usr/bin/env python3
"""Same-host A/B comparison of two revisions with perfbench.

Usage (from anywhere inside the repository):

  tools/ab_bench.py BASE [HEAD] [--workload year] [--pairs 10]
                    [--seconds 15] [--seed 0]

BASE (and HEAD, when given) is any git revision. Each is checked out into a
temporary `git worktree` that is removed afterwards. Without HEAD the
current working tree, with its uncommitted changes, is the "head" side.

The script runs `perfbench/run.py --trace 0` of each side in turn, in N
interleaved pairs whose order alternates (base first, then head first) so
that slow drift of the host loads both sides alike. Each side's first run
also builds its runner; that build is not timed, because perfbench reports
only what its runner measures. For every end-to-end metric the report gives
the median of the per-pair ratios head/base, a 95% bootstrap interval of
that median (pairs resampled, fixed seed), and in how many pairs head is
better, beside the base side's median and interquartile range.
A run that reports "correct": false fails the script.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_perfbench(checkout, workload, seconds, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench failed in {checkout}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"perfbench in {checkout} reported incorrect "
                         f"results: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bootstrap_median(ratios, resamples=2000, seed=1):
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples)]


def compare(base_dir, head_dir, args, better):
    base_runs, head_runs = [], []
    for i in range(args.pairs):
        sides = [(base_dir, base_runs), (head_dir, head_runs)]
        if i % 2:
            sides.reverse()
        for checkout, runs in sides:
            runs.append(run_perfbench(checkout, args.workload, args.seconds,
                                      args.seed))
        print(f"pair {i + 1}/{args.pairs}: jobs_per_s base "
              f"{base_runs[-1].get('jobs_per_s', 0):.1f} head "
              f"{head_runs[-1].get('jobs_per_s', 0):.1f}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':<14}{'base median':>13}{'base IQR':>11}"
          f"{'head median':>13}{'ratio':>8}{'95% interval':>18}"
          f"  head better")
    for name, direction in better.items():
        pairs = [(b[name], h[name]) for b, h in zip(base_runs, head_runs)
                 if name in b and name in h]
        if not pairs:
            continue
        ratios = [h / b for b, h in pairs if b != 0]
        if not ratios:
            continue
        lo, hi = bootstrap_median(ratios)
        wins = sum((h > b) if direction == "higher" else (h < b)
                   for b, h in pairs)
        base = [b for b, _ in pairs]
        iqr = 0.0
        if len(base) > 1:
            q1, _, q3 = statistics.quantiles(base, n=4)
            iqr = q3 - q1
        print(f"{name:<14}{statistics.median(base):>13.4g}{iqr:>11.3g}"
              f"{statistics.median(h for _, h in pairs):>13.4g}"
              f"{statistics.median(ratios):>8.3f}"
              f"{f'[{lo:.3f}, {hi:.3f}]':>18}  {wins}/{len(pairs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--workload", default="year")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        worktrees = []

        def checkout(rev, name):
            path = Path(tmp) / name
            git("worktree", "add", "--detach", str(path), rev, cwd=root)
            worktrees.append(path)
            return path

        try:
            base_dir = checkout(args.base, "base")
            head_dir = checkout(args.head, "head") if args.head else root
            compare(base_dir, head_dir, args, better)
        finally:
            for path in worktrees:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(path)], cwd=root, check=False)


if __name__ == "__main__":
    main()
