#!/usr/bin/env python3
"""Paired host-time comparison of two git revisions on perfbench.

    python3 tools/perf_pairs.py BASE CHANGE [--workloads node-burst,rl-lowbatt]
        [--pairs 10] [--seeds 11-20] [--seconds 30] [--trace 0|1]

Run it from inside the repository.  It checks out BASE and CHANGE as two
detached `git worktree`s under a temporary directory (honouring TMPDIR),
then runs `perfbench/run.py` in each, alternately, for --pairs pairs per
workload.  Pair i uses the i-th seed of --seeds (cycling) in both
revisions, and the order inside a pair alternates
(base first on even pairs, change first on odd ones), so slow drift of a
shared host falls on both sides.  Each revision builds its own
`.bench_build/` on its first run; runs never overlap.

It prints one row per (workload, metric): each side's median, quartiles
and IQR, the median change, whether that change exceeds the base IQR,
and how many pairs the change won (by the metric's `better` direction in
CHANGE's BENCHMARK.json).  A run that does not report `correct: true`
and `failed: 0` is listed after the table and makes the exit code 1.

To measure uncommitted work, pass `$(git stash create)` as CHANGE: a
commit of the working tree that leaves the tree and the stash alone.
The worktrees are removed on exit.  Nothing under perfbench/ and no
BENCHMARK.json is written: each revision runs its own copy.

Exit codes: 0 all runs correct, 1 a run failed or was incorrect, 2 bad
arguments or a git error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def parse_seeds(text):
    """'11-20' or '3,5,7' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"bad seed list {text!r}")
    return seeds


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    lo_value, hi_value = sorted_values[lo], sorted_values[hi]
    return lo_value + (hi_value - lo_value) * (pos - lo)


def summarize(values):
    """(median, q1, q3, iqr) of a non-empty list."""
    s = sorted(values)
    q1, med, q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
    return med, q1, q3, q3 - q1


def wins(base, change, better):
    """Pairs in which `change` beats `base` strictly, by direction."""
    if better == "higher":
        return sum(c > b for b, c in zip(base, change))
    return sum(c < b for b, c in zip(base, change))


def row(workload, metric, unit, better, base, change):
    """One table row: both sides' spreads, the median change, the wins."""
    bm, bq1, bq3, biqr = summarize(base)
    cm, cq1, cq3, ciqr = summarize(change)
    rel = (cm - bm) / abs(bm) if bm else None  # None: no base to scale by
    return {
        "workload": workload, "metric": metric, "unit": unit,
        "better": better,
        "base": {"median": bm, "q1": bq1, "q3": bq3, "iqr": biqr},
        "change": {"median": cm, "q1": cq1, "q3": cq3, "iqr": ciqr},
        "median_change": rel,
        "gap_exceeds_base_iqr": abs(cm - bm) > biqr,
        "wins": wins(base, change, better), "pairs": len(base),
    }


def git(repo, *args):
    proc = subprocess.run(["git", "-C", repo, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        print(f"perf_pairs: git {' '.join(args)}: {proc.stderr.strip()}",
              file=sys.stderr)
        sys.exit(2)
    return proc.stdout.strip()


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns its JSON result or an error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "last line is not JSON"


def directions(tree):
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_table(rows):
    header = ("workload", "metric", "base med", "base q1-q3", "change med",
              "change q1-q3", "Δmed", ">IQR", "wins")
    lines = [header]
    for r in rows:
        b, c = r["base"], r["change"]
        lines.append((
            r["workload"], r["metric"], f"{b['median']:.6g}",
            f"{b['q1']:.4g}-{b['q3']:.4g}", f"{c['median']:.6g}",
            f"{c['q1']:.4g}-{c['q3']:.4g}",
            "n/a" if r["median_change"] is None
            else f"{r['median_change']:+.1%}",
            "yes" if r["gap_exceeds_base_iqr"] else "no",
            f"{r['wins']}/{r['pairs']}"))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workloads", default="node-burst,rl-lowbatt,"
                        "kernel-levels")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(str(e))
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    workloads = [w for w in args.workloads.split(",") if w]

    repo = git(".", "rev-parse", "--show-toplevel")
    revs = {side: git(repo, "rev-parse", "--verify", rev + "^{commit}")
            for side, rev in (("base", args.base), ("change", args.change))}
    tmp = tempfile.mkdtemp(prefix="perf_pairs-")
    trees = {side: os.path.join(tmp, side) for side in revs}
    samples = {}  # (workload, metric) -> {"base": [...], "change": [...]}
    units = {}
    failures = []
    try:
        for side, rev in revs.items():
            git(repo, "worktree", "add", "--detach", trees[side], rev)
        better = directions(trees["change"])
        for workload in workloads:
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("base", "change") if i % 2 == 0 \
                    else ("change", "base")
                results = {}
                for side in order:
                    result, error = run_once(trees[side], workload, seed,
                                             args.seconds, args.trace)
                    if result is not None and (not result["correct"]
                                               or result["failed"]):
                        error = f"correct={result['correct']} " \
                                f"failed={result['failed']}"
                    if error:
                        failures.append(f"{workload} seed {seed} {side}: "
                                        f"{error}")
                    results[side] = result
                    print(f"[{workload} pair {i + 1}/{args.pairs} seed {seed}]"
                          f" {side}: {'FAILED ' + error if error else 'ok'}",
                          file=sys.stderr)
                if any(r is None for r in results.values()):
                    continue
                for name, m in results["base"]["metrics"].items():
                    if name not in results["change"]["metrics"]:
                        continue
                    units[(workload, name)] = m["unit"]
                    per = samples.setdefault((workload, name),
                                             {"base": [], "change": []})
                    for side in revs:
                        per[side].append(
                            results[side]["metrics"][name]["value"])
    finally:
        for tree in trees.values():
            if os.path.isdir(tree):
                subprocess.run(["git", "-C", repo, "worktree", "remove",
                                "--force", tree], stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", repo, "worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)

    rows = [row(w, name, units[(w, name)], better.get(name, "lower"),
                s["base"], s["change"])
            for (w, name), s in samples.items()]
    print(f"base {revs['base'][:12]} vs change {revs['change'][:12]}: "
          f"{args.pairs} pairs x {args.seconds} s, seeds {args.seeds}, "
          f"trace {args.trace}")
    print_table(rows)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
