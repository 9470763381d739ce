#!/usr/bin/env python3
"""Paired A/B runner for the host-time benchmark.

    python3 scripts/ab.py --parent dd3c176 --change HEAD \\
        --workload p2p-manyvc --pairs 10 --seconds 40

Extracts both git revisions into their own trees under build/ab/ (with
`git archive`, so a tree never shares a CMake cache with another), each
with its own build directory (CARGO_TARGET_DIR). Then runs N pairs of
`hostbench/run.py --workload W --seconds T --trace 0`, one run of each
tree per pair on the same seed, alternating which tree goes first. Seeds
are distinct across pairs and never 7919.

For every end-to-end metric in BENCHMARK.json it prints the median of
the per-pair change/parent ratios, how many pairs the change won, the
parent's interquartile range (IQR) and a verdict: "WORSE than bound",
"unresolved" (the parent's IQR, relative to its median, is wider than
the metric's bound, and not every change run beats every parent run),
"better, beyond IQR" / "worse, beyond IQR" (the medians differ by more
than the parent's IQR) or "within IQR". Exits 1 when any metric's median
ratio is worse than that metric's `bound` in BENCHMARK.json, or when any
run reports a failed operation. BENCHMARK.json is only read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "build", "ab")
RESERVED_SEED = 7919


def load_metrics(path):
    """End-to-end metrics of BENCHMARK.json: [(name, better, bound)]."""
    with open(path) as f:
        doc = json.load(f)
    return [(m["name"], m["better"], float(m["bound"]))
            for m in doc["end_to_end"]]


def pair_seeds(first, n):
    """`n` distinct seeds counting up from `first`, skipping 7919."""
    seeds = []
    s = first
    while len(seeds) < n:
        if s != RESERVED_SEED:
            seeds.append(s)
        s += 1
    return seeds


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def summarize(parent, change, better, bound):
    """Pairs up `parent` and `change` values of one metric.

    Returns the median change/parent ratio, the pairs the change won,
    the parent's median and IQR, the change's median, whether the change
    median is better, whether the median difference exceeds the parent
    IQR, whether the parent's spread is too wide for `bound` to resolve,
    and whether the median ratio is worse than `bound`.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    ratios = [c / p if p else float("inf") if c else 1.0
              for p, c in zip(parent, change)]
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    ratio = statistics.median(ratios)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    spread = iqr(parent)
    regressed = ratio > 1.0 + bound if lower else ratio < 1.0 - bound
    relative_spread = (spread / abs(p_med) if p_med
                       else float("inf") if spread else 0.0)
    every_run_better = (max(change) < min(parent) if lower
                        else min(change) > max(parent))
    return {
        "median_ratio": ratio,
        "wins": wins,
        "pairs": len(parent),
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": spread,
        "better": c_med < p_med if lower else c_med > p_med,
        "beyond_iqr": abs(c_med - p_med) > spread,
        "unresolved": relative_spread > bound and not every_run_better,
        "regressed": regressed,
    }


def verdict(s, bound):
    """One summarize() row's verdict, as format_table prints it."""
    if s["regressed"]:
        return f"WORSE than bound {bound:g}"
    if s["unresolved"]:
        return "unresolved"
    if s["beyond_iqr"]:
        return ("better" if s["better"] else "worse") + ", beyond IQR"
    return "within IQR"


def format_table(workload, rows):
    """Markdown table of summarize() rows: [(name, bound, summary)]."""
    out = [f"workload {workload}",
           "| metric | parent median | change median | median ratio "
           "| wins | parent IQR | verdict |",
           "|---|---|---|---|---|---|---|"]
    for name, bound, s in rows:
        out.append(f"| {name} | {s['parent_median']:.6g} "
                   f"| {s['change_median']:.6g} | {s['median_ratio']:.3f} "
                   f"| {s['wins']}/{s['pairs']} | {s['parent_iqr']:.4g} "
                   f"| {verdict(s, bound)} |")
    return "\n".join(out)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev):
    """Extracts `rev` into build/ab/<sha>/ once; returns the tree path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, sha[:12])
    marker = os.path.join(tree, ".ab_rev")
    if not os.path.isfile(marker):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
        with open(marker, "w") as f:
            f.write(sha + "\n")
    return tree


def run_once(tree, workload, seed, seconds):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = tree + "-target"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(tree, "hostbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"no result from {' '.join(cmd)}")
    result = json.loads(lines[-1])
    return {n: m["value"] for n, m in result["metrics"].items()}, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision (before)")
    ap.add_argument("--change", default="HEAD", help="git revision (after)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    metrics = load_metrics(os.path.join(ROOT, "BENCHMARK.json"))
    trees = {"parent": extract(args.parent), "change": extract(args.change)}
    runs = {"parent": [], "change": []}
    failed = 0
    for i, seed in enumerate(pair_seeds(args.first_seed, args.pairs)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, result = run_once(trees[side], args.workload, seed,
                                      args.seconds)
            failed += result["failed"]
            runs[side].append(values)
            print(f"pair {i + 1} seed {seed} {side}: "
                  f"ns_per_cell {values.get('ns_per_cell', 0):.1f} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    rows = []
    for name, better, bound in metrics:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        rows.append((name, bound, summarize(parent, change, better, bound)))
    print(format_table(args.workload, rows))
    print(f"failed operations: {failed}")
    regressed = [name for name, _, s in rows if s["regressed"]]
    if regressed:
        print("regressed past bound: " + ", ".join(regressed))
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
