#!/usr/bin/env python3
"""Run alternating benchmark pairs of a parent checkout and this one.

    python3 scripts/pairs.py --parent DIR --workload deep --pairs 10 --seed 71 --seconds 20

Run it from the root of this checkout; DIR is the root of the other one
(for example `git archive <rev> | tar -x -C DIR`). Pair i runs

    python3 perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0

once in each tree, from that tree's root, the parent first in even pairs
and this tree first in odd ones. Both sides of a pair get the same seed.

It prints, for each end-to-end metric that BENCHMARK.json names, each
side's median and quartiles, every pair's ratio (this tree over the
parent), how many pairs this tree won (ties count for neither), and
whether a gain holds: at least nine wins in ten pairs, and medians apart
by more than the distance between the parent's quartiles. A run that
fails, or whose checks fail, is reported and its pair left out.

This script only invokes run.py; it edits nothing in either tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(root, workload, seed, seconds):
    """One run.py run in the tree at root: its JSON summary, or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write("%s seed %d: run.py exited %d\n%s" % (root, seed, p.returncode, p.stderr[-2000:]))
        return None
    out = json.loads(lines[-1])
    if not out.get("correct") or out.get("failed"):
        sys.stderr.write("%s seed %d: checks failed: %s\n" % (root, seed, lines[-1]))
        return None
    return out


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed; pair i uses seed+i")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    here = os.getcwd()
    parent = os.path.abspath(args.parent)
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    pairs = []  # (seed, parent summary, change summary)
    for i in range(args.pairs):
        seed = args.seed + i
        order = [(parent, "parent"), (here, "change")]
        if i % 2:
            order.reverse()
        got = {}
        for root, side in order:
            got[side] = run(root, args.workload, seed, args.seconds)
        if got["parent"] is None or got["change"] is None:
            print("pair %d (seed %d): left out, a run failed" % (i, seed))
            continue
        pairs.append((seed, got["parent"], got["change"]))
        vals = "  ".join("%s %.4g/%.4g" % (m["name"], got["parent"]["metrics"][m["name"]]["value"],
                                          got["change"]["metrics"][m["name"]]["value"]) for m in metrics)
        print("pair %d (seed %d, %s first): parent/change %s" % (i, seed, order[0][1], vals), flush=True)

    if not pairs:
        print("no complete pair")
        return 1
    print("\n%s, %d pairs of %g s runs" % (args.workload, len(pairs), args.seconds))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [p[1]["metrics"][name]["value"] for p in pairs]
        b = [p[2]["metrics"][name]["value"] for p in pairs]
        ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        print("%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        for side, xs in (("parent", a), ("change", b)):
            if len(xs) >= 2:
                q1, q2, q3 = quartiles(xs)
                print("  %-6s median %.4g, quartiles %.4g .. %.4g" % (side, q2, q1, q3))
            else:
                print("  %-6s %.4g" % (side, xs[0]))
        print("  ratios change/parent: %s" % " ".join("%.3f" % r for r in ratios))
        if len(pairs) < 2:
            continue
        pq1, pmed, pq3 = quartiles(a)
        cmed = statistics.median(b)
        shift = pmed - cmed if lower else cmed - pmed
        holds = wins * 10 >= 9 * len(pairs) and shift > pq3 - pq1
        print("  wins %d of %d; median shift %+.4g toward better, parent IQR %.4g: gain %s"
              % (wins, len(pairs), shift, pq3 - pq1, "holds" if holds else "not shown"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
