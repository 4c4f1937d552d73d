#!/usr/bin/env python3
"""Repeat aqlbench runs and summarize them (aqlbench/README.md, "Comparing").

Spread of one tree over seeds (the noise floor each bound must clear):

    python3 aqlbench/compare.py spread --workload W [--seeds 10] [--trace 0]

Parent against change: two checkouts, run in alternating pairs, each pair
on a fresh seed shared by both sides:

    python3 aqlbench/compare.py pairs --base DIR --change DIR --workload W [--pairs 10]

Each checkout builds into its own .bench_build. Reports per metric the
median and quartiles, the spread (quartile distance over median), and for
pairs how many pairs the change won and the verdict of the bound rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(root, workload, seed, seconds, trace):
    """One run.py invocation in `root`; returns its result line."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "aqlbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed in %s (seed %d, exit %d)" % (root, seed, done.returncode))
    return json.loads(lines[-1])


def spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    root = os.path.dirname(HERE)
    s = spec(root)
    seconds = args.seconds or s["run_seconds"]
    results = [run(root, args.workload, args.first_seed + i, seconds, args.trace)
               for i in range(args.seeds)]
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    print("%-38s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    worst = 0.0
    for m in s[kind]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        sp = (q3 - q1) / q2 if q2 else 0.0
        bound = m.get("bound")
        if bound and m["name"] != "setup_s":
            worst = max(worst, sp / bound)
        print("%-38s %14.4f %14.4f %14.4f %8.4f %6s" %
              (m["name"], q1, q2, q3, sp, bound if bound else "-"))
    if args.trace == 0:
        print("largest spread / bound (setup_s excluded): %.3f" % worst)


def pairs(args):
    s = spec(args.base)
    base, change = {}, {}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [(args.base, base), (args.change, change)]
        if i % 2:
            order.reverse()
        for root, into in order:
            for name, m in run(root, args.workload, seed, s["run_seconds"], 0)["metrics"].items():
                into.setdefault(name, []).append(m["value"])
    print("%-22s %12s %12s %9s %6s %6s  verdict" %
          ("metric", "base p50", "change p50", "spread", "bound", "wins"))
    for m in s["end_to_end"]:
        b, c = base[m["name"]], change[m["name"]]
        b1, b2, b3 = quartiles(b)
        _, c2, _ = quartiles(c)
        higher = m["better"] == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        worse = (b2 - c2) / b2 if higher else (c2 - b2) / b2
        floor = (b3 - b1) / b2 if b2 else 0.0
        if wins >= 0.9 * len(b) and -worse > floor:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
        elif floor > m["bound"]:
            verdict = "unresolved (spread above bound)"
        else:
            verdict = "no regression"
        print("%-22s %12.3f %12.3f %9.4f %6.2f %3d/%-2d  %s" %
              (m["name"], b2, c2, floor, m["bound"], wins, len(b), verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--seconds", type=float, default=0)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pp = sub.add_parser("pairs")
    pp.add_argument("--base", required=True)
    pp.add_argument("--change", required=True)
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    spread(args) if args.mode == "spread" else pairs(args)


if __name__ == "__main__":
    main()
