#!/usr/bin/env python3
"""End-to-end benchmark of the AQL system; aqlbench/README.md has the design.

    python3 aqlbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 aqlbench/run.py --test      # the seeded-generator test

Run from the root of a checkout. Builds the benchmark package (Release)
from the checkout's own sources into $CARGO_TARGET_DIR, or .bench_build
when that is unset, runs one workload, prints every metric with its unit,
base and the run's provenance, and prints one JSON result line last:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Exits 0 only when every answer was right and
every premise and layer-sum check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("aqlbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark package; returns its dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AQL sources at %s/src: run from the root of a checkout" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "aql_bench", "gen_test",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; full log in %s" % log_path)
    return build_dir


def source_digest():
    """sha256 over the sources the binary is built from (path + bytes)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the generator test")
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build(os.path.join(build_root, "aqlbench"))
    if args.test:
        sys.exit(subprocess.run([os.path.join(build_dir, "gen_test")]).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail("unknown workload %r; one of %s" % (args.workload, sorted(names)))

    data_dir = os.path.join(build_root, "run-%d" % os.getpid())
    os.makedirs(data_dir, exist_ok=True)
    try:
        done = subprocess.run(
            [os.path.join(build_dir, "aql_bench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--data-dir", data_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with code %d and no report" % done.returncode)
    report = json.loads(lines[-1])

    info = report["info"]
    info["git_commit"] = git_commit()
    info["source_sha256"] = source_digest()
    print("aqlbench %s seed=%s trace=%s seconds=%s" %
          (args.workload, args.seed, args.trace, args.seconds))
    for key in sorted(info):
        print("  %-16s %s" % (key, info[key]))
    print("metrics:")
    for name in sorted(report["metrics"]):
        m = report["metrics"][name]
        print("  %-38s %16.6f %-12s %s" % (name, m["value"], m["unit"], m["base"]))
    print("checks:")
    for c in report["checks"]:
        print("  %-44s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for e in report["errors"]:
        print("error: " + e)

    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("the benchmark did not report %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct and all(c["ok"] for c in report["checks"]) else 1)


if __name__ == "__main__":
    main()
