#!/usr/bin/env bash
# Runs a bench binary with google-benchmark's JSON reporter and distills
# the result to a compact {name, real_time_ns, items_per_second} list for
# EXPERIMENTS.md bookkeeping and before/after diffing. Times are converted
# to nanoseconds from each series' own time_unit (a benchmark registered
# with ->Unit(benchmark::kMillisecond) reports in ms).
#
# Usage: scripts/bench_to_json.sh [bench_target] [out_json] [build_dir]
#   defaults:      bench_exec       BENCH_exec.json   build
#
# Examples:
#   scripts/bench_to_json.sh                                  # BENCH_exec.json
#   scripts/bench_to_json.sh bench_parallel BENCH_parallel.json
set -eu
cd "$(dirname "$0")/.."

TARGET="${1:-bench_exec}"
OUT="${2:-BENCH_${TARGET#bench_}.json}"
BUILD="${3:-build}"
BIN="${BUILD}/bench/${TARGET}"

if [ ! -x "${BIN}" ]; then
  echo "error: ${BIN} not built (cmake --build ${BUILD} --target ${TARGET})" >&2
  exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT
"${BIN}" --benchmark_format=json --benchmark_min_time=0.05 >"${RAW}"

jq '{
  context: {date: .context.date, host: .context.host_name,
            num_cpus: .context.num_cpus, build: .context.library_build_type},
  benchmarks: [.benchmarks[]
    | select(.run_type == "iteration")
    | ({ns: 1, us: 1e3, ms: 1e6, s: 1e9}[.time_unit // "ns"]
       // error("unknown time_unit \(.time_unit) in \(.name)")) as $ns
    | {name, real_time_ns: (.real_time * $ns), cpu_time_ns: (.cpu_time * $ns)}
      + (if .items_per_second then {items_per_second} else {} end)]
}' "${RAW}" >"${OUT}"

echo "wrote ${OUT} ($(jq '.benchmarks | length' "${OUT}") series)"
