#!/usr/bin/env bash
# Runs a bench binary with google-benchmark's JSON reporter and distills
# the result to a compact {name, real_time_ns, items_per_second} list for
# EXPERIMENTS.md bookkeeping and before/after diffing. Times are converted
# to nanoseconds from each series' own time_unit (a benchmark registered
# with ->Unit(benchmark::kMillisecond) reports in ms).
#
# The context records how the measured code was built: AQL's own build
# type, compiler, C++ flags and AQL_SANITIZE from <build_dir>/CMakeCache.txt,
# and the source commit, suffixed "-dirty" when src/, bench/ or the top
# CMakeLists.txt differ from it (google-benchmark's library_build_type
# describes the benchmark library, not AQL, so it is not recorded).
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

CACHE="${BUILD}/CMakeCache.txt"
if [ ! -f "${CACHE}" ]; then
  echo "error: ${CACHE} missing (configure ${BUILD} with cmake first)" >&2
  exit 1
fi
cache_get() { sed -n "s/^$1:[A-Z]*=//p" "${CACHE}" | head -n 1; }
BUILD_TYPE="$(cache_get CMAKE_BUILD_TYPE)"
CXX="$(cache_get CMAKE_CXX_COMPILER)"
TYPE_UPPER="$(printf '%s' "${BUILD_TYPE}" | tr '[:lower:]' '[:upper:]')"
FLAGS="$(cache_get CMAKE_CXX_FLAGS)"
[ -n "${TYPE_UPPER}" ] && FLAGS="${FLAGS:+${FLAGS} }$(cache_get "CMAKE_CXX_FLAGS_${TYPE_UPPER}")"
SANITIZE="$(cache_get AQL_SANITIZE)"
CXX_VERSION="$("${CXX}" --version 2>/dev/null | head -n 1 || true)"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Measured sources that differ from that commit are flagged, not hidden.
git diff --quiet HEAD -- src bench CMakeLists.txt 2>/dev/null || COMMIT="${COMMIT}-dirty"

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT
"${BIN}" --benchmark_format=json --benchmark_min_time=0.05 >"${RAW}"

jq --arg build_type "${BUILD_TYPE}" --arg compiler "${CXX_VERSION:-${CXX}}" \
   --arg flags "${FLAGS}" --arg sanitize "${SANITIZE}" --arg commit "${COMMIT}" '{
  context: {date: .context.date, host: .context.host_name,
            num_cpus: .context.num_cpus,
            aql: {build_type: $build_type, compiler: $compiler, cxx_flags: $flags,
                  sanitize: $sanitize, commit: $commit}},
  benchmarks: [.benchmarks[]
    | select(.run_type == "iteration")
    | ({ns: 1, us: 1e3, ms: 1e6, s: 1e9}[.time_unit // "ns"]
       // error("unknown time_unit \(.time_unit) in \(.name)")) as $ns
    | {name, real_time_ns: (.real_time * $ns), cpu_time_ns: (.cpu_time * $ns)}
      + (if .items_per_second then {items_per_second} else {} end)]
}' "${RAW}" >"${OUT}"

echo "wrote ${OUT} ($(jq '.benchmarks | length' "${OUT}") series)"
