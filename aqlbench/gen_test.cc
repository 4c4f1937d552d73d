// Seeded-generator test: the same seed gives byte-identical query streams
// and NetCDF files, a different seed gives a different stream, and the
// adhoc-compile stream never repeats a text while every op's answer is one
// the oracle enumerates. Run: `python3 aqlbench/run.py --test`.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "gen.h"

namespace aqlb {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%-58s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

// Every byte a workload's stream would send for its first `n` ops.
template <typename OpFn>
std::string StreamBytes(OpFn op_at, uint64_t seed, uint64_t n) {
  std::string out;
  for (uint64_t i = 0; i < n; ++i) {
    Op op = op_at(seed, i);
    out += op.kind + '\x1f' + op.target + '\x1f' + op.text + '\x1e';
  }
  return out;
}

template <typename T>
std::string Bytes(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

std::string AdhocDataBytes(uint64_t seed) {
  AdhocData d = MakeAdhocData(seed);
  return Bytes(d.t) + Bytes(d.rh) + Bytes(d.ws) + Bytes(d.e) + Bytes(d.a) + Bytes(d.b);
}

std::string PaperDataBytes(uint64_t seed) {
  PaperData d = MakePaperData(seed);
  return Bytes(d.t) + Bytes(d.rh) + Bytes(d.ws) + Bytes(d.e) + Bytes(d.v) + Bytes(d.w) +
         Bytes(d.cv) + Bytes(d.k) + Bytes(d.ma) + Bytes(d.mb) + Bytes(d.m) + std::to_string(d.window_lo);
}

std::string GridFileBytes(uint64_t seed) {
  auto bytes = EncodeGridFile(seed);
  return bytes.ok() ? Bytes(*bytes) : std::string();
}

int Run() {
  const uint64_t kN = 4000;
  for (auto [name, fn] : {std::pair{"adhoc-compile", &AdhocOp}, std::pair{"paper-analytics", &PaperOp},
                          std::pair{"tiled-http", &TiledOp}}) {
    std::string a = StreamBytes(fn, 7, kN);
    std::string label = std::string(name) + ": same seed, byte-identical stream";
    Expect(a == StreamBytes(fn, 7, kN), label.c_str());
    label = std::string(name) + ": different seed, different stream";
    Expect(a != StreamBytes(fn, 8, kN), label.c_str());
  }

  Expect(AdhocDataBytes(7) == AdhocDataBytes(7) && AdhocDataBytes(7) != AdhocDataBytes(8),
         "adhoc-compile: arrays are a function of the seed");
  Expect(PaperDataBytes(7) == PaperDataBytes(7) && PaperDataBytes(7) != PaperDataBytes(8),
         "paper-analytics: arrays are a function of the seed");
  std::string grid = GridFileBytes(7);
  Expect(!grid.empty() && grid == GridFileBytes(7), "tiled-http: same seed, byte-identical NetCDF");
  Expect(grid != GridFileBytes(8), "tiled-http: different seed, different NetCDF");
  Expect(grid.size() >= 2 * kGridRows * kGridCols * sizeof(double) &&
             kGridRows * kGridCols * sizeof(double) >= 4 * kTileCacheBytes,
         "tiled-http: each variable is at least 4x the tile cache");

  std::set<std::string> texts, variants;
  for (const Op& op : AdhocVariants()) variants.insert(op.variant);
  bool known = true;
  for (uint64_t i = 0; i < 20000; ++i) {
    Op op = AdhocOp(7, i);
    texts.insert(op.text);
    known = known && variants.count(op.variant) == 1;
  }
  Expect(texts.size() == 20000, "adhoc-compile: no text repeats in 20000 ops");
  Expect(known, "adhoc-compile: every op's variant is enumerated for the oracle");

  std::set<std::string> kinds;
  for (uint64_t i = 0; i < kCycle; ++i) kinds.insert(TiledOp(7, i).kind);
  Expect(kinds == std::set<std::string>{"window", "hot_window", "aggregate", "stream"},
         "tiled-http: one cycle holds every op class");
  Expect(WriteStatement(3, "o.nc") == WriteStatement(3, "o.nc") &&
             WriteExpected(3) != WriteExpected(4),
         "writer: statements and read-back references are per write");

  std::printf("gen_test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aqlb

int main() { return aqlb::Run(); }
