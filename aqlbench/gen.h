// Seeded input generator for the end-to-end benchmark.
//
// Every input the benchmark feeds AQL — query texts, bound arrays, the
// NetCDF grid file, the writer's payloads — is a pure function of the
// workload seed (and of a stream index). Nothing here reads program
// state: the program under test only ever receives what these functions
// return. gen_test.cc pins that the same seed gives byte-identical
// streams and files and that a different seed gives a different stream.

#ifndef AQLBENCH_GEN_H_
#define AQLBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"

namespace aqlb {

// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n);  // uniform in [0, n), n > 0
  double Unit();               // uniform in [0, 1)

 private:
  uint64_t state_;
};

// Seed of element `index` of a stream: streams are random-access, so the
// concurrent clients of a closed loop can draw from one shared counter.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index);

// One operation of a workload's stream.
struct Op {
  std::string kind;     // op class: "heatwave", "window", "aggregate", ...
  std::string text;     // the AQL expression sent
  std::string target;   // HTTP request target (tiled-http only)
  // Answer-bearing parameters: two ops with the same variant have the
  // same answer, so the oracle runs once per variant, not once per op.
  std::string variant;
  // Region of a tiled read (window, hot_window, stream); rows == 0 else.
  uint64_t r0 = 0, c0 = 0, rows = 0, cols = 0;
};

// ---- adhoc-compile: never-repeated instances of the paper's templates
// over small arrays. Each instance carries a unique constant (`salt`)
// that cannot change its answer, so no two texts — and no two resolved
// terms — are ever equal, while the answer depends only on a small
// parameter set the oracle enumerates once.

struct AdhocData {
  uint64_t days = 0;
  std::vector<double> t, rh, ws;  // ws is (days*48) x 3, row-major
  std::vector<uint64_t> e, a, b;
};
AdhocData MakeAdhocData(uint64_t seed);
Op AdhocOp(uint64_t seed, uint64_t index);
// One op per answer-bearing variant, with a neutral salt: the oracle's inputs.
std::vector<Op> AdhocVariants();

// ---- paper-analytics: a fixed set of paper queries at realistic sizes.

struct PaperData {
  uint64_t days = 0;
  std::vector<double> t, rh, ws;
  std::vector<uint64_t> e;       // hist' input
  std::vector<uint64_t> v, w;    // zip/subseq window
  std::vector<uint64_t> cv, k;   // conv1 signal and kernel
  uint64_t mm = 0;               // matmul operands are mm x mm
  std::vector<uint64_t> ma, mb;
  uint64_t mt = 0;               // transpose operand is mt x mt
  std::vector<uint64_t> m;
  uint64_t window_lo = 0;
};
PaperData MakePaperData(uint64_t seed);
// The fixed query set; the window query reads its start from the val LO.
std::vector<Op> PaperQueries();
Op PaperOp(uint64_t seed, uint64_t index);

// ---- tiled-http: a NetCDF grid larger than the tile cache, served over
// HTTP. Two variables of kGridRows x kGridCols doubles: "g" (seeded
// noise, windowed and streamed) and "c" (constant except its last
// eighth of rows, summed with zone-map pruning).

constexpr uint64_t kGridRows = 128;
constexpr uint64_t kGridCols = 64;
constexpr uint64_t kTileBytes = 1 << 10;        // 2 rows per tile, 64 tiles per variable
constexpr uint64_t kTileCacheBytes = 16 << 10;  // each variable is 4x the budget
constexpr uint64_t kConstRows = kGridRows - kGridRows / 8;
constexpr uint64_t kWindow = 16;      // window ops are kWindow x kWindow
constexpr uint64_t kStreamRows = 32;   // stream ops are kStreamRows x kGridCols
constexpr uint64_t kCycle = 32;       // ops per cycle: see TiledOp

std::vector<double> GridValues(uint64_t seed);       // "g", row-major
std::vector<double> ConstGridValues(uint64_t seed);  // "c", row-major
// The classic-format NetCDF file holding both variables.
aql::Result<std::vector<uint8_t>> EncodeGridFile(uint64_t seed);
// Each cycle of kCycle ops holds 20 novel windows, 9 hot windows drawn
// from a skewed set of 16, 2 full-grid sums and 1 large stream, in a
// seeded order.
Op TiledOp(uint64_t seed, uint64_t index);

// ---- the writer shared by all workloads: the k-th periodic writeval.
std::string WriteStatement(uint64_t k, const std::string& path);
std::vector<double> WriteExpected(uint64_t k);  // 16 x 16, row-major
constexpr uint64_t kWriteSide = 16;

}  // namespace aqlb

#endif  // AQLBENCH_GEN_H_
