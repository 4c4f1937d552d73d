#include "gen.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "netcdf/writer.h"

namespace aqlb {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Unit() { return double(Next() >> 11) * 0x1.0p-53; }

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng r(seed ^ (stream * 0xd1b54a32d192ed03ull));
  r.Next();
  return r.Next() ^ (index * 0x9e3779b97f4a7c15ull);
}

namespace {

std::string Num(uint64_t n) { return std::to_string(n); }

std::string Fixed2(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", d);
  return buf;
}

// Hourly temperature / humidity and half-hourly 3-altitude wind, the
// mismatched grids of the paper's §1 heat-wave query.
void MakeWeather(Rng* rng, uint64_t days, std::vector<double>* t, std::vector<double>* rh,
                 std::vector<double>* ws) {
  const double kPi = 3.14159265358979323846;
  for (uint64_t h = 0; h < days * 24; ++h) {
    double diurnal = std::sin(2 * kPi * (double(h % 24) - 9) / 24);
    double weekly = std::sin(2 * kPi * double(h / 24) / 7);
    t->push_back(std::round((78 + 12 * diurnal + 6 * weekly + 6 * rng->Unit()) * 16) / 16);
    rh->push_back(double(30 + rng->Below(60)));
  }
  for (uint64_t i = 0; i < days * 48 * 3; ++i) {
    ws->push_back(double(rng->Below(64)) / 4);
  }
}

std::vector<uint64_t> Nats(Rng* rng, uint64_t n, uint64_t below) {
  std::vector<uint64_t> out(n);
  for (uint64_t& x : out) x = rng->Below(below);
  return out;
}

std::string HeatwaveText(const std::string& threshold, const std::string& salt_filter) {
  return "{d | \\d <- gen!ND" + salt_filter +
         ", \\WS' == evenpos!(proj_col!(WS, 0)),"
         " \\TRW == zip_3!(T, RH, WS'),"
         " \\A == subseq!(TRW, d*24, d*24 + 23),"
         " heatindex!A > " + threshold + "}";
}

// ---- adhoc-compile templates. `salt` is unique per stream index and
// larger than any value a template computes, so `x < salt`, `x % salt`
// and `min2!(n, salt)` never change an answer.

constexpr uint64_t kSaltBase = 1ull << 24;
constexpr uint64_t kNeutralSalt = (1ull << 24) - 3;

enum Template : uint64_t { kHeatwave, kHist, kGroupby, kTranspose, kWindowT, kTemplates };

struct AdhocParams {
  uint64_t tmpl = 0;
  uint64_t p[3] = {0, 0, 0};
};

Op RenderAdhoc(const AdhocParams& q, uint64_t salt) {
  Op op;
  std::string s = Num(salt);
  switch (q.tmpl) {
    case kHeatwave:
      op.kind = "heatwave";
      op.text = HeatwaveText(Fixed2(85 + 0.25 * double(q.p[0])), ", d < " + s);
      break;
    case kHist:
      op.kind = "hist";
      op.text = "hist_fast!([[ (E[i] + " + Num(q.p[0]) + ") % " + Num(q.p[1]) +
                " | \\i < min2!(len!E, " + s + ") ]])";
      break;
    case kGroupby:
      op.kind = "groupby";
      op.text = "{ (k, sumset!vs) | (\\k, \\vs) <- nest!({ (x % " + Num(q.p[0]) +
                ", x * x) | \\x <- gen!" + Num(q.p[1]) + ", x < " + s + " }) }";
      break;
    case kTranspose:
      op.kind = "transpose";
      op.text = "transpose!([[ (i * " + Num(q.p[0]) + " + j) % " + s + " | \\i < " +
                Num(q.p[1]) + ", \\j < " + Num(q.p[2]) + " ]])";
      break;
    default:
      op.kind = "window";
      op.text = "subseq!(zip!(A, [[ B[i] % " + s + " | \\i < len!B ]]), " + Num(q.p[0]) +
                ", " + Num(q.p[0] + q.p[1] - 1) + ")";
      break;
  }
  op.variant = op.kind + "/" + Num(q.p[0]) + "/" + Num(q.p[1]) + "/" + Num(q.p[2]);
  return op;
}

// The answer-bearing parameter domains, per template.
AdhocParams DrawAdhoc(Rng* rng) {
  AdhocParams q;
  q.tmpl = rng->Below(kTemplates);
  switch (q.tmpl) {
    case kHeatwave:
      q.p[0] = rng->Below(64);  // threshold 85.00 .. 100.75
      break;
    case kHist:
      q.p[0] = rng->Below(4);       // shift
      q.p[1] = 4 + 2 * rng->Below(8);  // modulus 4 .. 18
      break;
    case kGroupby:
      q.p[0] = 2 + rng->Below(16);       // groups
      q.p[1] = 32 + 16 * rng->Below(2);  // elements
      break;
    case kTranspose:
      q.p[0] = 1 + rng->Below(4);
      q.p[1] = 4 + 2 * rng->Below(4);
      q.p[2] = 4 + 2 * rng->Below(4);
      break;
    default:
      q.p[0] = rng->Below(32);      // window start
      q.p[1] = 4 + 2 * rng->Below(8);  // window length
      break;
  }
  return q;
}

}  // namespace

AdhocData MakeAdhocData(uint64_t seed) {
  Rng rng(StreamSeed(seed, 1, 0));
  AdhocData d;
  d.days = 2;
  MakeWeather(&rng, d.days, &d.t, &d.rh, &d.ws);
  d.e = Nats(&rng, 64, 16);
  d.a = Nats(&rng, 64, 1000);
  d.b = Nats(&rng, 64, 1000);
  return d;
}

Op AdhocOp(uint64_t seed, uint64_t index) {
  Rng rng(StreamSeed(seed, 2, index));
  return RenderAdhoc(DrawAdhoc(&rng), kSaltBase + index);
}

std::vector<Op> AdhocVariants() {
  std::vector<Op> out;
  for (uint64_t a = 0; a < 64; ++a) out.push_back(RenderAdhoc({kHeatwave, {a, 0, 0}}, kNeutralSalt));
  for (uint64_t a = 0; a < 4; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      out.push_back(RenderAdhoc({kHist, {a, 4 + 2 * b, 0}}, kNeutralSalt));
    }
  }
  for (uint64_t a = 0; a < 16; ++a) {
    for (uint64_t b = 0; b < 2; ++b) {
      out.push_back(RenderAdhoc({kGroupby, {2 + a, 32 + 16 * b, 0}}, kNeutralSalt));
    }
  }
  for (uint64_t a = 0; a < 4; ++a) {
    for (uint64_t b = 0; b < 4; ++b) {
      for (uint64_t c = 0; c < 4; ++c) {
        out.push_back(RenderAdhoc({kTranspose, {1 + a, 4 + 2 * b, 4 + 2 * c}}, kNeutralSalt));
      }
    }
  }
  for (uint64_t a = 0; a < 32; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      out.push_back(RenderAdhoc({kWindowT, {a, 4 + 2 * b, 0}}, kNeutralSalt));
    }
  }
  return out;
}

PaperData MakePaperData(uint64_t seed) {
  Rng rng(StreamSeed(seed, 7, 0));
  PaperData d;
  d.days = 64;
  MakeWeather(&rng, d.days, &d.t, &d.rh, &d.ws);
  d.e = Nats(&rng, 2048, 64);
  d.v = Nats(&rng, 32768, 1000);
  d.w = Nats(&rng, 32768, 1000);
  d.cv = Nats(&rng, 512, 1000);
  d.k = Nats(&rng, 16, 10);
  d.mm = 18;
  d.ma = Nats(&rng, d.mm * d.mm, 100);
  d.mb = Nats(&rng, d.mm * d.mm, 100);
  d.mt = 256;
  d.m = Nats(&rng, d.mt * d.mt, 1000);
  d.window_lo = rng.Below(32768 - 64);
  return d;
}

std::vector<Op> PaperQueries() {
  return {
      {"heatwave", HeatwaveText("92.00", ""), "", "heatwave"},
      {"hist", "hist_fast!(E)", "", "hist"},
      {"groupby",
       "{ (k, sumset!vs) | (\\k, \\vs) <- nest!({ (x % 16, x * x) | \\x <- gen!128 }) }", "",
       "groupby"},
      {"transpose", "transpose!(M)", "", "transpose"},
      {"multiply", "matmul!(MA, MB)", "", "multiply"},
      {"conv", "conv1!(CV, K)", "", "conv"},
      {"window", "subseq!(zip!(V, W), LO, LO + 63)", "", "window"},
  };
}

Op PaperOp(uint64_t seed, uint64_t index) {
  static const std::vector<Op> queries = PaperQueries();
  Rng rng(StreamSeed(seed, 8, index));
  return queries[rng.Below(queries.size())];
}

std::vector<double> GridValues(uint64_t seed) {
  Rng rng(StreamSeed(seed, 9, 0));
  std::vector<double> g(kGridRows * kGridCols);
  for (double& x : g) x = double(rng.Below(1 << 20)) / 64;
  return g;
}

std::vector<double> ConstGridValues(uint64_t seed) {
  Rng rng(StreamSeed(seed, 10, 0));
  std::vector<double> c(kGridRows * kGridCols);
  const double constant = 2.5 + double(rng.Below(8));
  for (uint64_t i = 0; i < c.size(); ++i) {
    c[i] = i < kConstRows * kGridCols ? constant : double(rng.Below(1 << 16)) / 16;
  }
  return c;
}

aql::Result<std::vector<uint8_t>> EncodeGridFile(uint64_t seed) {
  aql::netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", kGridRows);
  uint32_t c = w.AddDim("col", kGridCols);
  w.AddVar("g", aql::netcdf::NcType::kDouble, {r, c}, GridValues(seed));
  w.AddVar("c", aql::netcdf::NcType::kDouble, {r, c}, ConstGridValues(seed));
  return w.Encode();
}

namespace {

struct HotSet {
  std::vector<std::pair<uint64_t, uint64_t>> origin;  // (row, col), hottest first
  std::vector<double> cumulative;                     // Zipf(1) weights
};

HotSet MakeHotSet(uint64_t seed) {
  Rng rng(StreamSeed(seed, 11, 0));
  HotSet h;
  double total = 0;
  for (uint64_t rank = 0; rank < 16; ++rank) {
    h.origin.emplace_back(rng.Below(kGridRows - kWindow + 1), rng.Below(kGridCols - kWindow + 1));
    total += 1.0 / double(rank + 1);
    h.cumulative.push_back(total);
  }
  for (double& c : h.cumulative) c /= total;
  return h;
}

Op WindowOp(const char* kind, uint64_t r0, uint64_t c0) {
  Op op;
  op.kind = kind;
  op.text = "[[ G[i + " + Num(r0) + ", j + " + Num(c0) + "] | \\i < " + Num(kWindow) +
            ", \\j < " + Num(kWindow) + " ]]";
  op.target = "/query";
  op.variant = "w/" + Num(r0) + "/" + Num(c0);
  op.r0 = r0;
  op.c0 = c0;
  op.rows = op.cols = kWindow;
  return op;
}

}  // namespace

Op TiledOp(uint64_t seed, uint64_t index) {
  const uint64_t cycle = index / kCycle;
  // The cycle's seeded order of op kinds.
  std::vector<char> kinds(kCycle, 'w');
  kinds[0] = 's';
  kinds[1] = kinds[2] = 'a';
  for (uint64_t i = 3; i < 12; ++i) kinds[i] = 'h';
  Rng order(StreamSeed(seed, 12, cycle));
  for (uint64_t i = kCycle - 1; i > 0; --i) std::swap(kinds[i], kinds[order.Below(i + 1)]);

  Rng rng(StreamSeed(seed, 13, index));
  switch (kinds[index % kCycle]) {
    case 's': {
      uint64_t blocks = (kGridRows - kStreamRows) / 32 + 1;
      Rng starts(StreamSeed(seed, 14, 0));
      uint64_t choice = rng.Below(4);
      uint64_t r0 = 0;
      for (uint64_t i = 0; i <= choice; ++i) r0 = starts.Below(blocks) * 32;
      Op op;
      op.kind = "stream";
      op.text = "[[ G[i + " + Num(r0) + ", j] | \\i < " + Num(kStreamRows) + ", \\j < " +
                Num(kGridCols) + " ]]";
      // no_cache: every stream is read and serialized, instead of being a
      // result-cache hit or miss depending on when the writer last ran.
      op.target = "/query?no_cache=1";
      op.variant = "s/" + Num(r0);
      op.r0 = r0;
      op.rows = kStreamRows;
      op.cols = kGridCols;
      return op;
    }
    case 'a': {
      Op op;
      op.kind = "aggregate";
      op.text = "summap(fn \\k => summap(fn \\l => CG[k, l])!(gen!" + Num(kGridCols) +
                "))!(gen!" + Num(kGridRows) + ")";
      // no_cache: every aggregate runs the zone-pruned fold instead of
      // being answered from the result cache.
      op.target = "/query?no_cache=1";
      op.variant = "a";
      return op;
    }
    case 'h': {
      const HotSet hot = MakeHotSet(seed);
      double u = rng.Unit();
      uint64_t rank = 0;
      while (rank + 1 < hot.cumulative.size() && u >= hot.cumulative[rank]) ++rank;
      return WindowOp("hot_window", hot.origin[rank].first, hot.origin[rank].second);
    }
    default:
      return WindowOp("window", rng.Below(kGridRows - kWindow + 1),
                      rng.Below(kGridCols - kWindow + 1));
  }
}

std::string WriteStatement(uint64_t k, const std::string& path) {
  return "writeval [[ i * " + Num(3 + k) + " + j | \\i < " + Num(kWriteSide) + ", \\j < " +
         Num(kWriteSide) + " ]] using NETCDF at (\"" + path + "\", \"w\");";
}

std::vector<double> WriteExpected(uint64_t k) {
  std::vector<double> out;
  for (uint64_t i = 0; i < kWriteSide; ++i) {
    for (uint64_t j = 0; j < kWriteSide; ++j) out.push_back(double(i * (3 + k) + j));
  }
  return out;
}

}  // namespace aqlb
