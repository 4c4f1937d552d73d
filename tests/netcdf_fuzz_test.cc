// Property tests for the NetCDF codec: randomized file layouts round-trip
// byte-exactly through write→read, and random byte corruption never
// crashes the reader (it fails with FormatError or reads garbage values,
// never UB).

#include <random>

#include "base/strings.h"
#include "gtest/gtest.h"
#include "netcdf/reader.h"
#include "netcdf/writer.h"

namespace aql {
namespace netcdf {
namespace {

struct RandomFile {
  std::vector<uint8_t> bytes;
  // Expected data per variable, in declaration order.
  std::vector<std::vector<double>> data;
  std::vector<std::string> names;
  uint64_t numrecs = 0;
};

NcType RandomNumericType(std::mt19937_64* rng) {
  switch ((*rng)() % 5) {
    case 0: return NcType::kByte;
    case 1: return NcType::kShort;
    case 2: return NcType::kInt;
    case 3: return NcType::kFloat;
    default: return NcType::kDouble;
  }
}

// Values representable exactly in every numeric external type.
double RandomSmallValue(std::mt19937_64* rng) {
  return double(int64_t((*rng)() % 200)) - 100.0;
}

RandomFile MakeRandomFile(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomFile out;
  NcWriter w(rng() % 2 == 0 ? 1 : 2);

  size_t ndims = 1 + rng() % 3;
  bool with_record = rng() % 2 == 0;
  std::vector<uint32_t> dim_ids;
  std::vector<uint64_t> dim_lens;
  if (with_record) {
    out.numrecs = 1 + rng() % 3;
    dim_ids.push_back(w.AddDim("rec", 0));
    dim_lens.push_back(out.numrecs);
  }
  for (size_t i = 0; i < ndims; ++i) {
    uint64_t len = 1 + rng() % 4;
    dim_ids.push_back(w.AddDim(StrCat("d", i), len));
    dim_lens.push_back(len);
  }
  if (rng() % 2 == 0) {
    w.AddGlobalAttr(NcAttr{"seed", NcType::kInt, {double(seed % 1000)}, ""});
  }

  size_t nvars = 1 + rng() % 4;
  for (size_t v = 0; v < nvars; ++v) {
    // Pick a contiguous suffix-respecting subset: record vars must start
    // with the record dim; fixed vars must avoid it.
    std::vector<uint32_t> ids;
    std::vector<uint64_t> lens;
    bool record_var = with_record && rng() % 2 == 0;
    size_t start = record_var ? 0 : (with_record ? 1 : 0);
    ids.push_back(dim_ids[start]);
    lens.push_back(dim_lens[start]);
    for (size_t i = start + 1; i < dim_ids.size(); ++i) {
      if (rng() % 2 == 0) {
        ids.push_back(dim_ids[i]);
        lens.push_back(dim_lens[i]);
      }
    }
    uint64_t total = 1;
    for (uint64_t l : lens) total *= l;
    std::vector<double> data;
    data.reserve(total);
    for (uint64_t i = 0; i < total; ++i) data.push_back(RandomSmallValue(&rng));
    std::string name = StrCat("v", v);
    NcType type = RandomNumericType(&rng);
    if (type == NcType::kByte) {
      for (double& d : data) d = double(int64_t(d) % 100);  // fits int8
    }
    w.AddVar(name, type, ids, data,
             rng() % 2 == 0
                 ? std::vector<NcAttr>{NcAttr{"units", NcType::kChar, {}, "u"}}
                 : std::vector<NcAttr>{});
    out.data.push_back(std::move(data));
    out.names.push_back(std::move(name));
  }
  auto bytes = w.Encode(out.numrecs);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (bytes.ok()) out.bytes = *bytes;
  return out;
}

class NetcdfRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetcdfRoundTripProperty, WriteReadIsIdentity) {
  for (uint64_t i = 0; i < 40; ++i) {
    uint64_t seed = GetParam() * 1000 + i;
    RandomFile file = MakeRandomFile(seed);
    ASSERT_FALSE(file.bytes.empty());
    auto reader = NcReader::Open(file.bytes);
    ASSERT_TRUE(reader.ok()) << "seed " << seed << ": " << reader.status().ToString();
    ASSERT_EQ(reader->header().vars.size(), file.data.size());
    for (size_t v = 0; v < file.data.size(); ++v) {
      int index = reader->header().FindVar(file.names[v]);
      ASSERT_GE(index, 0) << file.names[v];
      auto data = reader->ReadAll(index);
      ASSERT_TRUE(data.ok()) << "seed " << seed << " var " << file.names[v] << ": "
                             << data.status().ToString();
      EXPECT_EQ(*data, file.data[v]) << "seed " << seed << " var " << file.names[v];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetcdfRoundTripProperty,
                         ::testing::Values(1, 2, 3, 1996, 777));

class NetcdfCorruptionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetcdfCorruptionProperty, CorruptBytesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  RandomFile file = MakeRandomFile(GetParam());
  ASSERT_FALSE(file.bytes.empty());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = file.bytes;
    // Flip a few bytes and/or truncate.
    size_t flips = 1 + rng() % 4;
    for (size_t f = 0; f < flips; ++f) {
      corrupted[rng() % corrupted.size()] ^= uint8_t(1 + rng() % 255);
    }
    if (rng() % 3 == 0) corrupted.resize(rng() % corrupted.size());
    auto reader = NcReader::Open(corrupted);
    if (reader.ok()) {
      // Header survived; reads must stay memory-safe (errors allowed).
      for (size_t v = 0; v < reader->header().vars.size(); ++v) {
        auto data = reader->ReadAll(int(v));
        (void)data;  // value or FormatError — either is fine
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetcdfCorruptionProperty,
                         ::testing::Values(11, 22, 1996));

// ---- crafted headers targeting the reader's checked arithmetic ----

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(uint8_t(v >> 24));
  out->push_back(uint8_t(v >> 16));
  out->push_back(uint8_t(v >> 8));
  out->push_back(uint8_t(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, uint32_t(v >> 32));
  PutU32(out, uint32_t(v));
}

void PutName(std::vector<uint8_t>* out, const std::string& name) {
  PutU32(out, uint32_t(name.size()));
  out->insert(out->end(), name.begin(), name.end());
  while (out->size() % 4 != 0) out->push_back(0);
}

// A syntactically valid CDF header whose fixed double variable "v" spans
// `dims`, with an arbitrary begin offset. version 1 encodes begin as u32,
// version 2 as u64.
std::vector<uint8_t> CraftHeader(int version, const std::vector<uint32_t>& dims,
                                 uint64_t begin) {
  std::vector<uint8_t> b{'C', 'D', 'F', uint8_t(version)};
  PutU32(&b, 0);  // numrecs
  PutU32(&b, 0x0A);  // dim_list
  PutU32(&b, uint32_t(dims.size()));
  for (size_t i = 0; i < dims.size(); ++i) {
    PutName(&b, StrCat("d", i));
    PutU32(&b, dims[i]);
  }
  PutU32(&b, 0);  // global attrs ABSENT
  PutU32(&b, 0);
  PutU32(&b, 0x0B);  // var_list
  PutU32(&b, 1);
  PutName(&b, "v");
  PutU32(&b, uint32_t(dims.size()));
  for (uint32_t i = 0; i < dims.size(); ++i) PutU32(&b, i);
  PutU32(&b, 0);  // var attrs ABSENT
  PutU32(&b, 0);
  PutU32(&b, 6);  // NC_DOUBLE
  PutU32(&b, 0);  // vsize (advisory)
  if (version == 1) {
    PutU32(&b, uint32_t(begin));
  } else {
    PutU64(&b, begin);
  }
  // A little data so small in-range reads have bytes to hit.
  for (int i = 0; i < 64; ++i) b.push_back(0);
  return b;
}

TEST(NetcdfCraftedHeader, HugeDimProductFailsWithoutOverflow) {
  // 0xFFFFFFF0^3 overflows uint64; every full-variable read must reject
  // via checked multiplication rather than wrapping into a small alloc.
  auto bytes = CraftHeader(1, {0xFFFFFFF0u, 0xFFFFFFF0u, 0xFFFFFFF0u}, 128);
  auto reader = NcReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto all = reader->ReadAll(0);
  ASSERT_FALSE(all.ok());
  EXPECT_NE(all.status().message().find("overflow"), std::string::npos)
      << all.status().ToString();
  auto slab = reader->ReadSlab(0, {0, 0, 0}, {0xFFFFFFF0u, 0xFFFFFFF0u, 0xFFFFFFF0u});
  ASSERT_FALSE(slab.ok());
  EXPECT_NE(slab.status().message().find("overflow"), std::string::npos);
}

TEST(NetcdfCraftedHeader, HugeDimExtentExceedsFileSize) {
  // The element count fits in 64 bits but the byte extent dwarfs the
  // file: the slab check must reject before any allocation.
  auto bytes = CraftHeader(1, {0xFFFFFFF0u, 2}, 128);
  auto reader = NcReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto all = reader->ReadAll(0);
  ASSERT_FALSE(all.ok());
  EXPECT_NE(all.status().message().find("exceeds file size"), std::string::npos)
      << all.status().ToString();
}

TEST(NetcdfCraftedHeader, HugeBeginOffsetOverflows) {
  // CDF-2 begin near UINT64_MAX: begin + element offset must go through
  // checked addition, then fail cleanly (offset overflow / past EOF).
  auto bytes = CraftHeader(2, {4}, 0xFFFFFFFFFFFFFFF0ull);
  auto reader = NcReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto slab = reader->ReadSlab(0, {2}, {2});
  ASSERT_FALSE(slab.ok());
  // Either the checked offset arithmetic or the read-past-EOF guard may
  // fire first; both are safe rejections.
  EXPECT_TRUE(
      slab.status().message().find("overflow") != std::string::npos ||
      slab.status().message().find("past end") != std::string::npos)
      << slab.status().ToString();
}

TEST(NetcdfCraftedHeader, BeginPastEofRejected) {
  auto bytes = CraftHeader(1, {4}, 0xFFFFFF00u);
  auto reader = NcReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto all = reader->ReadAll(0);
  ASSERT_FALSE(all.ok());
  EXPECT_TRUE(
      all.status().message().find("exceeds file size") != std::string::npos ||
      all.status().message().find("past end") != std::string::npos)
      << all.status().ToString();
}

}  // namespace
}  // namespace netcdf
}  // namespace aql
