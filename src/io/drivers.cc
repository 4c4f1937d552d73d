#include "io/drivers.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/env.h"
#include "base/strings.h"
#include "netcdf/reader.h"
#include "netcdf/writer.h"
#include "object/value_parser.h"
#include "storage/tile_store.h"

namespace aql {

namespace {

Result<std::string> ExpectString(const Value& v, const char* what) {
  if (v.kind() != ValueKind::kString) {
    return Status::InvalidArgument(StrCat(what, " must be a string, got ",
                                          ValueKindName(v.kind())));
  }
  return v.str_value();
}

// Decodes a bound argument: a nat for rank 1, a k-tuple of nats otherwise.
Result<std::vector<uint64_t>> ExpectBound(const Value& v, size_t rank, const char* what) {
  std::vector<uint64_t> out;
  if (rank == 1) {
    if (v.kind() != ValueKind::kNat) {
      return Status::InvalidArgument(StrCat(what, " must be a nat for a 1-d read"));
    }
    out.push_back(v.nat_value());
    return out;
  }
  if (v.kind() != ValueKind::kTuple || v.tuple_fields().size() != rank) {
    return Status::InvalidArgument(
        StrCat(what, " must be a ", rank, "-tuple of nats"));
  }
  for (const Value& f : v.tuple_fields()) {
    if (f.kind() != ValueKind::kNat) {
      return Status::InvalidArgument(StrCat(what, " components must be nats"));
    }
    out.push_back(f.nat_value());
  }
  return out;
}

}  // namespace

IoRegistry::ReaderFn MakeCoFileReader() {
  return [](const Value& args) -> Result<Value> {
    AQL_ASSIGN_OR_RETURN(std::string path, ExpectString(args, "COFILE argument"));
    std::ifstream in(path);
    if (!in) return Status::IoError(StrCat("cannot open ", path));
    std::stringstream buf;
    buf << in.rdbuf();
    return ParseValue(buf.str());
  };
}

IoRegistry::WriterFn MakeCoFileWriter() {
  return [](const Value& payload, const Value& args) -> Status {
    AQL_ASSIGN_OR_RETURN(std::string path, ExpectString(args, "COFILE argument"));
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Status::IoError(StrCat("cannot open ", path, " for writing"));
    out << payload.ToString() << "\n";
    if (!out) return Status::IoError(StrCat("failed writing ", path));
    return Status::OK();
  };
}

IoRegistry::ReaderFn MakeNetcdfReader(size_t rank) {
  return [rank](const Value& args) -> Result<Value> {
    if (args.kind() != ValueKind::kTuple || args.tuple_fields().size() != 4) {
      return Status::InvalidArgument(
          "NETCDF reader expects (filename, varname, lower, upper)");
    }
    const auto& f = args.tuple_fields();
    AQL_ASSIGN_OR_RETURN(std::string path, ExpectString(f[0], "filename"));
    AQL_ASSIGN_OR_RETURN(std::string var_name, ExpectString(f[1], "variable name"));
    AQL_ASSIGN_OR_RETURN(std::vector<uint64_t> lower, ExpectBound(f[2], rank, "lower bound"));
    AQL_ASSIGN_OR_RETURN(std::vector<uint64_t> upper, ExpectBound(f[3], rank, "upper bound"));

    AQL_ASSIGN_OR_RETURN(netcdf::NcReader reader, netcdf::NcReader::OpenFile(path));
    int var = reader.header().FindVar(var_name);
    if (var < 0) {
      return Status::NotFound(StrCat("no variable ", var_name, " in ", path));
    }
    const auto& shape = reader.header().VarShape(reader.header().vars[var]);
    if (shape.size() != rank) {
      return Status::InvalidArgument(
          StrCat("variable ", var_name, " has rank ", shape.size(), ", reader is NETCDF",
                 rank));
    }
    std::vector<uint64_t> count(rank);
    uint64_t slab_elems = 1;
    bool overflow = false;
    for (size_t j = 0; j < rank; ++j) {
      if (upper[j] < lower[j]) {
        return Status::InvalidArgument("upper bound below lower bound");
      }
      count[j] = upper[j] - lower[j] + 1;  // bounds are inclusive (§4.1)
      if (count[j] != 0 && slab_elems > UINT64_MAX / count[j]) overflow = true;
      slab_elems *= count[j];
    }

    // Large slabs stay out-of-core: back the array with the tile store so
    // tab/sum pipelines stream it tile-by-tile instead of materializing.
    // Small reads keep the eager flat buffer (no behavior change, and the
    // pread-backed reader already bounds their memory to the slab).
    const uint64_t threshold =
        EnvU64("AQL_TILED_READ_THRESHOLD", 8ull << 20) / sizeof(double);
    if (!overflow && slab_elems >= std::max<uint64_t>(threshold, 1)) {
      AQL_ASSIGN_OR_RETURN(
          std::shared_ptr<const LazyRealSlab> slab,
          storage::TileStore::Global().OpenSlab(path, var_name, lower, count));
      return Value::MakeTiledArray(std::move(slab));
    }

    AQL_ASSIGN_OR_RETURN(std::vector<double> data, reader.ReadSlab(var, lower, count));

    // CF packing convention: if the variable carries numeric scale_factor
    // / add_offset attributes (how real archives pack floats into shorts),
    // unpack transparently: value = raw * scale_factor + add_offset.
    double scale = 1.0, offset = 0.0;
    for (const netcdf::NcAttr& attr : reader.header().vars[var].attrs) {
      if (attr.name == "scale_factor" && attr.numbers.size() == 1) {
        scale = attr.numbers[0];
      } else if (attr.name == "add_offset" && attr.numbers.size() == 1) {
        offset = attr.numbers[0];
      }
    }
    // Unpack in place and hand the buffer straight to the unboxed real
    // payload: NetCDF ingest never boxes per cell.
    if (scale != 1.0 || offset != 0.0) {
      for (double& d : data) d = d * scale + offset;
    }
    return Value::MakeRealArray(std::move(count), std::move(data));
  };
}

IoRegistry::ReaderFn MakeNetcdfInfoReader() {
  return [](const Value& args) -> Result<Value> {
    AQL_ASSIGN_OR_RETURN(std::string path, ExpectString(args, "NETCDF_INFO argument"));
    AQL_ASSIGN_OR_RETURN(netcdf::NcReader reader, netcdf::NcReader::OpenFile(path));
    std::vector<Value> entries;
    for (const netcdf::NcVar& var : reader.header().vars) {
      std::vector<Value> dims;
      for (uint64_t d : reader.header().VarShape(var)) dims.push_back(Value::Nat(d));
      entries.push_back(
          Value::MakeTuple({Value::Str(var.name), Value::MakeVector(std::move(dims))}));
    }
    return Value::MakeSet(std::move(entries));
  };
}

IoRegistry::WriterFn MakeNetcdfWriter() {
  return [](const Value& payload, const Value& args) -> Status {
    if (args.kind() != ValueKind::kTuple || args.tuple_fields().size() != 2) {
      return Status::InvalidArgument("NETCDF writer expects (filename, varname)");
    }
    AQL_ASSIGN_OR_RETURN(std::string path, ExpectString(args.tuple_fields()[0], "filename"));
    AQL_ASSIGN_OR_RETURN(std::string var_name,
                         ExpectString(args.tuple_fields()[1], "variable name"));
    if (payload.kind() != ValueKind::kArray) {
      return Status::InvalidArgument("NETCDF writer expects an array value");
    }
    const ArrayRep& arr = payload.array();
    std::vector<double> data;
    data.reserve(arr.Count());
    switch (arr.payload) {
      case ArrayRep::Payload::kReals:
        data = arr.reals;  // already the wire representation
        break;
      case ArrayRep::Payload::kNats:
        for (uint64_t n : arr.nats) data.push_back(double(n));
        break;
      case ArrayRep::Payload::kBools:
        for (uint8_t b : arr.bools) data.push_back(b ? 1 : 0);
        break;
      case ArrayRep::Payload::kBoxed:
        for (const Value& v : arr.elems) {
          switch (v.kind()) {
            case ValueKind::kReal: data.push_back(v.real_value()); break;
            case ValueKind::kNat: data.push_back(double(v.nat_value())); break;
            case ValueKind::kBool: data.push_back(v.bool_value() ? 1 : 0); break;
            default:
              return Status::InvalidArgument(
                  StrCat("NETCDF writer cannot encode element of kind ",
                         ValueKindName(v.kind())));
          }
        }
        break;
      case ArrayRep::Payload::kTiled: {
        // Writing re-materializes: the wire format needs the full buffer.
        data.resize(arr.TotalSize());
        std::vector<uint64_t> start(arr.dims.size(), 0);
        AQL_RETURN_IF_ERROR(arr.tiled->ReadInto(start, arr.dims, data.data()));
        break;
      }
    }
    netcdf::NcWriter writer(1);
    std::vector<uint32_t> dim_ids;
    dim_ids.reserve(arr.dims.size());
    for (size_t j = 0; j < arr.dims.size(); ++j) {
      dim_ids.push_back(writer.AddDim(StrCat("dim", j), arr.dims[j]));
    }
    writer.AddGlobalAttr(netcdf::NcAttr{"source", netcdf::NcType::kChar, {}, "aql writeval"});
    writer.AddVar(var_name, netcdf::NcType::kDouble, std::move(dim_ids), std::move(data));
    return writer.WriteFile(path);
  };
}

Status RegisterBuiltinDrivers(IoRegistry* registry) {
  AQL_RETURN_IF_ERROR(registry->RegisterReader("COFILE", MakeCoFileReader()));
  AQL_RETURN_IF_ERROR(registry->RegisterWriter("COFILE", MakeCoFileWriter()));
  for (size_t k = 1; k <= 4; ++k) {
    AQL_RETURN_IF_ERROR(
        registry->RegisterReader(StrCat("NETCDF", k), MakeNetcdfReader(k)));
  }
  AQL_RETURN_IF_ERROR(registry->RegisterReader("NETCDF_INFO", MakeNetcdfInfoReader()));
  AQL_RETURN_IF_ERROR(registry->RegisterWriter("NETCDF", MakeNetcdfWriter()));
  return Status::OK();
}

}  // namespace aql
