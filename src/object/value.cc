#include "object/value.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "base/cancel.h"
#include "base/strings.h"

namespace aql {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kBottom: return "bottom";
    case ValueKind::kBool: return "bool";
    case ValueKind::kNat: return "nat";
    case ValueKind::kReal: return "real";
    case ValueKind::kString: return "string";
    case ValueKind::kTuple: return "tuple";
    case ValueKind::kSet: return "set";
    case ValueKind::kArray: return "array";
    case ValueKind::kFunc: return "function";
  }
  return "unknown";
}

uint64_t ArrayRep::TotalSize() const {
  uint64_t n = 1;
  for (uint64_t d : dims) n *= d;
  return n;
}

uint64_t ArrayRep::Count() const {
  switch (payload) {
    case Payload::kBoxed: return elems.size();
    case Payload::kNats: return nats.size();
    case Payload::kReals: return reals.size();
    case Payload::kBools: return bools.size();
    case Payload::kTiled: return TotalSize();  // no buffer; count is implied
  }
  return 0;
}

Value ArrayRep::At(uint64_t i) const {
  switch (payload) {
    case Payload::kBoxed: return elems[i];
    case Payload::kNats: return Value::Nat(nats[i]);
    case Payload::kReals: return Value::Real(reals[i]);
    case Payload::kBools: return Value::Bool(bools[i] != 0);
    case Payload::kTiled: {
      // The one place out-of-core storage can leak into semantics: an I/O
      // failure has no channel through At, so it degrades to ⊥ (bulk
      // ReadInto consumers see the real Status).
      Result<double> r = tiled->AtFlat(i);
      return r.ok() ? Value::Real(*r) : Value::Bottom();
    }
  }
  return Value::Bottom();
}

uint64_t ArrayRep::Flatten(const std::vector<uint64_t>& index) const {
  uint64_t flat = 0;
  for (size_t i = 0; i < dims.size(); ++i) flat = flat * dims[i] + index[i];
  return flat;
}

bool ArrayRep::InBounds(const std::vector<uint64_t>& index) const {
  if (index.size() != dims.size()) return false;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (index[i] >= dims[i]) return false;
  }
  return true;
}

Value Value::Str(std::string s) {
  return Value(Rep(std::make_shared<const std::string>(std::move(s))));
}

Value Value::MakeTuple(std::vector<Value> fields) {
  return Value(Rep(std::make_shared<const std::vector<Value>>(std::move(fields))));
}

Value Value::MakeSet(std::vector<Value> elems) {
  // Streamed comprehensions over ordered sources usually emit ascending
  // runs: one pass decides whether the sort (and the dedup) can be skipped.
  bool sorted = true, strict = true;
  for (size_t i = 1; i < elems.size(); ++i) {
    const int c = Compare(elems[i - 1], elems[i]);
    if (c > 0) {
      sorted = false;
      break;
    }
    strict = strict && c != 0;
  }
  if (!sorted) {
    std::sort(elems.begin(), elems.end(),
              [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  }
  if (!sorted || !strict) {
    // Each run of equal elements keeps its member with the least bits.
    size_t out = 0;
    for (size_t run = 0; run < elems.size();) {
      size_t best = run, end = run + 1;
      for (; end < elems.size() && Compare(elems[run], elems[end]) == 0; ++end) {
        if (CompareEqualsByBits(elems[end], elems[best]) < 0) best = end;
      }
      if (out != best) elems[out] = std::move(elems[best]);
      ++out;
      run = end;
    }
    elems.resize(out);
  }
  return MakeSetCanonical(std::move(elems));
}

Value Value::MakeSetCanonical(std::vector<Value> elems) {
#ifndef NDEBUG
  for (size_t i = 1; i < elems.size(); ++i) {
    assert(Compare(elems[i - 1], elems[i]) < 0 && "set not canonical");
  }
#endif
  return Value(Rep(std::make_shared<const SetRep>(SetRep{std::move(elems)})));
}

namespace {

// Canonical payload selection: a non-empty all-nat / all-real / all-bool
// element vector (no ⊥, no nesting) moves into the matching flat buffer.
// Every array constructor funnels through this, so equal abstract values
// always share a representation.
ArrayRep SpecializeRep(std::vector<uint64_t> dims, std::vector<Value> elems) {
  ArrayRep rep;
  rep.dims = std::move(dims);
  if (!elems.empty()) {
    ValueKind k = elems[0].kind();
    bool uniform = (k == ValueKind::kNat || k == ValueKind::kReal || k == ValueKind::kBool);
    for (size_t i = 1; uniform && i < elems.size(); ++i) {
      uniform = elems[i].kind() == k;
    }
    if (uniform) {
      switch (k) {
        case ValueKind::kNat:
          rep.payload = ArrayRep::Payload::kNats;
          rep.nats.reserve(elems.size());
          for (const Value& v : elems) rep.nats.push_back(v.nat_value());
          return rep;
        case ValueKind::kReal:
          rep.payload = ArrayRep::Payload::kReals;
          rep.reals.reserve(elems.size());
          for (const Value& v : elems) rep.reals.push_back(v.real_value());
          return rep;
        case ValueKind::kBool:
          rep.payload = ArrayRep::Payload::kBools;
          rep.bools.reserve(elems.size());
          for (const Value& v : elems) rep.bools.push_back(v.bool_value() ? 1 : 0);
          return rep;
        default:
          break;
      }
    }
  }
  rep.elems = std::move(elems);
  return rep;
}

Status CheckArrayShape(const std::vector<uint64_t>& dims, size_t count) {
  if (dims.empty()) {
    return Status::InvalidArgument("array must have at least one dimension");
  }
  uint64_t total = 1;
  for (uint64_t d : dims) total *= d;
  if (total != count) {
    return Status::InvalidArgument(
        StrCat("array literal has ", count, " values but dimensions require ", total));
  }
  return Status::OK();
}

}  // namespace

Result<Value> Value::MakeArray(std::vector<uint64_t> dims, std::vector<Value> elems) {
  AQL_RETURN_IF_ERROR(CheckArrayShape(dims, elems.size()));
  return Value(Rep(std::make_shared<const ArrayRep>(
      SpecializeRep(std::move(dims), std::move(elems)))));
}

Value Value::MakeVector(std::vector<Value> elems) {
  uint64_t n = elems.size();
  return Value(
      Rep(std::make_shared<const ArrayRep>(SpecializeRep({n}, std::move(elems)))));
}

Result<Value> Value::MakeNatArray(std::vector<uint64_t> dims, std::vector<uint64_t> data) {
  AQL_RETURN_IF_ERROR(CheckArrayShape(dims, data.size()));
  ArrayRep rep;
  rep.dims = std::move(dims);
  if (data.empty()) {
    return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
  }
  rep.payload = ArrayRep::Payload::kNats;
  rep.nats = std::move(data);
  return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
}

Result<Value> Value::MakeRealArray(std::vector<uint64_t> dims, std::vector<double> data) {
  AQL_RETURN_IF_ERROR(CheckArrayShape(dims, data.size()));
  ArrayRep rep;
  rep.dims = std::move(dims);
  if (data.empty()) {
    return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
  }
  rep.payload = ArrayRep::Payload::kReals;
  rep.reals = std::move(data);
  return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
}

Result<Value> Value::MakeBoolArray(std::vector<uint64_t> dims, std::vector<uint8_t> data) {
  AQL_RETURN_IF_ERROR(CheckArrayShape(dims, data.size()));
  ArrayRep rep;
  rep.dims = std::move(dims);
  if (data.empty()) {
    return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
  }
  rep.payload = ArrayRep::Payload::kBools;
  for (uint8_t& b : data) b = b ? 1 : 0;  // normalize so Compare can memcmp-style loop
  rep.bools = std::move(data);
  return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
}

Result<Value> Value::MakeTiledArray(std::shared_ptr<const LazyRealSlab> slab) {
  if (slab == nullptr) {
    return Status::InvalidArgument("tiled array requires a storage slab");
  }
  const std::vector<uint64_t>& dims = slab->dims();
  if (dims.empty()) {
    return Status::InvalidArgument("array must have at least one dimension");
  }
  auto volume = CheckedVolume(dims);
  if (!volume.ok()) return volume.status();
  if (*volume == 0) {
    // Canonical empty arrays are kBoxed; keep kTiled strictly non-empty so
    // every payload consumer can assume a live slab with elements.
    return MakeArray(dims, {});
  }
  ArrayRep rep;
  rep.dims = dims;
  rep.payload = ArrayRep::Payload::kTiled;
  rep.tiled = std::move(slab);
  return Value(Rep(std::make_shared<const ArrayRep>(std::move(rep))));
}

Value Value::MakeFunc(std::shared_ptr<const FuncValue> fn) {
  return Value(Rep(std::move(fn)));
}

namespace {

template <typename T>
int Cmp3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

int CompareValueVectors(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  return Cmp3(a.size(), b.size());
}

int CmpScalar(uint64_t a, uint64_t b) { return Cmp3(a, b); }
int CmpScalar(uint8_t a, uint8_t b) { return Cmp3(a, b); }
int CmpScalar(double a, double b) { return CompareReals(a, b); }

template <typename T>
int CompareScalarVectors(const std::vector<T>& a, const std::vector<T>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (int c = CmpScalar(a[i], b[i]); c != 0) return c;
  }
  return Cmp3(a.size(), b.size());
}

// Content comparison across any pair of payloads. Same-payload pairs take
// the typed loops (the common case: representation is canonical); mixed
// pairs box element-wise, which only happens for hand-built reps.
int CompareArrayElems(const ArrayRep& x, const ArrayRep& y) {
  if (x.payload == y.payload) {
    switch (x.payload) {
      case ArrayRep::Payload::kBoxed: return CompareValueVectors(x.elems, y.elems);
      case ArrayRep::Payload::kNats: return CompareScalarVectors(x.nats, y.nats);
      case ArrayRep::Payload::kReals: return CompareScalarVectors(x.reals, y.reals);
      case ArrayRep::Payload::kBools: return CompareScalarVectors(x.bools, y.bools);
      case ArrayRep::Payload::kTiled:
        if (x.tiled == y.tiled) return 0;  // same slab, no I/O needed
        break;                             // distinct slabs: stream elementwise
    }
  }
  uint64_t n = std::min(x.Count(), y.Count());
  for (uint64_t i = 0; i < n; ++i) {
    if (int c = Value::Compare(x.At(i), y.At(i)); c != 0) return c;
  }
  return Cmp3(x.Count(), y.Count());
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return Cmp3(static_cast<int>(a.kind()), static_cast<int>(b.kind()));
  }
  switch (a.kind()) {
    case ValueKind::kBottom: return 0;
    case ValueKind::kBool: return Cmp3(a.bool_value(), b.bool_value());
    case ValueKind::kNat: return Cmp3(a.nat_value(), b.nat_value());
    case ValueKind::kReal: return CompareReals(a.real_value(), b.real_value());
    case ValueKind::kString: return a.str_value().compare(b.str_value());
    case ValueKind::kTuple: {
      if (&a.tuple_fields() == &b.tuple_fields()) return 0;  // shared rep
      return CompareValueVectors(a.tuple_fields(), b.tuple_fields());
    }
    case ValueKind::kSet: {
      if (&a.set() == &b.set()) return 0;  // shared rep (e.g. a memoized group)
      return CompareValueVectors(a.set().elems, b.set().elems);
    }
    case ValueKind::kArray: {
      // Dimensions first, then row-major content: this makes <_[[t]]_k a
      // lexicographic product of linear orders, hence linear.
      const ArrayRep& x = a.array();
      const ArrayRep& y = b.array();
      if (&x == &y) return 0;  // shared rep (e.g. a cached tiled literal)
      if (int c = Cmp3(x.dims.size(), y.dims.size()); c != 0) return c;
      for (size_t i = 0; i < x.dims.size(); ++i) {
        if (int c = Cmp3(x.dims[i], y.dims[i]); c != 0) return c;
      }
      return CompareArrayElems(x, y);
    }
    case ValueKind::kFunc: {
      const FuncValue* pa = &a.func();
      const FuncValue* pb = &b.func();
      return Cmp3(reinterpret_cast<uintptr_t>(pa), reinterpret_cast<uintptr_t>(pb));
    }
  }
  return 0;
}

int CompareEqualsByBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return Cmp3(static_cast<int>(a.kind()), static_cast<int>(b.kind()));
  switch (a.kind()) {
    case ValueKind::kReal: {
      const double x = a.real_value(), y = b.real_value();
      uint64_t bx, by;
      std::memcpy(&bx, &x, sizeof bx);
      std::memcpy(&by, &y, sizeof by);
      return Cmp3(bx, by);
    }
    case ValueKind::kTuple:
    case ValueKind::kSet: {
      const std::vector<Value>& x =
          a.kind() == ValueKind::kTuple ? a.tuple_fields() : a.set().elems;
      const std::vector<Value>& y =
          b.kind() == ValueKind::kTuple ? b.tuple_fields() : b.set().elems;
      if (&x == &y) return 0;
      for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
        if (int c = CompareEqualsByBits(x[i], y[i]); c != 0) return c;
      }
      return Cmp3(x.size(), y.size());
    }
    case ValueKind::kArray: {
      const ArrayRep& x = a.array();
      const ArrayRep& y = b.array();
      if (&x == &y) return 0;
      const uint64_t n = std::min(x.Count(), y.Count());
      for (uint64_t i = 0; i < n; ++i) {
        if (int c = CompareEqualsByBits(x.At(i), y.At(i)); c != 0) return c;
      }
      return Cmp3(x.Count(), y.Count());
    }
    default:
      return 0;  // equal under Compare means equal bits
  }
}

bool Value::SetContains(const Value& elem) const {
  const auto& v = set().elems;
  return std::binary_search(
      v.begin(), v.end(), elem,
      [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
}

Value Value::SetUnion(const Value& a, const Value& b) {
  const auto& x = a.set().elems;
  const auto& y = b.set().elems;
  std::vector<Value> out;
  out.reserve(x.size() + y.size());
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    int c = Compare(x[i], y[j]);
    if (c < 0) {
      out.push_back(x[i++]);
    } else if (c > 0) {
      out.push_back(y[j++]);
    } else {
      out.push_back(CompareEqualsByBits(y[j], x[i]) < 0 ? y[j] : x[i]);
      ++i;
      ++j;
    }
  }
  while (i < x.size()) out.push_back(x[i++]);
  while (j < y.size()) out.push_back(y[j++]);
  return MakeSetCanonical(std::move(out));
}

namespace {

void AppendValue(const Value& v, std::string* out);

void AppendJoined(const std::vector<Value>& vs, std::string* out) {
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendValue(vs[i], out);
  }
}

void AppendQuoted(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kBottom:
      out->append("bottom");
      return;
    case ValueKind::kBool:
      out->append(v.bool_value() ? "true" : "false");
      return;
    case ValueKind::kNat:
      out->append(std::to_string(v.nat_value()));
      return;
    case ValueKind::kReal:
      out->append(RealToString(v.real_value()));
      return;
    case ValueKind::kString:
      AppendQuoted(v.str_value(), out);
      return;
    case ValueKind::kTuple:
      out->push_back('(');
      AppendJoined(v.tuple_fields(), out);
      out->push_back(')');
      return;
    case ValueKind::kSet:
      out->push_back('{');
      AppendJoined(v.set().elems, out);
      out->push_back('}');
      return;
    case ValueKind::kArray: {
      const ArrayRep& a = v.array();
      out->append("[[");
      for (size_t i = 0; i < a.dims.size(); ++i) {
        if (i > 0) out->push_back(',');
        out->append(std::to_string(a.dims[i]));
      }
      out->append("; ");
      for (uint64_t i = 0, n = a.Count(); i < n; ++i) {
        if (i > 0) out->append(", ");
        AppendValue(a.At(i), out);
      }
      out->append("]]");
      return;
    }
    case ValueKind::kFunc:
      out->append(v.func().name());
      return;
  }
}

// Advances a multi-index in row-major order.
void NextIndex(const std::vector<uint64_t>& dims, std::vector<uint64_t>* index) {
  for (size_t i = dims.size(); i-- > 0;) {
    if (++(*index)[i] < dims[i]) return;
    (*index)[i] = 0;
  }
}

void AppendDisplay(const Value& v, size_t max_items, std::string* out);

void AppendDisplayJoined(const std::vector<Value>& vs, size_t max_items, std::string* out) {
  size_t limit = max_items == 0 ? vs.size() : std::min(vs.size(), max_items);
  for (size_t i = 0; i < limit; ++i) {
    if (i > 0) out->append(", ");
    AppendDisplay(vs[i], max_items, out);
  }
  if (limit < vs.size()) out->append(", ...");
}

void AppendDisplay(const Value& v, size_t max_items, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kTuple:
      out->push_back('(');
      AppendDisplayJoined(v.tuple_fields(), max_items, out);
      out->push_back(')');
      return;
    case ValueKind::kSet:
      out->push_back('{');
      AppendDisplayJoined(v.set().elems, max_items, out);
      out->push_back('}');
      return;
    case ValueKind::kArray: {
      // §4.2 session style: [[(0,0,0):67.3, (1,0,0):67.3, ...]].
      const ArrayRep& a = v.array();
      out->append("[[");
      std::vector<uint64_t> index(a.dims.size(), 0);
      size_t total = a.Count();
      size_t limit = max_items == 0 ? total : std::min(total, max_items);
      for (size_t i = 0; i < limit; ++i) {
        if (i > 0) out->append(", ");
        out->push_back('(');
        for (size_t d = 0; d < index.size(); ++d) {
          if (d > 0) out->push_back(',');
          out->append(std::to_string(index[d]));
        }
        out->append("):");
        AppendDisplay(a.At(i), max_items, out);
        NextIndex(a.dims, &index);
      }
      if (limit < total) out->append(", ...");
      out->append("]]");
      return;
    }
    default:
      AppendValue(v, out);
  }
}

}  // namespace

std::string Value::ToString() const {
  std::string out;
  AppendValue(*this, &out);
  return out;
}

std::string Value::ToDisplayString(size_t max_items) const {
  std::string out;
  AppendDisplay(*this, max_items, &out);
  return out;
}

namespace {

inline uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

constexpr uint64_t kHashBase = 0xcbf29ce484222325ull;

// Per-kind scalar hashes, shared by HashValue and the unboxed array fast
// paths so a flat buffer hashes identically to its boxed equivalent.
inline uint64_t HashScalarBool(bool b) {
  return HashMix(kHashBase + static_cast<uint64_t>(ValueKind::kBool), b ? 1 : 0);
}
inline uint64_t HashScalarNat(uint64_t n) {
  return HashMix(kHashBase + static_cast<uint64_t>(ValueKind::kNat), n);
}
inline uint64_t HashScalarReal(double d) {
  // Compare treats +0.0 and -0.0 as equal, and every NaN as equal to
  // every other; normalize both before hashing bits.
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return HashMix(kHashBase + static_cast<uint64_t>(ValueKind::kReal), bits);
}

}  // namespace

uint64_t HashValue(const Value& v) {
  uint64_t h = kHashBase + static_cast<uint64_t>(v.kind());
  switch (v.kind()) {
    case ValueKind::kBottom:
      return h;
    case ValueKind::kBool:
      return HashScalarBool(v.bool_value());
    case ValueKind::kNat:
      return HashScalarNat(v.nat_value());
    case ValueKind::kReal:
      return HashScalarReal(v.real_value());
    case ValueKind::kString: {
      for (unsigned char c : v.str_value()) h = HashMix(h, c);
      return h;
    }
    case ValueKind::kTuple: {
      for (const Value& f : v.tuple_fields()) h = HashMix(h, HashValue(f));
      return h;
    }
    case ValueKind::kSet: {
      // Canonical (sorted, deduplicated) order makes elementwise hashing sound.
      for (const Value& e : v.set().elems) h = HashMix(h, HashValue(e));
      return h;
    }
    case ValueKind::kArray: {
      const ArrayRep& a = v.array();
      if (uint64_t memo = a.hash_memo.value.load(std::memory_order_relaxed)) return memo;
      h = HashMix(h, a.dims.size());
      for (uint64_t d : a.dims) h = HashMix(h, d);
      switch (a.payload) {
        case ArrayRep::Payload::kBoxed:
          for (const Value& e : a.elems) h = HashMix(h, HashValue(e));
          break;
        case ArrayRep::Payload::kNats:
          for (uint64_t n : a.nats) h = HashMix(h, HashScalarNat(n));
          break;
        case ArrayRep::Payload::kReals:
          for (double d : a.reals) h = HashMix(h, HashScalarReal(d));
          break;
        case ArrayRep::Payload::kBools:
          for (uint8_t b : a.bools) h = HashMix(h, HashScalarBool(b != 0));
          break;
        case ArrayRep::Payload::kTiled:
          // Provenance, not content: hashing must never do I/O. See the
          // contract note on HashValue in value.h.
          h = HashMix(h, a.tiled->ProvenanceHash());
          break;
      }
      a.hash_memo.value.store(h, std::memory_order_relaxed);
      return h;
    }
    case ValueKind::kFunc:
      // Identity hash, matching Compare's identity order on functions.
      return HashMix(h, reinterpret_cast<uintptr_t>(&v.func()));
  }
  return h;
}

Result<uint64_t> CheckedVolume(const std::vector<uint64_t>& dims) {
  uint64_t total = 1;
  for (uint64_t d : dims) {
    if (d != 0 && total > std::numeric_limits<uint64_t>::max() / d) {
      return Status::EvalError("tabulation bounds overflow the element count");
    }
    total *= d;
  }
  const uint64_t cap = CurrentExecOptions().max_elems;
  if (total > cap) {
    return Status::EvalError(
        StrCat("tabulation of ", total, " elements exceeds the cap of ", cap,
               " (set AQL_EXEC_MAX_ELEMS to raise it)"));
  }
  return total;
}

uint64_t ApproxValueBytes(const Value& v) {
  constexpr uint64_t kNode = sizeof(Value);
  switch (v.kind()) {
    case ValueKind::kBottom:
    case ValueKind::kBool:
    case ValueKind::kNat:
    case ValueKind::kReal:
    case ValueKind::kFunc:  // the closure body is not data we account for
      return kNode;
    case ValueKind::kString:
      return kNode + sizeof(std::string) + v.str_value().size();
    case ValueKind::kTuple: {
      uint64_t b = kNode + sizeof(std::vector<Value>);
      for (const Value& f : v.tuple_fields()) b += ApproxValueBytes(f);
      return b;
    }
    case ValueKind::kSet: {
      uint64_t b = kNode + sizeof(SetRep);
      for (const Value& e : v.set().elems) b += ApproxValueBytes(e);
      return b;
    }
    case ValueKind::kArray: {
      const ArrayRep& a = v.array();
      uint64_t b = kNode + sizeof(ArrayRep) + 8 * a.dims.size();
      switch (a.payload) {
        case ArrayRep::Payload::kBoxed:
          for (const Value& e : a.elems) b += ApproxValueBytes(e);
          break;
        case ArrayRep::Payload::kNats:
          b += 8 * a.nats.size();
          break;
        case ArrayRep::Payload::kReals:
          b += 8 * a.reals.size();
          break;
        case ArrayRep::Payload::kBools:
          b += a.bools.size();
          break;
        case ArrayRep::Payload::kTiled:
          b += 64;  // handle only — tile bytes are charged to the tile cache
          break;
      }
      return b;
    }
  }
  return kNode;
}

namespace {

// Lazy rectangular view into a tiled slab: slicing a tiled array shifts
// coordinates instead of materializing, so a subslab of an out-of-core
// dataset stays out-of-core (the result cache's subsumption path relies
// on SliceArray being cheap).
class SlicedSlab : public LazyRealSlab {
 public:
  SlicedSlab(std::shared_ptr<const LazyRealSlab> base, std::vector<uint64_t> lower,
             std::vector<uint64_t> extents)
      : base_(std::move(base)), lower_(std::move(lower)), dims_(std::move(extents)) {}

  const std::vector<uint64_t>& dims() const override { return dims_; }

  Status ReadInto(const std::vector<uint64_t>& start, const std::vector<uint64_t>& count,
                  double* out) const override {
    std::vector<uint64_t> abs(lower_.size());
    for (size_t j = 0; j < lower_.size(); ++j) abs[j] = lower_[j] + start[j];
    return base_->ReadInto(abs, count, out);
  }

  Result<double> AtFlat(uint64_t flat) const override {
    // Unflatten over the view dims, shift, reflatten over the base dims.
    const std::vector<uint64_t>& base_dims = base_->dims();
    uint64_t base_flat = 0;
    for (size_t j = dims_.size(); j-- > 0;) {
      uint64_t coord = lower_[j] + flat % dims_[j];
      flat /= dims_[j];
      uint64_t stride = 1;
      for (size_t i = j + 1; i < base_dims.size(); ++i) stride *= base_dims[i];
      base_flat += coord * stride;
    }
    return base_->AtFlat(base_flat);
  }

  uint64_t ProvenanceHash() const override {
    uint64_t h = base_->ProvenanceHash();
    for (size_t j = 0; j < lower_.size(); ++j) {
      h = HashMix(HashMix(h, lower_[j]), dims_[j]);
    }
    return h;
  }

 private:
  std::shared_ptr<const LazyRealSlab> base_;
  std::vector<uint64_t> lower_;
  std::vector<uint64_t> dims_;
};

}  // namespace

Result<Value> SliceArray(const ArrayRep& arr, const std::vector<uint64_t>& lower,
                         const std::vector<uint64_t>& extents) {
  const size_t k = arr.dims.size();
  if (lower.size() != k || extents.size() != k) {
    return Status::InvalidArgument(
        StrCat("slice arity ", lower.size(), "/", extents.size(),
               " does not match array rank ", k));
  }
  for (size_t j = 0; j < k; ++j) {
    if (extents[j] > arr.dims[j] || lower[j] > arr.dims[j] - extents[j]) {
      return Status::InvalidArgument(
          StrCat("slice [", lower[j], ", ", lower[j], "+", extents[j],
                 ") leaves dimension ", j, " of extent ", arr.dims[j]));
    }
  }
  auto volume = CheckedVolume(extents);
  if (!volume.ok()) return volume.status();
  const uint64_t n = *volume;

  // Row-major source strides; the innermost dimension is contiguous, so
  // the copy moves whole runs of extents[k-1] elements.
  std::vector<uint64_t> stride(k, 1);
  for (size_t j = k - 1; j-- > 0;) stride[j] = stride[j + 1] * arr.dims[j + 1];
  const uint64_t run = extents[k - 1];
  const uint64_t rows = run == 0 ? 0 : n / run;

  std::vector<uint64_t> idx = lower;  // source index of the current run
  auto offset = [&]() {
    uint64_t off = 0;
    for (size_t j = 0; j < k; ++j) off += idx[j] * stride[j];
    return off;
  };
  auto advance = [&]() {  // odometer over the k-1 outer dimensions
    for (size_t j = k - 1; j-- > 0;) {
      if (++idx[j] < lower[j] + extents[j]) return;
      idx[j] = lower[j];
    }
  };
  auto copy_rows = [&](const auto& src, auto* out) {
    out->reserve(n);
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t off = offset();
      out->insert(out->end(), src.begin() + off, src.begin() + off + run);
      advance();
    }
  };

  switch (arr.payload) {
    case ArrayRep::Payload::kNats: {
      std::vector<uint64_t> data;
      copy_rows(arr.nats, &data);
      return Value::MakeNatArray(extents, std::move(data));
    }
    case ArrayRep::Payload::kReals: {
      std::vector<double> data;
      copy_rows(arr.reals, &data);
      return Value::MakeRealArray(extents, std::move(data));
    }
    case ArrayRep::Payload::kBools: {
      std::vector<uint8_t> data;
      copy_rows(arr.bools, &data);
      return Value::MakeBoolArray(extents, std::move(data));
    }
    case ArrayRep::Payload::kBoxed: {
      std::vector<Value> data;
      copy_rows(arr.elems, &data);
      return Value::MakeArray(extents, std::move(data));
    }
    case ArrayRep::Payload::kTiled:
      // No copy: compose the coordinate shift lazily (see SlicedSlab).
      return Value::MakeTiledArray(std::make_shared<SlicedSlab>(arr.tiled, lower, extents));
  }
  return Status::InvalidArgument("unknown array payload");
}

}  // namespace aql
