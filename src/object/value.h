// Complex-object values for the AQL data model (paper §2, §3).
//
// The object types of NRCA are
//
//   t ::= b | B | N | t1 x ... x tk | {t} | [[t]]_k
//
// and we realize them with one tagged value class:
//
//   - kBool, kNat           primitive B and N (nats are 64-bit)
//   - kReal, kString        the uninterpreted base types b used by the
//                           paper's examples (temperatures, names)
//   - kTuple                k-ary products
//   - kSet                  finite sets, stored canonically: sorted under
//                           the definable linear order <_t and deduplicated,
//                           so structural equality is vector equality
//   - kArray                k-dimensional arrays as *functions of
//                           rectangular domain*: a dims vector plus values
//                           in row-major order
//   - kBottom               the explicit error value of the calculus; bound
//                           errors and get() on non-singletons produce it
//   - kFunc                 closures / registered external primitives; these
//                           exist only transiently during evaluation (the
//                           type system keeps them out of sets and arrays)
//
// Values are immutable and cheap to copy: heavy payloads are behind
// shared_ptr<const ...>.

#ifndef AQL_OBJECT_VALUE_H_
#define AQL_OBJECT_VALUE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace aql {

class Value;

enum class ValueKind {
  kBottom = 0,  // least in the linear order
  kBool,
  kNat,
  kReal,
  kString,
  kTuple,
  kSet,
  kArray,
  kFunc,
};

const char* ValueKindName(ValueKind kind);

// Canonical set representation: ascending under Value::Compare, no dups.
struct SetRep {
  std::vector<Value> elems;
};

// Out-of-core real-valued slab: the abstract face of the tiled storage
// layer (src/storage implements it; declaring it here keeps aql_object
// free of storage/netcdf dependencies). A LazyRealSlab is an immutable
// k-dimensional array of doubles whose elements live behind a tile cache
// rather than in a flat buffer. All methods are thread-safe.
//
// Every element is total (never ⊥) by construction — NetCDF slabs decode
// every cell — so arrays backed by a slab participate in the unboxed()
// fast paths of absint and the optimizer.
class LazyRealSlab {
 public:
  virtual ~LazyRealSlab() = default;
  // Shape of the slab; dims().size() >= 1 and no zero extents.
  virtual const std::vector<uint64_t>& dims() const = 0;
  // Bulk-reads the rectangular region [start[j], start[j]+count[j]) into
  // `out` (row-major, product(count) doubles). The workhorse for
  // materialization and subslab pushdown.
  virtual Status ReadInto(const std::vector<uint64_t>& start,
                          const std::vector<uint64_t>& count, double* out) const = 0;
  // Single element at a row-major flat index; tile-cached.
  virtual Result<double> AtFlat(uint64_t flat) const = 0;
  // Stable identity hash over (dataset, region) — NOT content. See
  // HashValue: hashing must never do I/O.
  virtual uint64_t ProvenanceHash() const = 0;

  // Zone-map queries for aggregate pruning (no I/O; answered from
  // metadata the implementation already holds, never by reading tiles).
  //
  // ConstantRowRun: if every element whose leading coordinate lies in
  // [row, row+run) is one non-NaN constant, returns run > 0 and stores the
  // constant; returns 0 when unknown (cold metadata, NaN, or mixed
  // values). Implementations count successful calls as prunes.
  virtual uint64_t ConstantRowRun(uint64_t row, double* value) const {
    (void)row;
    (void)value;
    return 0;
  }
  // ZoneRowRun: min/max (and constancy) over the same leading-row run;
  // 0 when unknown or when the bounds are NaN-poisoned.
  virtual uint64_t ZoneRowRun(uint64_t row, double* min, double* max,
                              bool* constant) const {
    (void)row;
    (void)min;
    (void)max;
    (void)constant;
    return 0;
  }
};

// k-dimensional array: dims.size() == k >= 1, Count() == product(dims),
// row-major (last index varies fastest).
//
// Representation specialization: an array whose elements are all nats, all
// reals, or all bools (and contain no ⊥) is stored UNBOXED in a flat
// scalar buffer — 8 bytes per element instead of a tagged Value — which is
// what makes dense tabulation kernels and bulk NetCDF I/O run at memory
// bandwidth. Arrays with nested elements (tuples, sets, arrays, strings)
// or with ⊥-holes keep the boxed std::vector<Value> payload. The choice
// is canonical: every constructor (Value::MakeArray and the typed
// Make*Array variants) selects the same payload for the same abstract
// value, so representation never leaks into semantics — Compare, hashing
// and printing are payload-agnostic.
struct ArrayRep {
  enum class Payload : uint8_t {
    kBoxed = 0,  // elems
    kNats,       // nats
    kReals,      // reals
    kBools,      // bools (one byte per element, so parallel chunked writes
                 // to disjoint ranges never share a byte)
    kTiled,      // tiled: out-of-core reals behind a tile cache. Counts as
                 // unboxed() (all-total reals) but has NO flat buffer, so
                 // flat-buffer consumers must handle it explicitly.
  };

  std::vector<uint64_t> dims;
  std::vector<Value> elems;  // active iff payload == kBoxed
  Payload payload = Payload::kBoxed;
  std::vector<uint64_t> nats;
  std::vector<double> reals;
  std::vector<uint8_t> bools;
  std::shared_ptr<const LazyRealSlab> tiled;  // active iff payload == kTiled

  // HashValue's result for this array once computed (0: not yet). A val
  // is inlined into every query that names it, so the plan and result
  // caches hash the same rep on every lookup; the memo makes that O(1)
  // after the first. Copies start empty (the copy may still be edited).
  struct HashMemo {
    mutable std::atomic<uint64_t> value{0};
    HashMemo() = default;
    HashMemo(const HashMemo&) {}
    HashMemo& operator=(const HashMemo&) {
      value.store(0, std::memory_order_relaxed);
      return *this;
    }
  };
  HashMemo hash_memo;

  uint64_t TotalSize() const;
  // Row-major flattening of a multi-index; no bounds checking.
  uint64_t Flatten(const std::vector<uint64_t>& index) const;
  // True iff index[i] < dims[i] for all i and arities match.
  bool InBounds(const std::vector<uint64_t>& index) const;

  bool unboxed() const { return payload != Payload::kBoxed; }
  // Element count of the active payload (== TotalSize() for valid reps).
  uint64_t Count() const;
  // The element at flat index i, boxed on demand for unboxed payloads.
  Value At(uint64_t i) const;
};

// Abstract function value: closures (eval module) and registered external
// primitives (env module) both implement this.
class FuncValue {
 public:
  virtual ~FuncValue() = default;
  virtual Result<Value> Apply(const Value& arg) const = 0;
  // Diagnostic name shown by the printer, e.g. "<fn>" or "<prim:heatindex>".
  virtual std::string name() const { return "<fn>"; }
};

class Value {
 public:
  // Default-constructed value is bottom; keeps vectors of Value usable.
  Value() : rep_(BottomTag{}) {}

  static Value Bottom() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Nat(uint64_t n) { return Value(Rep(n)); }
  static Value Real(double d) { return Value(Rep(d)); }
  static Value Str(std::string s);
  static Value MakeTuple(std::vector<Value> fields);
  // Builds a canonical set: sorts and deduplicates. Of elements that
  // compare equal but differ in bits (0.0 and -0.0, NaNs of either sign)
  // the least by CompareEqualsByBits survives, so a set's bits do not
  // depend on the order its elements were produced in. Input that is
  // already ascending skips the sort.
  static Value MakeSet(std::vector<Value> elems);
  // Precondition: already sorted and deduplicated (checked in debug builds).
  static Value MakeSetCanonical(std::vector<Value> elems);
  static Value EmptySet() { return MakeSetCanonical({}); }
  // dims must be non-empty; elems.size() must equal product(dims).
  // Scans the elements and selects the canonical (possibly unboxed)
  // payload; see ArrayRep.
  static Result<Value> MakeArray(std::vector<uint64_t> dims, std::vector<Value> elems);
  static Value MakeVector(std::vector<Value> elems);  // 1-d array
  // Typed constructors building the unboxed payloads directly (no per-cell
  // boxing): used by tabulation kernels (src/exec) and the NetCDF drivers.
  static Result<Value> MakeNatArray(std::vector<uint64_t> dims, std::vector<uint64_t> data);
  static Result<Value> MakeRealArray(std::vector<uint64_t> dims, std::vector<double> data);
  static Result<Value> MakeBoolArray(std::vector<uint64_t> dims, std::vector<uint8_t> data);
  // Out-of-core array over a tiled slab (dims taken from slab->dims()).
  // Error if the slab is null, its rank is 0, or its volume violates
  // CheckedVolume. Semantically identical to the MakeRealArray the slab
  // would materialize to — except that element access can fail on I/O
  // errors, which ArrayRep::At maps to ⊥ (ReadInto callers see a Status).
  static Result<Value> MakeTiledArray(std::shared_ptr<const LazyRealSlab> slab);
  static Value MakeFunc(std::shared_ptr<const FuncValue> fn);

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }
  bool is_bottom() const { return kind() == ValueKind::kBottom; }

  // Accessors; callers must check the kind first (asserted in debug builds).
  bool bool_value() const { return std::get<bool>(rep_); }
  uint64_t nat_value() const { return std::get<uint64_t>(rep_); }
  double real_value() const { return std::get<double>(rep_); }
  const std::string& str_value() const { return *std::get<StrPtr>(rep_); }
  const std::vector<Value>& tuple_fields() const { return *std::get<TuplePtr>(rep_); }
  const SetRep& set() const { return *std::get<SetPtr>(rep_); }
  const ArrayRep& array() const { return *std::get<ArrayPtr>(rep_); }
  const FuncValue& func() const { return *std::get<FuncPtr>(rep_); }
  std::shared_ptr<const FuncValue> func_ptr() const { return std::get<FuncPtr>(rep_); }

  // The definable linear order <_t of the paper (see [21]): total over all
  // values, kind-rank first, then structural/lexicographic within a kind.
  // Reals order by CompareReals below. Function values compare by
  // identity (they never occur inside data). Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool Equals(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  // Set helpers (operate on canonical reps). SetUnion keeps the same
  // representative MakeSet would.
  bool SetContains(const Value& elem) const;
  static Value SetUnion(const Value& a, const Value& b);

  // Exchange-format rendering (§3 grammar). Arrays print in the dense
  // row-major literal form [[d1,...,dk; v0,...,vn-1]].
  std::string ToString() const;
  // Display form used by the REPL: arrays print as [[(i1,..,ik):v, ...]]
  // like the sample session in §4.2; long values are elided after
  // `max_items` entries per collection (0 means no limit).
  std::string ToDisplayString(size_t max_items = 0) const;

 private:
  struct BottomTag {
    bool operator==(const BottomTag&) const { return true; }
  };
  using StrPtr = std::shared_ptr<const std::string>;
  using TuplePtr = std::shared_ptr<const std::vector<Value>>;
  using SetPtr = std::shared_ptr<const SetRep>;
  using ArrayPtr = std::shared_ptr<const ArrayRep>;
  using FuncPtr = std::shared_ptr<const FuncValue>;
  // Variant order must match ValueKind enumerator order.
  using Rep = std::variant<BottomTag, bool, uint64_t, double, StrPtr, TuplePtr,
                           SetPtr, ArrayPtr, FuncPtr>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// The order on reals inside <_t: IEEE order, with -0.0 equal to 0.0 and
// every NaN equal to every other NaN and above every other real. That
// makes it a strict weak order, which sorting, deduplication and the
// exec layer's key indexes rely on; IEEE `<` alone would make NaN equal
// to every real and the order intransitive. Shared by Value::Compare,
// real-array comparison and the exec kernels' comparisons.
inline int CompareReals(double a, double b) {
  if (a < b) return -1;
  if (b < a) return 1;
  const bool na = std::isnan(a), nb = std::isnan(b);
  return na == nb ? 0 : (na ? 1 : -1);
}

// A total order on the bits of values that Value::Compare finds equal:
// reals by their IEEE bit patterns (so 0.0 before -0.0, +NaN before -NaN),
// tuples, sets and arrays element-wise, every other kind 0. It picks the
// one representative a canonical set keeps of each class of equal
// elements, whatever order (or grouping) produced them.
int CompareEqualsByBits(const Value& a, const Value& b);

// Overflow-checked row-major volume of a dims vector, validated against
// the tabulation element cap CurrentExecOptions().max_elems
// (AQL_EXEC_MAX_ELEMS, default 2^36). Both backends reject bounds whose
// product exceeds the cap or overflows uint64_t with an EvalError instead
// of silently clamping them.
Result<uint64_t> CheckedVolume(const std::vector<uint64_t>& dims);

// Structural hash consistent with the linear order:
// Compare(a, b) == 0  ⇒  HashValue(a) == HashValue(b).
// Function values hash by identity, matching Compare. Used by the plan
// cache to hash literal subterms of resolved queries.
//
// Tiled arrays are the one deliberate relaxation: they hash by
// ProvenanceHash() (dataset + region), not content, because hashing must
// never perform I/O. Content-equal values of different provenance may
// therefore hash differently — for the caches that's only a missed hit,
// never a wrong answer, since every hash match is confirmed by Compare.
// An array's hash is memoized in its rep (ArrayRep::hash_memo).
uint64_t HashValue(const Value& v);

// Approximate heap footprint of a value in bytes: payload buffers plus a
// fixed per-node overhead, counted as if nothing were shared (shared
// substructure is charged at every reference). Cheap for unboxed arrays
// (O(1)), O(n) for nested data. Used by the byte-bounded caches
// (service::ResultCache, PlanCache) for honest-enough accounting.
uint64_t ApproxValueBytes(const Value& v);

// The rectangular subslab arr[lower[j] .. lower[j]+extents[j]) per
// dimension, as a new array of dims == extents. Preserves the unboxed
// payload kind (a nat slab slices into a nat slab — no boxing), which is
// what lets the result cache serve a contained subslab request by
// copying rows out of the cached buffer instead of re-executing.
// InvalidArgument when arities mismatch or the slab leaves the array;
// EvalError (via CheckedVolume) when extents are empty or overflow.
Result<Value> SliceArray(const ArrayRep& arr, const std::vector<uint64_t>& lower,
                         const std::vector<uint64_t>& extents);

}  // namespace aql

#endif  // AQL_OBJECT_VALUE_H_
