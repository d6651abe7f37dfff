// The compiled projector: the one evaluator of return items, group-by keys,
// aggregates and having clauses. Multievent projection (ProjectResults) and
// sliding-window anomaly execution (ExecuteAnomaly) both run on it.
//
// Every expression compiles once into a postfix program over *slots*
// (aggregate results, evaluated items, stored group keys, constants); a
// reference to a matched event reads its column straight from the row. A
// pre-pass gives every row its dense group id, assigned in group-key string
// order, and its aggregate inputs, once. Each window then folds its rows into
// per-group accumulators and runs the item and having programs once per
// group. A grouped multievent query is the one-window case with no history
// and no moving averages; a multievent query without aggregates runs the
// item and having programs once per row.
//
// Values are rendered once, not once per row: an entity reference reads each
// distinct entity's attribute once, every string lives in one per-projector
// value table (one id and one stable address per distinct string), and
// `distinct` rows and group keys are deduplicated on packed scalars (tag plus
// int, double bits or string id) before any Value is built.
//
// Internal to src/core: projector.cc implements it, anomaly.cc drives it.
#ifndef AIQL_SRC_CORE_COMPILED_PROJECTOR_H_
#define AIQL_SRC_CORE_COMPILED_PROJECTOR_H_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/anomaly.h"
#include "src/core/result_table.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"
#include "src/util/flat_index.h"

namespace aiql {

// The rows a projection reads: one event per row (anomaly windows) or the
// rows of a multievent tuple set, addressed by pattern column.
class RowSource {
 public:
  explicit RowSource(const std::vector<EventView>& events) : events_(&events) {}
  explicit RowSource(const TupleSet& tuples) : tuples_(&tuples) {}

  size_t size() const { return events_ != nullptr ? events_->size() : tuples_->num_rows(); }
  // Column of `pattern` in every row; -1 when the rows do not bind it.
  int ColumnOf(size_t pattern) const {
    if (events_ != nullptr) {
      return pattern == 0 ? 0 : -1;
    }
    return tuples_->ColumnOf(pattern);
  }
  const EventView& At(size_t row, uint32_t col) const {
    return events_ != nullptr ? (*events_)[row] : tuples_->rows()[row][col];
  }

 private:
  const std::vector<EventView>* events_ = nullptr;
  const TupleSet* tuples_ = nullptr;
};

// A Value that owns nothing: a string is an id in the projector's value
// table (`i`) and its address there (`s`), valid for the projector's
// lifetime. Typing follows Value (int/double/string); kNull is an unresolved
// reference, which a returned item turns into Value() and a having clause
// into false.
struct Scalar {
  enum class Tag : uint8_t { kNull, kInt, kDouble, kString };
  Tag tag = Tag::kNull;
  int64_t i = 0;  // kInt: the value; kString: the value-table id
  double d = 0;
  const std::string* s = nullptr;

  static Scalar Int(int64_t v) {
    Scalar out;
    out.tag = Tag::kInt;
    out.i = v;
    return out;
  }
  static Scalar Double(double v) {
    Scalar out;
    out.tag = Tag::kDouble;
    out.d = v;
    return out;
  }

  bool null() const { return tag == Tag::kNull; }
  bool is_int() const { return tag == Tag::kInt; }
  bool is_string() const { return tag == Tag::kString; }
  bool numeric() const { return tag == Tag::kInt || tag == Tag::kDouble; }
  bool nan() const { return tag == Tag::kDouble && d != d; }

  // Two words equal exactly when the scalars are the same value of the same
  // type (doubles bit for bit): the tag, then the int, the double's bits or
  // the string id.
  void Pack(uint64_t* out) const {
    out[0] = static_cast<uint64_t>(tag);
    out[1] = tag == Tag::kDouble ? std::bit_cast<uint64_t>(d) : static_cast<uint64_t>(i);
  }

  double AsDouble() const {
    switch (tag) {
      case Tag::kInt:
        return static_cast<double>(i);
      case Tag::kDouble:
        return d;
      case Tag::kString: {
        char* end = nullptr;
        double out = std::strtod(s->c_str(), &end);
        return end == s->c_str() ? 0.0 : out;
      }
      case Tag::kNull:
        break;
    }
    return 0;
  }

  Value ToValue() const {
    switch (tag) {
      case Tag::kDouble:
        return Value(d);
      case Tag::kString:
        return Value(*s);
      case Tag::kInt:
        return Value(i);
      case Tag::kNull:
        break;
    }
    return Value();
  }
};

// One instruction of a compiled program (postfix, evaluated on a fixed
// stack).
struct Op {
  enum class Code : uint8_t {
    kLoad,       // push slot `a`
    kRowRef,     // push row column `a` of the row being evaluated
    kHist,       // push history of series `a`, `b` windows back; back 0 reads slot `c`
    kMovingAvg,  // push moving average `a` with current value slot `b`
    kNot,
    kNeg,
    kBinary,
  };
  Code code = Code::kLoad;
  BinOp bop = BinOp::kAdd;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
};
using Program = std::vector<Op>;

class CompiledProjector {
 public:
  enum class Mode : uint8_t {
    // One output row per input row, no aggregates (ProjectRows).
    kRows,
    // One window over all rows (RunWindow once). A global aggregate over no
    // rows still emits its one row.
    kGroups,
    // Sliding windows with history states and moving averages. A group
    // without events in a window emits a row only through `having`.
    kWindows,
  };

  // Compiles the query's items, group keys, aggregates and having clause,
  // then runs the per-row pre-pass. `num_windows` bounds the history rings
  // (kWindows).
  CompiledProjector(const QueryContext& ctx, const EntityCatalog& catalog, RowSource rows,
                    Mode mode, size_t num_windows = 1);

  // kRows: appends one row per input row passing `having`, checking `stop`
  // before each row. Under `distinct`, a row whose packed items equal an
  // earlier row's is not appended (see EmitRows).
  Status ProjectRows(const ScanContext& stop, ResultTable* table);

  // kGroups / kWindows: runs window `w` over rows [first, last) and appends
  // its rows in group-key order. A window start, when given, leads each row
  // as a formatted timestamp. `stop` (optional) is checked before each group.
  Status RunWindow(uint32_t w, std::optional<TimestampMs> window_start, size_t first,
                   size_t last, const ScanContext* stop, ResultTable* table);

 private:
  // Where a program runs, which decides what an alias name resolves to.
  struct Scope {
    bool present = true;  // the group has rows in this window
    size_t pos = 0;       // items [0, pos) are already evaluated
    bool having = false;  // moving averages visible
    bool lookups = true;  // false: alias, history and call references are null
  };

  // How one aggregate call folds the rows of a (window, group).
  enum class AggKind : uint8_t { kRows, kNonNull, kDistinct, kSum, kAvg, kMin, kMax };
  struct AggSpec {
    AggKind kind = AggKind::kRows;
    Program arg;                       // the argument, compiled (empty: none)
    std::vector<double> x;             // per row: numeric argument (kSum..kMax)
    std::vector<uint8_t> has;          // per row: argument is non-null
    std::vector<int32_t> pair;         // kDistinct, per row: (rendered value, group) id
    std::vector<uint32_t> pair_stamp;  // kDistinct: window that last counted a pair
  };
  struct Acc {
    double sum = 0, mn = 0, mx = 0;
    int64_t n = 0;
  };

  enum class MaKind : uint8_t { kSma, kCma, kWma, kEwma };
  struct MaSpec {
    MaKind kind = MaKind::kSma;
    std::string alias;   // the averaged return alias
    size_t n = 3;        // SMA/WMA lookback
    double alpha = 0.9;  // EWMA smoothing
    uint32_t series = 0;
    uint32_t fold = 0;   // index into the group's folds (EWMA/CMA)
  };

  // A resolved reference read from the rows. A subject or object column
  // reads each distinct entity once: its value is kept per (entity type,
  // idx), in tables that grow with the entities seen.
  struct RowColumn {
    uint32_t col = 0;
    RefSide side = RefSide::kSubject;
    const AttrDef* attr = nullptr;
    EventView last;                     // the event read last (joined rows repeat events)
    Scalar value;                       // its value
    FlatKeyTable entities{1};           // (entity type << 32 | idx) -> id
    std::vector<Scalar> entity_values;  // per entity id
  };

  struct GroupState {
    std::vector<Scalar> key;
    std::vector<SeriesRing> series;  // per series name (SeriesFor)
    std::vector<EwmaFold> ewma;      // per EWMA spec, in MaSpec::fold order
    std::vector<CmaFold> cma;        // per CMA spec
  };

  void CompilePrograms(const std::vector<const Expr*>& agg_calls, size_t num_windows);
  void IndexRows();
  // The value-table form of a value (strings interned; numbers as they are).
  Scalar Intern(const Value& v);
  Scalar InternString(std::string_view s);
  // The value-table id of `v`'s rendering (Value::ToString).
  uint32_t RenderedId(const Scalar& v);
  uint32_t AddConst(Scalar v) {
    slots_.push_back(v);
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  uint32_t ComputedSlot(const std::string& name, const Scope& scope) const;
  void EmitLookup(const std::string& name, const Scope& scope, Program* out);
  void Compile(const Expr& e, const Scope& scope, Program* out);
  Program CompileRoot(const Expr& e, const Scope& scope);
  uint32_t RowColumnFor(uint32_t col, const ResolvedRef& ref);
  uint32_t SeriesFor(const std::string& name);

  void ActivateGroup(uint32_t g, size_t row);
  // The evaluation loop, defined `inline` in projector.cc so the compiler
  // folds it into its callers there.
  inline Scalar Run(const Program& prog, const GroupState* state, size_t row);
  inline Scalar RowValue(uint32_t col, size_t row);
  inline Scalar History(const Op& op, const GroupState& state) const;
  inline Scalar MovingAverage(const Op& op, const GroupState& state) const;
  inline bool EvalRow(bool absent, const GroupState* state, size_t row);
  void EmitRow(std::vector<Value> out_row, ResultTable* table) const;
  // ProjectRows' loop; with `dedupe`, stops at the first row with a NaN item
  // and sets *nan.
  Status EmitRows(const ScanContext& stop, bool dedupe, ResultTable* table, bool* nan);

  const QueryContext& ctx_;
  const EntityCatalog& catalog_;
  const RowSource rows_;
  const Mode mode_;

  // Every string a Scalar points at: constants, row values, renderings.
  StringTable values_;

  // Slots: [0] null, then aggregates, items, group-key components, constants.
  std::vector<Scalar> slots_;
  uint32_t agg_base_ = 0, item_base_ = 0, key_base_ = 0;
  std::unordered_map<std::string, uint32_t> agg_by_name_;
  std::unordered_map<std::string, uint32_t> ma_by_name_;
  std::unordered_map<std::string, uint32_t> series_by_name_;

  std::vector<AggSpec> aggs_;
  std::vector<MaSpec> mas_;
  std::vector<RowColumn> row_columns_;
  std::vector<size_t> ring_capacity_;  // per series
  std::vector<std::vector<uint32_t>> folds_of_series_;  // MaSpec ids per series
  size_t num_ewma_ = 0, num_cma_ = 0;
  // Per item (kWindows): series to append to and the slot whose value is
  // appended (the last item of that name).
  std::vector<std::pair<uint32_t, uint32_t>> appends_;

  // [0] = group has rows in the window, [1] = it does not.
  std::vector<Program> items_[2];
  Program having_[2];
  std::vector<Program> keys_;  // group-by components
  std::vector<Scalar> stack_;

  // Per row and per group.
  std::vector<uint32_t> group_of_;  // row -> dense group id (key order)
  std::vector<GroupState> groups_;
  std::vector<uint8_t> known_;          // the group has been in a window
  std::vector<uint32_t> window_stamp_;  // window + 1 that last touched a group
  std::vector<size_t> rep_;             // first row of the group in the window
  std::vector<int64_t> rows_in_;        // rows of the group in the window
  std::vector<Acc> accs_;               // group * aggs + agg
};

// The result tail both query kinds share: `distinct` (before the count, so
// `return count distinct x` counts distinct rows), then `return count`, then
// the sort-by keys (by output column; lexicographic row order without a sort
// clause) and top-k.
Result<ResultTable> FinishResults(const QueryContext& ctx, ResultTable table);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_COMPILED_PROJECTOR_H_
