#include "exec/vectorized.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/str.h"
#include "exec/batch.h"
#include "exec/kernels.h"
#include "sim/channel.h"
#include "storage/columnar.h"

namespace citusx::exec {

namespace {

using engine::ExecContext;
using engine::ExecNode;
using engine::QueryResult;
using sql::ExprPtr;

// ---------------------------------------------------------------------------
// Plan IR: a volcano tree is translated into an ordered list of pipelines.
// Streaming operators (filter/project/hash-probe) live inside a pipeline;
// pipeline breakers (hash build, aggregate, and the sequential tail ops
// sort/limit/distinct/strip) terminate one and feed the next through a
// materialized intermediate.

using CompiledPtr = std::unique_ptr<CompiledExpr>;
using CompiledList = std::vector<CompiledPtr>;

/// Aggregate functions, resolved from their names at pipeline build.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kOther };

struct VecSource {
  enum class Kind { kColumnar, kHeap, kTemp, kMaterialized };
  Kind kind = Kind::kMaterialized;
  engine::TableInfo* table = nullptr;  // kColumnar / kHeap
  ExprPtr filter;                      // scan filter; may be null
  std::vector<int> projection;         // scan columns read (empty = all)
  const engine::TempRelation* temp = nullptr;  // kTemp
  int inter = -1;                      // kMaterialized: intermediate slot
  size_t width = 0;
  CompiledPtr cfilter;  // compiled `filter`
};

struct VecOp {
  enum class Kind { kFilter, kProject, kHashProbe };
  Kind kind = Kind::kFilter;
  ExprPtr predicate;            // kFilter
  std::vector<ExprPtr> exprs;   // kProject
  // kHashProbe:
  int build = -1;               // hash-table slot
  std::vector<ExprPtr> keys;    // probe keys over the left layout
  ExprPtr residual;
  sql::JoinType join_type = sql::JoinType::kInner;
  size_t build_width = 0;
  size_t out_width = 0;
  // Compiled at pipeline build:
  CompiledPtr cpredicate;
  CompiledList cexprs;
  CompiledList ckeys;
  CompiledPtr cresidual;
  bool row_major = false;  // kProject: several exprs call random()
};

struct VecSink {
  enum class Kind { kCollect, kHashBuild, kAggregate };
  Kind kind = Kind::kCollect;
  int target = -1;              // intermediate slot or hash-table slot
  std::vector<ExprPtr> keys;    // kHashBuild
  std::vector<ExprPtr> group_exprs;  // kAggregate
  std::vector<engine::AggSpec> aggs;
  // Compiled at pipeline build:
  CompiledList ckeys;
  CompiledList cgroups;
  CompiledList cargs;  // per aggregate; null for count(*)
  std::vector<AggFunc> funcs;
  bool row_major = false;  // several exprs call random()
};

/// Sequential op applied to a collected intermediate once its pipeline
/// completes (these are inherently order-sensitive, so they run on the
/// coordinating process).
struct PostOp {
  enum class Kind { kSort, kLimit, kDistinct, kStrip };
  Kind kind = Kind::kSort;
  std::vector<int> sort_slots;
  std::vector<bool> desc;
  int64_t limit = -1;
  int64_t offset = 0;
  int keep = 0;
};

struct Pipeline {
  VecSource source;
  std::vector<VecOp> ops;
  VecSink sink;
  std::vector<PostOp> posts;  // kCollect sinks only
  std::string desc;
};

struct VecPlan {
  std::vector<Pipeline> pipelines;
  int num_inters = 0;
  int num_hash_tables = 0;
  int final_inter = -1;  // slot holding the final row set
};

// ---------------------------------------------------------------------------
// Builder: recognizes the volcano node shapes the vectorized engine covers;
// anything else (index scans, row locking, nested loops, OneRow) declines.

class Builder {
 public:
  explicit Builder(VecPlan* plan) : plan_(plan) {}

  /// Translate the subtree at `n` into an open pipeline (no sink yet).
  /// Returns false when the shape is unsupported.
  bool Build(const ExecNode* n, Pipeline* out) {
    if (auto* scan = dynamic_cast<const engine::SeqScanNode*>(n)) {
      if (scan->lock_rows || scan->emit_rowid) return false;
      out->source.kind = scan->table->is_columnar() ? VecSource::Kind::kColumnar
                                                    : VecSource::Kind::kHeap;
      out->source.table = scan->table;
      out->source.filter = scan->filter;
      out->source.projection = scan->projection;
      out->source.width = n->output_types.size();
      out->desc = "scan " + scan->table->name;
      return true;
    }
    if (auto* temp = dynamic_cast<const engine::TempScanNode*>(n)) {
      out->source.kind = VecSource::Kind::kTemp;
      out->source.temp = temp->relation;
      out->source.filter = temp->filter;
      out->source.width = n->output_types.size();
      out->desc = "scan intermediate";
      return true;
    }
    if (auto* filter = dynamic_cast<const engine::FilterNode*>(n)) {
      if (!Build(filter->input.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kFilter;
      op.predicate = filter->predicate;
      op.out_width = n->output_types.size();
      out->ops.push_back(std::move(op));
      out->desc += " -> filter";
      return true;
    }
    if (auto* proj = dynamic_cast<const engine::ProjectNode*>(n)) {
      if (!Build(proj->input.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kProject;
      op.exprs = proj->exprs;
      op.out_width = proj->exprs.size();
      out->ops.push_back(std::move(op));
      out->desc += " -> project";
      return true;
    }
    if (auto* join = dynamic_cast<const engine::HashJoinNode*>(n)) {
      if (join->join_type != sql::JoinType::kInner &&
          join->join_type != sql::JoinType::kLeft) {
        return false;
      }
      // Build side becomes its own pipeline ending in a hash-build sink.
      Pipeline build;
      if (!Build(join->right.get(), &build)) return false;
      int slot = plan_->num_hash_tables++;
      build.sink.kind = VecSink::Kind::kHashBuild;
      build.sink.target = slot;
      build.sink.keys = join->right_keys;
      build.desc += " -> hash build";
      plan_->pipelines.push_back(std::move(build));
      // Probe continues the current pipeline.
      if (!Build(join->left.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kHashProbe;
      op.build = slot;
      op.keys = join->left_keys;
      op.residual = join->residual;
      op.join_type = join->join_type;
      op.build_width = join->right->output_types.size();
      op.out_width = n->output_types.size();
      out->ops.push_back(std::move(op));
      out->desc += " -> hash probe";
      return true;
    }
    if (auto* agg = dynamic_cast<const engine::AggNode*>(n)) {
      Pipeline p;
      if (!Build(agg->input.get(), &p)) return false;
      int slot = plan_->num_inters++;
      p.sink.kind = VecSink::Kind::kAggregate;
      p.sink.target = slot;
      p.sink.group_exprs = agg->group_exprs;
      p.sink.aggs = agg->aggs;
      p.desc += " -> partial agg";
      plan_->pipelines.push_back(std::move(p));
      MaterializedSource(slot, n->output_types.size(), out);
      return true;
    }
    if (auto* sort = dynamic_cast<const engine::SortNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kSort;
      post.sort_slots = sort->sort_slots;
      post.desc = sort->desc;
      return SequentialTail(sort->input.get(), std::move(post), "sort",
                            n->output_types.size(), out);
    }
    if (auto* limit = dynamic_cast<const engine::LimitNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kLimit;
      post.limit = limit->limit;
      post.offset = limit->offset;
      return SequentialTail(limit->input.get(), std::move(post), "limit",
                            n->output_types.size(), out);
    }
    if (auto* distinct = dynamic_cast<const engine::DistinctNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kDistinct;
      return SequentialTail(distinct->input.get(), std::move(post), "distinct",
                            n->output_types.size(), out);
    }
    if (auto* strip = dynamic_cast<const engine::StripColumnsNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kStrip;
      post.keep = strip->keep;
      return SequentialTail(strip->input.get(), std::move(post), "strip",
                            n->output_types.size(), out);
    }
    // Transparent wrappers (plan owner nodes).
    if (const ExecNode* child = n->explain_child(); child != nullptr) {
      return Build(child, out);
    }
    return false;
  }

 private:
  void MaterializedSource(int slot, size_t width, Pipeline* out) {
    out->source.kind = VecSource::Kind::kMaterialized;
    out->source.inter = slot;
    out->source.width = width;
    out->desc = "scan intermediate";
  }

  /// Sort/limit/distinct/strip: collect the input pipeline into an
  /// intermediate and append a sequential post op. Consecutive tail ops
  /// chain onto the same pipeline instead of re-materializing.
  bool SequentialTail(const ExecNode* input, PostOp post, const char* name,
                      size_t width, Pipeline* out) {
    Pipeline p;
    if (!Build(input, &p)) return false;
    if (p.source.kind == VecSource::Kind::kMaterialized && p.ops.empty() &&
        !plan_->pipelines.empty() &&
        plan_->pipelines.back().sink.kind == VecSink::Kind::kCollect &&
        plan_->pipelines.back().sink.target == p.source.inter) {
      // The input already ends in a collected intermediate: chain.
      plan_->pipelines.back().posts.push_back(std::move(post));
      plan_->pipelines.back().desc += StrFormat(" -> %s", name);
      MaterializedSource(p.source.inter, width, out);
      return true;
    }
    int slot = plan_->num_inters++;
    p.sink.kind = VecSink::Kind::kCollect;
    p.sink.target = slot;
    p.posts.push_back(std::move(post));
    p.desc += StrFormat(" -> %s", name);
    plan_->pipelines.push_back(std::move(p));
    MaterializedSource(slot, width, out);
    return true;
  }

  VecPlan* plan_;
};

// ---------------------------------------------------------------------------
// Compilation: after the shape check accepts a plan, every expression is
// folded and compiled once, and aggregate names resolve to AggFunc.

AggFunc AggFuncOf(const std::string& name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "avg") return AggFunc::kAvg;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  return AggFunc::kOther;
}

CompiledList CompileAll(const std::vector<ExprPtr>& exprs,
                        const std::vector<sql::Datum>* params) {
  CompiledList out;
  for (const ExprPtr& e : exprs) out.push_back(Compile(e, params));
  return out;
}

/// More than one of `exprs` calls random(): they must run row-major.
bool RandomRowMajor(const std::vector<const ExprPtr*>& exprs) {
  int n = 0;
  for (const ExprPtr* e : exprs) n += CallsRandom(*e) ? 1 : 0;
  return n > 1;
}

void CompilePlan(VecPlan* plan, const std::vector<sql::Datum>* params) {
  for (Pipeline& p : plan->pipelines) {
    p.source.cfilter = Compile(p.source.filter, params);
    for (VecOp& op : p.ops) {
      op.cpredicate = Compile(op.predicate, params);
      op.cexprs = CompileAll(op.exprs, params);
      op.ckeys = CompileAll(op.keys, params);
      op.cresidual = Compile(op.residual, params);
      std::vector<const ExprPtr*> all;
      for (const ExprPtr& e : op.exprs) all.push_back(&e);
      op.row_major = RandomRowMajor(all);
    }
    VecSink& sink = p.sink;
    sink.ckeys = CompileAll(sink.keys, params);
    sink.cgroups = CompileAll(sink.group_exprs, params);
    std::vector<const ExprPtr*> all;
    for (const ExprPtr& e : sink.group_exprs) all.push_back(&e);
    for (const engine::AggSpec& spec : sink.aggs) {
      sink.cargs.push_back(Compile(spec.arg, params));
      sink.funcs.push_back(AggFuncOf(spec.func));
      if (spec.arg != nullptr) all.push_back(&spec.arg);
    }
    sink.row_major = RandomRowMajor(all);
  }
}

// ---------------------------------------------------------------------------
// Aggregation state, mirroring the volcano executor's semantics exactly
// (sum/avg track int and float sums, aggregates skip NULLs, min/max via
// Datum::Compare). Partial states merge across morsel workers; DISTINCT
// arguments are collected as value sets and folded only at merge time so
// duplicates seen by different workers cannot double-count.

struct AggState {
  int64_t count = 0;
  double sum_f = 0;
  int64_t sum_i = 0;
  bool sum_is_float = false;
  bool any = false;
  sql::Datum min_max;
  std::map<std::string, sql::Datum> distinct_vals;  // key -> value
};

void AggTransition(AggFunc f, const sql::Datum& v, AggState* st) {
  if (f == AggFunc::kCount) {
    st->count++;
    return;
  }
  st->any = true;
  switch (f) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      st->count++;
      if (v.type() == sql::TypeId::kFloat8) {
        st->sum_is_float = true;
        st->sum_f += v.float_value();
      } else {
        st->sum_i += v.AsInt64();
        st->sum_f += static_cast<double>(v.AsInt64());
      }
      return;
    case AggFunc::kMin:
      if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) < 0) {
        st->min_max = v;
      }
      return;
    case AggFunc::kMax:
      if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) > 0) {
        st->min_max = v;
      }
      return;
    default:
      return;
  }
}

void MergeAggState(AggFunc f, bool distinct, const AggState& in,
                   AggState* out) {
  if (distinct) {
    for (const auto& [k, v] : in.distinct_vals) {
      out->distinct_vals.emplace(k, v);
    }
    return;
  }
  out->count += in.count;
  out->sum_i += in.sum_i;
  out->sum_f += in.sum_f;
  out->sum_is_float |= in.sum_is_float;
  out->any |= in.any;
  if (!in.min_max.is_null()) {
    if (out->min_max.is_null() ||
        (f == AggFunc::kMin &&
         sql::Datum::Compare(in.min_max, out->min_max) < 0) ||
        (f == AggFunc::kMax &&
         sql::Datum::Compare(in.min_max, out->min_max) > 0)) {
      out->min_max = in.min_max;
    }
  }
}

sql::Datum AggFinal(AggFunc f, const AggState& st) {
  if (f == AggFunc::kCount) return sql::Datum::Int8(st.count);
  if (f == AggFunc::kSum) {
    if (!st.any) return sql::Datum::Null();
    return st.sum_is_float ? sql::Datum::Float8(st.sum_f)
                           : sql::Datum::Int8(st.sum_i);
  }
  if (f == AggFunc::kAvg) {
    if (st.count == 0) return sql::Datum::Null();
    return sql::Datum::Float8(st.sum_f / static_cast<double>(st.count));
  }
  return st.min_max;  // min/max; NULL when no input
}

// ---------------------------------------------------------------------------
// Typed hash keys. Joins and GROUP BY key rows in exactly the equivalence
// classes of Datum::GroupKey: every integer-like value (bool, int4, int8,
// date, timestamp) of the same int64 payload is one class, floats are
// classes of their own, text by bytes. A single integer-like key takes an
// int64 table; any other key is the GroupKey concatenation itself (each
// value's GroupKey and a '\x1f'), so a group's sort position is that
// string too.

/// One row's key.
struct Key {
  bool is_int = false;
  int64_t i = 0;
  std::string s;

  /// The GroupKey concatenation: what std::map ordered groups by.
  std::string SortKey() const {
    return is_int ? "I" + std::to_string(i) + '\x1f' : s;
  }
};

/// The integer-like payload of row `r`, if its value is integer-like.
bool IntKeyOf(const Vec& v, int32_t r, int64_t* out) {
  if (v.is_const) {
    if (storage::LayoutOf(v.value.type()) != storage::Layout::kInt64) {
      return false;
    }
    *out = v.ival;
    return true;
  }
  switch (v.col->layout()) {
    case storage::Layout::kInt64:
      *out = v.col->ints()[r];
      return true;
    case storage::Layout::kDatum: {
      const sql::Datum& d = v.col->datum(r);
      if (storage::LayoutOf(d.type()) != storage::Layout::kInt64) return false;
      *out = d.int_value();
      return true;
    }
    default:
      return false;
  }
}

/// Append row `r`'s Datum::GroupKey to `out` (a NULL's is empty).
void AppendGroupKey(const Vec& v, int32_t r, std::string* out) {
  if (v.IsNull(r)) return;
  int64_t i;
  if (IntKeyOf(v, r, &i)) {
    *out += 'I';
    *out += std::to_string(i);
  } else if (!v.is_const && v.col->layout() == storage::Layout::kText) {
    *out += 'T';
    *out += v.col->text(r);
  } else {
    *out += v.Get(r).GroupKey();
  }
}

/// Row `r`'s key over `keys`. With `skip_nulls` (joins), false when a key
/// is NULL: NULL keys never join.
bool KeyOf(const std::vector<Vec>& keys, int32_t r, bool skip_nulls,
           Key* out) {
  if (keys.size() == 1 && !keys[0].IsNull(r) &&
      IntKeyOf(keys[0], r, &out->i)) {
    out->is_int = true;
    return true;
  }
  out->is_int = false;
  out->s.clear();
  for (const Vec& k : keys) {
    if (k.IsNull(r) && skip_nulls) return false;
    AppendGroupKey(k, r, &out->s);
    out->s.push_back('\x1f');
  }
  return true;
}

/// int64 -> dense id, open addressing with linear probing.
class IntMap {
 public:
  int32_t Find(int64_t k) const {
    if (slots_.empty()) return -1;
    for (size_t i = Mix64(static_cast<uint64_t>(k)) & mask_;;
         i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.key == k) return s.id;
    }
  }
  /// The id of `k`, inserting `id` when absent.
  int32_t FindOrInsert(int64_t k, int32_t id) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (size_t i = Mix64(static_cast<uint64_t>(k)) & mask_;;
         i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id < 0) {
        s.key = k;
        s.id = id;
        size_++;
        return id;
      }
      if (s.key == k) return s.id;
    }
  }

 private:
  struct Slot {
    int64_t key = 0;
    int32_t id = -1;
  };
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.id >= 0) FindOrInsert(s.key, s.id);
    }
  }
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Key -> dense id in first-insert order.
class KeyIndex {
 public:
  int32_t Find(const Key& k) const {
    if (k.is_int) return ints_.Find(k.i);
    auto it = strs_.find(k.s);
    return it == strs_.end() ? -1 : it->second;
  }
  /// The id of `k`; a new key gets the next id.
  int32_t FindOrInsert(const Key& k) {
    int32_t next = static_cast<int32_t>(size_);
    int32_t id = k.is_int ? ints_.FindOrInsert(k.i, next)
                          : strs_.try_emplace(k.s, next).first->second;
    if (id == next) size_++;
    return id;
  }
  size_t size() const { return size_; }

 private:
  IntMap ints_;
  std::unordered_map<std::string, int32_t> strs_;
  size_t size_ = 0;
};

/// Build rows of a hash join, stored column-wise, plus each key's rows in
/// insertion order (worker order, then each worker's row order).
struct HashTable {
  std::vector<storage::ColumnVector> cols;
  KeyIndex index;
  std::vector<int32_t> starts;  // key id g: order[starts[g], starts[g+1])
  std::vector<int32_t> order;
  int64_t rows = 0;
};

/// One worker's part of a hash build.
struct LocalBuild {
  std::vector<storage::ColumnVector> cols;
  std::vector<Key> keys;  // per stored row
};

/// Aggregation groups of one worker, or the merged result.
struct AggTable {
  KeyIndex index;
  std::vector<Key> keys;       // per group
  std::vector<sql::Row> values;  // per group: key values first seen
  std::vector<AggState> states;  // group-major, aggs per group
};

// ---------------------------------------------------------------------------
// Runtime state shared by the coordinating process and the morsel workers.
// Heap-allocated and co-owned by every worker so cancellation at simulation
// shutdown cannot dangle (the adaptive-executor idiom).

struct MorselTask {
  int64_t begin = 0;   // heap/temp/materialized: row range
  int64_t end = 0;
  int64_t stripe = -1;  // columnar: read-unit index
};

struct PipelineRun {
  const VecPlan* plan = nullptr;
  const Pipeline* pipe = nullptr;
  std::vector<std::vector<sql::Row>>* inters = nullptr;
  std::vector<HashTable>* hash_tables = nullptr;

  std::vector<MorselTask> morsels;
  size_t next_morsel = 0;
  int64_t pruned_stripes = 0;

  // Per-worker partial sinks, merged in worker order by the coordinator.
  std::vector<std::vector<sql::Row>> local_rows;
  std::vector<LocalBuild> local_builds;
  std::vector<AggTable> local_groups;
  std::vector<int64_t> local_source_rows;

  bool abort = false;
  Status error;  // first error wins

  obs::TraceCollector* tracer = nullptr;
  obs::TraceId trace = 0;
  obs::SpanId span = 0;  // pipeline span

  std::unique_ptr<sim::Channel<int>> done;

  void Fail(Status s) {
    if (error.ok()) error = std::move(s);
    abort = true;
  }
};

// ---- min/max stripe pruning ------------------------------------------------

/// True when the scan filter provably rejects every row of a stripe, using
/// per-column min/max. Handles top-level AND of {col op const} and
/// {col BETWEEN a AND b}-shaped conjuncts; anything else is conservatively
/// kept.
bool StripePrunable(const sql::ExprPtr& filter,
                    const std::vector<storage::ColumnStats>& stats) {
  if (filter == nullptr) return false;
  std::vector<ExprPtr> conjuncts;
  engine::SplitConjuncts(filter, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c->kind != sql::ExprKind::kBinary) continue;
    sql::BinOp op = c->bin_op;
    if (op != sql::BinOp::kEq && op != sql::BinOp::kLt &&
        op != sql::BinOp::kLe && op != sql::BinOp::kGt &&
        op != sql::BinOp::kGe) {
      continue;
    }
    const ExprPtr& lhs = c->args[0];
    const ExprPtr& rhs = c->args[1];
    const sql::Expr* col = nullptr;
    const sql::Expr* lit = nullptr;
    bool flipped = false;
    if (lhs->kind == sql::ExprKind::kColumnRef &&
        rhs->kind == sql::ExprKind::kConst) {
      col = lhs.get();
      lit = rhs.get();
    } else if (rhs->kind == sql::ExprKind::kColumnRef &&
               lhs->kind == sql::ExprKind::kConst) {
      col = rhs.get();
      lit = lhs.get();
      flipped = true;
    } else {
      continue;
    }
    // Bound scan filters reference the full table row, so the resolved slot
    // is the physical column index.
    int idx = col->slot;
    if (idx < 0 || static_cast<size_t>(idx) >= stats.size()) continue;
    const storage::ColumnStats& st = stats[static_cast<size_t>(idx)];
    if (!st.has_values) continue;  // all-NULL column never matches anyway,
                                   // but comparisons with NULL are not
                                   // prunable knowledge; keep conservative
    const sql::Datum& v = lit->value;
    if (v.is_null()) continue;
    // Normalize to col OP v.
    sql::BinOp norm = op;
    if (flipped) {
      switch (op) {
        case sql::BinOp::kLt: norm = sql::BinOp::kGt; break;
        case sql::BinOp::kLe: norm = sql::BinOp::kGe; break;
        case sql::BinOp::kGt: norm = sql::BinOp::kLt; break;
        case sql::BinOp::kGe: norm = sql::BinOp::kLe; break;
        default: break;
      }
    }
    int cmp_min = sql::Datum::Compare(st.min, v);
    int cmp_max = sql::Datum::Compare(st.max, v);
    bool impossible = false;
    switch (norm) {
      case sql::BinOp::kEq: impossible = cmp_min > 0 || cmp_max < 0; break;
      case sql::BinOp::kLt: impossible = cmp_min >= 0; break;
      case sql::BinOp::kLe: impossible = cmp_min > 0; break;
      case sql::BinOp::kGt: impossible = cmp_max <= 0; break;
      case sql::BinOp::kGe: impossible = cmp_max < 0; break;
      default: break;
    }
    if (impossible) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Morsel execution.

/// Evaluate `exprs` over the live rows: kernel by kernel, or row-major
/// when several call random(). A failing kernel reports the error the
/// interpreter would have raised first.
Status EvalList(const ExecContext& ctx,
                const std::vector<const CompiledExpr*>& exprs, bool row_major,
                const DataChunk& chunk, const SelVector& sel,
                std::vector<Vec>* out) {
  sql::EvalContext env = ctx.EvalCtx(nullptr);
  if (row_major) return EvalRowMajor(exprs, env, chunk, sel, out);
  out->assign(exprs.size(), Vec());
  for (size_t i = 0; i < exprs.size(); i++) {
    Status s = exprs[i]->Eval(env, chunk, sel, &(*out)[i]);
    if (!s.ok()) {
      Status first = FirstRowError(exprs, env, chunk, sel);
      return first.ok() ? s : first;
    }
  }
  return Status::OK();
}

/// A fresh column: rows `idx` of `src` (NULL where an index is < 0).
Column Take(const storage::ColumnVector& src, const std::vector<int32_t>& idx) {
  auto out = std::make_shared<storage::ColumnVector>();
  out->AppendRows(src, idx.data(), idx.size());
  return out;
}

/// Read one morsel of the pipeline's source into a DataChunk. Sets
/// `*cancelled` on cancellation (no data touched afterwards).
Status ReadMorsel(ExecContext& ctx, PipelineRun& run, const MorselTask& m,
                  DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  const VecSource& src = run.pipe->source;
  switch (src.kind) {
    case VecSource::Kind::kColumnar: {
      storage::StripeView view;
      if (!src.table->columnar->ReadStripe(m.stripe, src.projection, &view)) {
        *cancelled = true;
        return Status::OK();
      }
      if (!ctx.ChargeCpu(view.rows * ctx.cost->vec_per_row_scan).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      chunk->rows = view.rows;
      chunk->columns = std::move(view.columns);
      return Status::OK();
    }
    case VecSource::Kind::kHeap: {
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      size_t width = static_cast<size_t>(src.table->schema().num_columns());
      std::vector<bool> wanted(width, src.projection.empty());
      for (int p : src.projection) {
        if (p >= 0 && static_cast<size_t>(p) < width) {
          wanted[static_cast<size_t>(p)] = true;
        }
      }
      std::vector<std::shared_ptr<storage::ColumnVector>> cols(width);
      for (size_t c = 0; c < width; c++) {
        if (wanted[c]) cols[c] = std::make_shared<storage::ColumnVector>();
      }
      int64_t rows = 0;
      for (int64_t rid = m.begin; rid < m.end; rid++) {
        if (!src.table->heap->TouchRow(static_cast<storage::RowId>(rid),
                                       /*dirty=*/false)) {
          *cancelled = true;
          return Status::OK();
        }
        const storage::TupleVersion* v = src.table->heap->VisibleVersion(
            static_cast<storage::RowId>(rid), ctx.snapshot, *ctx.txns);
        if (v == nullptr) continue;
        for (size_t c = 0; c < width; c++) {
          if (cols[c] != nullptr) cols[c]->Append(v->row[c]);
        }
        rows++;
      }
      chunk->rows = rows;
      chunk->columns.assign(cols.begin(), cols.end());
      return Status::OK();
    }
    case VecSource::Kind::kTemp:
    case VecSource::Kind::kMaterialized: {
      const std::vector<sql::Row>* rows =
          src.kind == VecSource::Kind::kTemp
              ? &src.temp->rows
              : &(*run.inters)[static_cast<size_t>(src.inter)];
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      std::vector<std::shared_ptr<storage::ColumnVector>> cols(src.width);
      for (auto& c : cols) c = std::make_shared<storage::ColumnVector>();
      for (int64_t r = m.begin; r < m.end; r++) {
        const sql::Row& row = (*rows)[static_cast<size_t>(r)];
        for (size_t c = 0; c < src.width; c++) {
          if (c < row.size()) {
            cols[c]->Append(row[c]);
          } else {
            cols[c]->AppendNull();
          }
        }
      }
      chunk->rows = m.end - m.begin;
      chunk->columns.assign(cols.begin(), cols.end());
      return Status::OK();
    }
  }
  return Status::Internal("unreachable source kind");
}

/// Apply a filter to `chunk`, narrowing its selection vector.
Status FilterChunk(ExecContext& ctx, const CompiledExpr* pred,
                   DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (n == 0 || pred == nullptr) return Status::OK();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_expr_eval).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  SelVector sel = chunk->Live();
  Status s = SelectWhere(*pred, ctx.EvalCtx(nullptr), *chunk, &sel);
  if (!s.ok()) {
    Status first = FirstRowError({pred}, ctx.EvalCtx(nullptr), *chunk, chunk->Live());
    return first.ok() ? s : first;
  }
  chunk->filtered = true;
  chunk->sel = std::move(sel);
  return Status::OK();
}

/// Evaluate projection expressions into fresh columns.
Status ProjectChunk(ExecContext& ctx, const VecOp& op, DataChunk* chunk,
                    bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * static_cast<int64_t>(op.cexprs.size()) *
                     ctx.cost->vec_per_expr_eval)
           .ok()) {
    *cancelled = true;
    return Status::OK();
  }
  SelVector sel = chunk->Live();
  std::vector<const CompiledExpr*> exprs;
  for (const auto& e : op.cexprs) exprs.push_back(e.get());
  std::vector<Vec> vals;
  CITUSX_RETURN_IF_ERROR(
      EvalList(ctx, exprs, op.row_major, *chunk, sel, &vals));
  DataChunk out;
  out.rows = chunk->rows;
  out.filtered = chunk->filtered;
  out.sel = std::move(sel);
  for (Vec& v : vals) {
    if (!v.is_const) {
      out.columns.push_back(std::move(v.col));
      continue;
    }
    // A constant becomes a column over the live rows.
    auto col = std::make_shared<storage::ColumnVector>();
    for (int64_t r = 0; r < out.rows; r++) col->Append(v.value);
    out.columns.push_back(std::move(col));
  }
  *chunk = std::move(out);
  return Status::OK();
}

/// Evaluate join keys over `sel`; each key after the first runs only on
/// rows whose earlier keys are non-NULL (a NULL key never joins, and the
/// interpreter stops at it).
Status EvalJoinKeys(const ExecContext& ctx, const CompiledList& keys,
                    const DataChunk& chunk, const SelVector& sel,
                    std::vector<Vec>* out) {
  sql::EvalContext env = ctx.EvalCtx(nullptr);
  out->assign(keys.size(), Vec());
  SelVector live = sel;
  for (size_t k = 0; k < keys.size(); k++) {
    CITUSX_RETURN_IF_ERROR(keys[k]->Eval(env, chunk, live, &(*out)[k]));
    if (k + 1 < keys.size()) {
      SelVector next;
      for (int32_t r : live) {
        if (!(*out)[k].IsNull(r)) next.push_back(r);
      }
      live = std::move(next);
    }
  }
  return Status::OK();
}

/// Rows (`left` of the probe batch, `right` of the build table) as a batch.
DataChunk JoinRows(const DataChunk& probe, const HashTable& table,
                   const std::vector<int32_t>& left,
                   const std::vector<int32_t>& right) {
  DataChunk out;
  out.rows = static_cast<int64_t>(left.size());
  for (const Column& c : probe.columns) {
    out.columns.push_back(c == nullptr ? nullptr : Take(*c, left));
  }
  for (const storage::ColumnVector& c : table.cols) {
    out.columns.push_back(Take(c, right));
  }
  return out;
}

/// Probe a built hash table: output rows in probe order, each probe row's
/// matches in build order, then (LEFT) a NULL-extended row for a probe row
/// no build row matched.
Status ProbeChunk(ExecContext& ctx, const VecOp& op, const HashTable& table,
                  DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  SelVector sel = chunk->Live();
  std::vector<Vec> keys;
  CITUSX_RETURN_IF_ERROR(EvalJoinKeys(ctx, op.ckeys, *chunk, sel, &keys));
  bool left_join = op.join_type == sql::JoinType::kLeft;
  // Candidate pairs, and each probe row's range of them.
  std::vector<int32_t> left, right;
  std::vector<int32_t> first(sel.size() + 1, 0);
  Key key;
  for (size_t k = 0; k < sel.size(); k++) {
    int32_t r = sel[k];
    first[k] = static_cast<int32_t>(left.size());
    int32_t g = KeyOf(keys, r, /*skip_nulls=*/true, &key)
                    ? table.index.Find(key)
                    : -1;
    if (g >= 0) {
      for (int32_t j = table.starts[static_cast<size_t>(g)];
           j < table.starts[static_cast<size_t>(g) + 1]; j++) {
        left.push_back(r);
        right.push_back(table.order[static_cast<size_t>(j)]);
      }
    } else if (left_join && op.cresidual == nullptr) {
      left.push_back(r);
      right.push_back(-1);
    }
  }
  first[sel.size()] = static_cast<int32_t>(left.size());
  if (op.cresidual == nullptr) {
    *chunk = JoinRows(*chunk, table, left, right);
    return Status::OK();
  }
  DataChunk cand = JoinRows(*chunk, table, left, right);
  SelVector pass = cand.Live();
  Status s = SelectWhere(*op.cresidual, ctx.EvalCtx(nullptr), cand, &pass);
  if (!s.ok()) {
    Status e = FirstRowError({op.cresidual.get()}, ctx.EvalCtx(nullptr), cand,
                             cand.Live());
    return e.ok() ? s : e;
  }
  if (!left_join) {
    cand.filtered = true;
    cand.sel = std::move(pass);
    *chunk = std::move(cand);
    return Status::OK();
  }
  std::vector<bool> passed(cand.rows, false);
  for (int32_t c : pass) passed[static_cast<size_t>(c)] = true;
  std::vector<int32_t> out_left, out_right;
  for (size_t k = 0; k < sel.size(); k++) {
    bool matched = false;
    for (int32_t c = first[k]; c < first[k + 1]; c++) {
      if (!passed[static_cast<size_t>(c)]) continue;
      matched = true;
      out_left.push_back(left[static_cast<size_t>(c)]);
      out_right.push_back(right[static_cast<size_t>(c)]);
    }
    if (!matched) {
      out_left.push_back(sel[k]);
      out_right.push_back(-1);
    }
  }
  *chunk = JoinRows(*chunk, table, out_left, out_right);
  return Status::OK();
}

/// Fold rows `sel` (group ids `gid`) into aggregate `a`'s states.
void Transition(const VecSink& sink, size_t a, const Vec* arg,
                const SelVector& sel, const std::vector<int32_t>& gid,
                std::vector<AggState>* states) {
  const size_t naggs = sink.aggs.size();
  const AggFunc f = sink.funcs[a];
  auto state = [&](size_t k) -> AggState& {
    return (*states)[static_cast<size_t>(gid[k]) * naggs + a];
  };
  if (sink.aggs[a].distinct && arg != nullptr) {
    // Collect values only; folded at merge so workers cannot
    // double-count a value seen in several morsels.
    for (size_t k = 0; k < sel.size(); k++) {
      if (arg->IsNull(sel[k])) continue;
      sql::Datum v = arg->Get(sel[k]);
      state(k).distinct_vals.emplace(v.GroupKey(), v);
    }
    return;
  }
  if (arg == nullptr || f == AggFunc::kCount) {
    for (size_t k = 0; k < sel.size(); k++) {
      if (arg != nullptr && arg->IsNull(sel[k])) continue;
      state(k).count++;
    }
    return;
  }
  const storage::ColumnVector* col = arg->is_const ? nullptr : arg->col.get();
  storage::Layout layout =
      col != nullptr ? col->layout() : storage::LayoutOf(arg->value.type());
  sql::TypeId type = col != nullptr ? col->type() : arg->value.type();
  const bool sum = f == AggFunc::kSum || f == AggFunc::kAvg;
  const bool min = f == AggFunc::kMin;
  for (size_t k = 0; k < sel.size(); k++) {
    int32_t r = sel[k];
    if (arg->IsNull(r)) continue;  // aggregates skip NULLs
    AggState& st = state(k);
    if (sum && layout == storage::Layout::kInt64) {
      int64_t v = col != nullptr ? col->ints()[r] : arg->ival;
      st.any = true;
      st.count++;
      st.sum_i += v;
      st.sum_f += static_cast<double>(v);
    } else if (sum && layout == storage::Layout::kDouble) {
      st.any = true;
      st.count++;
      st.sum_is_float = true;
      st.sum_f += col != nullptr ? col->doubles()[r] : arg->dval;
    } else if ((min || f == AggFunc::kMax) && col != nullptr &&
               !st.min_max.is_null() && st.min_max.type() == type &&
               layout != storage::Layout::kDatum) {
      // Same-typed bound: Datum::Compare is the native order.
      int c;
      switch (layout) {
        case storage::Layout::kInt64: {
          int64_t x = col->ints()[r], y = st.min_max.int_value();
          c = x < y ? -1 : (x > y ? 1 : 0);
          break;
        }
        case storage::Layout::kDouble: {
          double x = col->doubles()[r], y = st.min_max.float_value();
          c = x < y ? -1 : (x > y ? 1 : 0);
          break;
        }
        default:
          c = col->text(r).compare(st.min_max.text_value());
          break;
      }
      st.any = true;
      if (min ? c < 0 : c > 0) st.min_max = col->Get(r);
    } else {
      AggTransition(f, arg->Get(r), &st);
    }
  }
}

/// Feed a finished chunk into the worker-local sink.
Status SinkChunk(ExecContext& ctx, PipelineRun& run, int worker,
                 DataChunk& chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk.Count();
  const VecSink& sink = run.pipe->sink;
  switch (sink.kind) {
    case VecSink::Kind::kCollect: {
      auto& rows = run.local_rows[static_cast<size_t>(worker)];
      for (int32_t r : chunk.Live()) {
        sql::Row row;
        chunk.GatherRow(r, &row);
        rows.push_back(std::move(row));
      }
      return Status::OK();
    }
    case VecSink::Kind::kHashBuild: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      LocalBuild& build = run.local_builds[static_cast<size_t>(worker)];
      SelVector sel = chunk.Live();
      std::vector<Vec> keys;
      CITUSX_RETURN_IF_ERROR(EvalJoinKeys(ctx, sink.ckeys, chunk, sel, &keys));
      // Rows with a NULL key never join: they are not stored.
      std::vector<int32_t> keep;
      Key key;
      for (int32_t r : sel) {
        if (!KeyOf(keys, r, /*skip_nulls=*/true, &key)) continue;
        keep.push_back(r);
        build.keys.push_back(key);
      }
      build.cols.resize(chunk.columns.size());
      for (size_t c = 0; c < chunk.columns.size(); c++) {
        if (chunk.columns[c] == nullptr) {
          for (size_t k = 0; k < keep.size(); k++) build.cols[c].AppendNull();
        } else {
          build.cols[c].AppendRows(*chunk.columns[c], keep.data(),
                                   keep.size());
        }
      }
      return Status::OK();
    }
    case VecSink::Kind::kAggregate: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      AggTable& groups = run.local_groups[static_cast<size_t>(worker)];
      SelVector sel = chunk.Live();
      // Group expressions, then each aggregate's argument: the
      // interpreter's order.
      std::vector<const CompiledExpr*> exprs;
      for (const auto& g : sink.cgroups) exprs.push_back(g.get());
      for (const auto& a : sink.cargs) {
        if (a != nullptr) exprs.push_back(a.get());
      }
      std::vector<Vec> vals;
      CITUSX_RETURN_IF_ERROR(
          EvalList(ctx, exprs, sink.row_major, chunk, sel, &vals));
      std::vector<Vec> gvals(vals.begin(),
                             vals.begin() + static_cast<std::ptrdiff_t>(
                                                sink.cgroups.size()));
      const size_t naggs = sink.aggs.size();
      std::vector<int32_t> gid(sel.size());
      Key key;
      for (size_t k = 0; k < sel.size(); k++) {
        if (gvals.empty() && !groups.keys.empty()) break;  // one group: 0
        int32_t r = sel[k];
        KeyOf(gvals, r, /*skip_nulls=*/false, &key);
        int32_t g = groups.index.FindOrInsert(key);
        if (static_cast<size_t>(g) == groups.keys.size()) {
          sql::Row values;
          for (const Vec& v : gvals) values.push_back(v.Get(r));
          groups.keys.push_back(key);
          groups.values.push_back(std::move(values));
          groups.states.resize(groups.states.size() + naggs);
        }
        gid[k] = g;
      }
      size_t next = sink.cgroups.size();
      for (size_t a = 0; a < naggs; a++) {
        const Vec* arg = sink.cargs[a] != nullptr ? &vals[next++] : nullptr;
        Transition(sink, a, arg, sel, gid, &groups.states);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable sink kind");
}

/// One worker process: claim morsels until none remain, running the
/// pipeline's operator chain over each. Every exit path sends exactly one
/// completion message, so the coordinator can never hang — a mid-query
/// crash or cancellation surfaces as an error status instead.
void MorselWorker(std::shared_ptr<PipelineRun> run, int worker,
                  ExecContext ctx) {
  Status status = Status::OK();
  bool cancelled = false;
  while (!cancelled && status.ok()) {
    if (run->abort || ctx.sim->stopping()) break;
    if (run->next_morsel >= run->morsels.size()) break;
    const MorselTask m = run->morsels[run->next_morsel++];
    obs::SpanId mspan = 0;
    if (run->tracer != nullptr) {
      mspan = run->tracer->StartSpan(run->trace, run->span, "morsel", "",
                                     ctx.sim->now());
    }
    if (!ctx.ChargeCpu(ctx.cost->vec_morsel_overhead).ok()) {
      cancelled = true;
      break;
    }
    DataChunk chunk;
    status = ReadMorsel(ctx, *run, m, &chunk, &cancelled);
    if (!status.ok() || cancelled) break;
    run->local_source_rows[static_cast<size_t>(worker)] += chunk.rows;
    if (run->pipe->source.cfilter != nullptr) {
      status = FilterChunk(ctx, run->pipe->source.cfilter.get(), &chunk,
                           &cancelled);
      if (!status.ok() || cancelled) break;
    }
    for (const VecOp& op : run->pipe->ops) {
      switch (op.kind) {
        case VecOp::Kind::kFilter:
          status = FilterChunk(ctx, op.cpredicate.get(), &chunk, &cancelled);
          break;
        case VecOp::Kind::kProject:
          status = ProjectChunk(ctx, op, &chunk, &cancelled);
          break;
        case VecOp::Kind::kHashProbe:
          status = ProbeChunk(
              ctx, op, (*run->hash_tables)[static_cast<size_t>(op.build)],
              &chunk, &cancelled);
          break;
      }
      if (!status.ok() || cancelled) break;
    }
    if (!status.ok() || cancelled) break;
    status = SinkChunk(ctx, *run, worker, chunk, &cancelled);
    if (run->tracer != nullptr) {
      run->tracer->SetRows(mspan, chunk.Count());
      run->tracer->EndSpan(mspan, ctx.sim->now());
    }
  }
  if (cancelled) {
    run->Fail(Status::Cancelled("simulation stopping"));
  } else if (!status.ok()) {
    run->Fail(std::move(status));
  }
  CITUSX_IGNORE_STATUS(ctx.FlushCpu(), "worker exit; cancellation handled");
  run->done->Send(worker);
}

// ---- sequential post ops ---------------------------------------------------

Status ApplyPost(ExecContext& ctx, const PostOp& post,
                 std::vector<sql::Row>* rows) {
  switch (post.kind) {
    case PostOp::Kind::kSort: {
      CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(
          static_cast<int64_t>(rows->size()) * ctx.cost->vec_per_row_sort));
      std::stable_sort(rows->begin(), rows->end(),
                       [&post](const sql::Row& a, const sql::Row& b) {
                         for (size_t i = 0; i < post.sort_slots.size(); i++) {
                           size_t s =
                               static_cast<size_t>(post.sort_slots[i]);
                           int c = sql::Datum::Compare(a[s], b[s]);
                           if (c != 0) return post.desc[i] ? c > 0 : c < 0;
                         }
                         return false;
                       });
      return Status::OK();
    }
    case PostOp::Kind::kLimit: {
      int64_t begin = std::min<int64_t>(post.offset,
                                        static_cast<int64_t>(rows->size()));
      int64_t end = post.limit < 0
                        ? static_cast<int64_t>(rows->size())
                        : std::min<int64_t>(begin + post.limit,
                                            static_cast<int64_t>(rows->size()));
      std::vector<sql::Row> out(rows->begin() + begin, rows->begin() + end);
      *rows = std::move(out);
      return Status::OK();
    }
    case PostOp::Kind::kDistinct: {
      CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(
          static_cast<int64_t>(rows->size()) * ctx.cost->vec_per_row_hash));
      std::set<std::string> seen;
      std::vector<sql::Row> out;
      for (auto& row : *rows) {
        std::string key;
        for (const auto& d : row) {
          key += d.GroupKey();
          key.push_back('\x1f');
        }
        if (seen.insert(key).second) out.push_back(std::move(row));
      }
      *rows = std::move(out);
      return Status::OK();
    }
    case PostOp::Kind::kStrip: {
      for (auto& row : *rows) row.resize(static_cast<size_t>(post.keep));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable post op");
}

// ---- merges of the worker-local sinks, in worker order ---------------------

/// Width of the batches a pipeline's last operator hands its sink.
size_t OutputWidth(const Pipeline& pipe) {
  return pipe.ops.empty() ? pipe.source.width : pipe.ops.back().out_width;
}

/// The build rows of every worker, and their keys' row lists.
void MergeBuild(std::vector<LocalBuild>* locals, size_t width,
                HashTable* table) {
  table->cols.assign(width, storage::ColumnVector());
  std::vector<int32_t> gid;
  for (LocalBuild& local : *locals) {
    if (local.keys.empty()) continue;
    if (gid.empty() && local.cols.size() == width) {
      table->cols = std::move(local.cols);  // the first rows: no copy
    } else {
      std::vector<int32_t> all(local.keys.size());
      for (size_t i = 0; i < all.size(); i++) all[i] = static_cast<int32_t>(i);
      for (size_t c = 0; c < width; c++) {
        if (c < local.cols.size()) {
          table->cols[c].AppendRows(local.cols[c], all.data(), all.size());
        } else {
          for (size_t i = 0; i < all.size(); i++) table->cols[c].AppendNull();
        }
      }
    }
    for (const Key& k : local.keys) gid.push_back(table->index.FindOrInsert(k));
    local = LocalBuild();
  }
  table->rows = static_cast<int64_t>(gid.size());
  // Counting sort by key id keeps each key's rows in insertion order.
  table->starts.assign(table->index.size() + 1, 0);
  for (int32_t g : gid) table->starts[static_cast<size_t>(g) + 1]++;
  for (size_t g = 0; g < table->index.size(); g++) {
    table->starts[g + 1] += table->starts[g];
  }
  std::vector<int32_t> fill(table->starts.begin(), table->starts.end() - 1);
  table->order.assign(gid.size(), 0);
  for (size_t row = 0; row < gid.size(); row++) {
    table->order[static_cast<size_t>(fill[static_cast<size_t>(gid[row])]++)] =
        static_cast<int32_t>(row);
  }
}

/// Merged groups as output rows, in GroupKey order.
void MergeGroups(const VecSink& sink, std::vector<AggTable>* locals,
                 std::vector<sql::Row>* out) {
  const size_t naggs = sink.aggs.size();
  AggTable merged;
  for (AggTable& local : *locals) {
    for (size_t g = 0; g < local.keys.size(); g++) {
      int32_t m = merged.index.FindOrInsert(local.keys[g]);
      if (static_cast<size_t>(m) == merged.keys.size()) {
        merged.keys.push_back(std::move(local.keys[g]));
        merged.values.push_back(std::move(local.values[g]));
        merged.states.resize(merged.states.size() + naggs);
      }
      for (size_t a = 0; a < naggs; a++) {
        MergeAggState(sink.funcs[a], sink.aggs[a].distinct,
                      local.states[g * naggs + a],
                      &merged.states[static_cast<size_t>(m) * naggs + a]);
      }
    }
    local = AggTable();
  }
  if (merged.keys.empty() && sink.group_exprs.empty()) {
    // Aggregate over empty input: one row of "empty" aggregates.
    merged.keys.emplace_back();
    merged.values.emplace_back();
    merged.states.resize(naggs);
  }
  std::vector<std::pair<std::string, size_t>> order;
  for (size_t g = 0; g < merged.keys.size(); g++) {
    order.emplace_back(merged.keys[g].SortKey(), g);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [sort_key, g] : order) {
    sql::Row row = std::move(merged.values[g]);
    for (size_t a = 0; a < naggs; a++) {
      AggState& st = merged.states[g * naggs + a];
      // Fold collected DISTINCT values now that duplicates are merged.
      if (sink.aggs[a].distinct) {
        for (const auto& [dk, dv] : st.distinct_vals) {
          AggTransition(sink.funcs[a], dv, &st);
        }
      }
      row.push_back(AggFinal(sink.funcs[a], st));
    }
    out->push_back(std::move(row));
  }
}

// ---------------------------------------------------------------------------
// Pipeline driver.

Status RunPipeline(engine::Node* node, ExecContext& ctx, const VecPlan& plan,
                   const Pipeline& pipe,
                   std::vector<std::vector<sql::Row>>* inters,
                   std::vector<HashTable>* hash_tables) {
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->vec_pipeline_startup));

  auto run = std::make_shared<PipelineRun>();
  run->plan = &plan;
  run->pipe = &pipe;
  run->inters = inters;
  run->hash_tables = hash_tables;
  run->done = std::make_unique<sim::Channel<int>>(ctx.sim);
  run->tracer = ctx.tracer;
  run->trace = ctx.trace;

  // Split the source into morsels.
  switch (pipe.source.kind) {
    case VecSource::Kind::kColumnar: {
      storage::ColumnarTable* col = pipe.source.table->columnar.get();
      int64_t units = col->num_read_units();
      for (int64_t s = 0; s < units; s++) {
        if (!col->StripeVisible(s, ctx.snapshot, *ctx.txns)) continue;
        const std::vector<storage::ColumnStats>* stats = col->StripeStats(s);
        // Pruning reads the unfolded filter, as it always has.
        if (stats != nullptr && StripePrunable(pipe.source.filter, *stats)) {
          run->pruned_stripes++;
          continue;
        }
        MorselTask m;
        m.stripe = s;
        run->morsels.push_back(m);
      }
      break;
    }
    case VecSource::Kind::kHeap: {
      int64_t n =
          static_cast<int64_t>(pipe.source.table->heap->num_rows());
      for (int64_t b = 0; b < n; b += ctx.cost->vec_morsel_rows) {
        MorselTask m;
        m.begin = b;
        m.end = std::min(n, b + ctx.cost->vec_morsel_rows);
        run->morsels.push_back(m);
      }
      break;
    }
    case VecSource::Kind::kTemp:
    case VecSource::Kind::kMaterialized: {
      int64_t n = static_cast<int64_t>(
          pipe.source.kind == VecSource::Kind::kTemp
              ? pipe.source.temp->rows.size()
              : (*inters)[static_cast<size_t>(pipe.source.inter)].size());
      for (int64_t b = 0; b < n; b += ctx.cost->vec_morsel_rows) {
        MorselTask m;
        m.begin = b;
        m.end = std::min(n, b + ctx.cost->vec_morsel_rows);
        run->morsels.push_back(m);
      }
      break;
    }
  }

  int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(1, ctx.cost->cores_per_node)),
      std::max<size_t>(1, run->morsels.size())));
  run->local_rows.resize(static_cast<size_t>(workers));
  run->local_builds.resize(static_cast<size_t>(workers));
  run->local_groups.resize(static_cast<size_t>(workers));
  run->local_source_rows.assign(static_cast<size_t>(workers), 0);

  if (ctx.tracer != nullptr) {
    run->span = ctx.tracer->StartSpan(
        ctx.trace, ctx.parent_span, "pipeline",
        node != nullptr ? node->name() : std::string(), ctx.sim->now());
    ctx.tracer->SetAttr(run->span, "ops", pipe.desc);
    ctx.tracer->SetAttr(run->span, "morsels",
                        std::to_string(run->morsels.size()));
    ctx.tracer->SetAttr(run->span, "workers", std::to_string(workers));
    if (run->pruned_stripes > 0) {
      ctx.tracer->SetAttr(run->span, "pruned_stripes",
                          std::to_string(run->pruned_stripes));
    }
  }

  // Parallel morsel phase. The accumulated statement cost is flushed first
  // so it lands on the coordinating process, not a worker.
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  if (workers == 1) {
    MorselWorker(run, 0, ctx);
    if (!run->done->Receive().has_value()) {
      run->abort = true;
      return Status::Cancelled("simulation stopping");
    }
  } else {
    for (int w = 0; w < workers; w++) {
      ExecContext wctx = ctx;
      wctx.pending_cpu_ = 0;
      ctx.sim->Spawn(StrFormat("morsel-worker-%d", w),
                     [run, w, wctx]() mutable { MorselWorker(run, w, wctx); },
                     /*daemon=*/true);
    }
    for (int w = 0; w < workers; w++) {
      if (!run->done->Receive().has_value()) {
        // This coordinating process was cancelled; workers co-own the run
        // state and drain on their own.
        run->abort = true;
        return Status::Cancelled("simulation stopping");
      }
    }
  }
  if (!run->error.ok()) {
    if (ctx.tracer != nullptr) ctx.tracer->EndSpan(run->span, ctx.sim->now());
    return run->error;
  }

  // Merge worker-local sinks in worker order (deterministic).
  int64_t out_rows = 0;
  switch (pipe.sink.kind) {
    case VecSink::Kind::kCollect: {
      auto& out = (*inters)[static_cast<size_t>(pipe.sink.target)];
      for (auto& local : run->local_rows) {
        for (auto& row : local) out.push_back(std::move(row));
      }
      for (const PostOp& post : pipe.posts) {
        CITUSX_RETURN_IF_ERROR(ApplyPost(ctx, post, &out));
      }
      out_rows = static_cast<int64_t>(out.size());
      break;
    }
    case VecSink::Kind::kHashBuild: {
      HashTable& table = (*hash_tables)[static_cast<size_t>(pipe.sink.target)];
      MergeBuild(&run->local_builds, OutputWidth(pipe), &table);
      out_rows = table.rows;
      break;
    }
    case VecSink::Kind::kAggregate: {
      auto& out = (*inters)[static_cast<size_t>(pipe.sink.target)];
      MergeGroups(pipe.sink, &run->local_groups, &out);
      out_rows = static_cast<int64_t>(out.size());
      break;
    }
  }
  if (ctx.tracer != nullptr) {
    ctx.tracer->SetRows(run->span, out_rows);
    ctx.tracer->EndSpan(run->span, ctx.sim->now());
  }
  return Status::OK();
}

Result<std::optional<QueryResult>> RunVectorized(engine::Node* node,
                                                 ExecNode& plan,
                                                 ExecContext& ctx) {
  VecPlan vplan;
  Builder builder(&vplan);
  Pipeline root;
  if (!builder.Build(&plan, &root)) {
    return std::optional<QueryResult>();  // unsupported: volcano fallback
  }
  if (root.source.kind == VecSource::Kind::kMaterialized && root.ops.empty()) {
    // The tree ended in a breaker; its intermediate is the result.
    vplan.final_inter = root.source.inter;
  } else {
    vplan.final_inter = vplan.num_inters++;
    root.sink.kind = VecSink::Kind::kCollect;
    root.sink.target = vplan.final_inter;
    vplan.pipelines.push_back(std::move(root));
  }
  // Only a plan the vectorized engine runs pays for typing.
  CompilePlan(&vplan, ctx.params);

  std::vector<std::vector<sql::Row>> inters(
      static_cast<size_t>(vplan.num_inters));
  std::vector<HashTable> hash_tables(
      static_cast<size_t>(vplan.num_hash_tables));
  for (const Pipeline& pipe : vplan.pipelines) {
    CITUSX_RETURN_IF_ERROR(
        RunPipeline(node, ctx, vplan, pipe, &inters, &hash_tables));
  }

  QueryResult out;
  out.column_names = plan.output_names;
  out.column_types = plan.output_types;
  out.rows = std::move(inters[static_cast<size_t>(vplan.final_inter)]);
  out.command_tag = "SELECT";
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  return std::optional<QueryResult>(std::move(out));
}

}  // namespace

void InstallVectorizedExecutor(engine::Node* node) {
  node->set_batch_executor(
      [node](engine::ExecNode& plan,
             engine::ExecContext& ctx) -> Result<std::optional<QueryResult>> {
        return RunVectorized(node, plan, ctx);
      });
}

}  // namespace citusx::exec
