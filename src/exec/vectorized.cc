#include "exec/vectorized.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str.h"
#include "exec/batch.h"
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

struct VecSource {
  enum class Kind { kColumnar, kHeap, kTemp, kMaterialized };
  Kind kind = Kind::kMaterialized;
  engine::TableInfo* table = nullptr;  // kColumnar / kHeap
  ExprPtr filter;                      // scan filter; may be null
  std::vector<int> projection;         // kColumnar: referenced columns
  const engine::TempRelation* temp = nullptr;  // kTemp
  int inter = -1;                      // kMaterialized: intermediate slot
  size_t width = 0;
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
};

struct VecSink {
  enum class Kind { kCollect, kHashBuild, kAggregate };
  Kind kind = Kind::kCollect;
  int target = -1;              // intermediate slot or hash-table slot
  std::vector<ExprPtr> keys;    // kHashBuild
  std::vector<ExprPtr> group_exprs;  // kAggregate
  std::vector<engine::AggSpec> aggs;
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

void AggTransition(const engine::AggSpec& spec, const sql::Datum& v,
                   AggState* st) {
  if (spec.func == "count") {
    st->count++;
    return;
  }
  st->any = true;
  if (spec.func == "sum" || spec.func == "avg") {
    st->count++;
    if (v.type() == sql::TypeId::kFloat8) {
      st->sum_is_float = true;
      st->sum_f += v.float_value();
    } else {
      st->sum_i += v.AsInt64();
      st->sum_f += static_cast<double>(v.AsInt64());
    }
    return;
  }
  if (spec.func == "min") {
    if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) < 0) {
      st->min_max = v;
    }
    return;
  }
  if (spec.func == "max") {
    if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) > 0) {
      st->min_max = v;
    }
    return;
  }
}

void MergeAggState(const engine::AggSpec& spec, const AggState& in,
                   AggState* out) {
  if (spec.distinct) {
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
        (spec.func == "min" &&
         sql::Datum::Compare(in.min_max, out->min_max) < 0) ||
        (spec.func == "max" &&
         sql::Datum::Compare(in.min_max, out->min_max) > 0)) {
      out->min_max = in.min_max;
    }
  }
}

sql::Datum AggFinal(const engine::AggSpec& spec, const AggState& st) {
  if (spec.func == "count") return sql::Datum::Int8(st.count);
  if (spec.func == "sum") {
    if (!st.any) return sql::Datum::Null();
    return st.sum_is_float ? sql::Datum::Float8(st.sum_f)
                           : sql::Datum::Int8(st.sum_i);
  }
  if (spec.func == "avg") {
    if (st.count == 0) return sql::Datum::Null();
    return sql::Datum::Float8(st.sum_f / static_cast<double>(st.count));
  }
  return st.min_max;  // min/max; NULL when no input
}

struct AggGroup {
  sql::Row keys;
  std::vector<AggState> states;
};
using AggGroups = std::map<std::string, AggGroup>;

using HashTable = std::unordered_map<std::string, std::vector<sql::Row>>;

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
  std::vector<HashTable> local_tables;
  std::vector<AggGroups> local_groups;
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

Result<std::string> RowKeyOf(ExecContext& ctx,
                             const std::vector<ExprPtr>& keys,
                             const sql::Row& row) {
  std::string out;
  auto ec = ctx.EvalCtx(&row);
  for (const auto& k : keys) {
    CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*k, ec));
    if (v.is_null()) return std::string();  // NULL keys never join
    out += v.GroupKey();
    out.push_back('\x1f');
  }
  return out;
}

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

/// Read one morsel of the pipeline's source into a DataChunk. Returns false
/// in `*ok` on cancellation (no data touched afterwards).
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
      chunk->columns.clear();
      for (const auto* col : view.columns) {
        chunk->columns.push_back(ColumnRef::Borrowed(col));
      }
      return Status::OK();
    }
    case VecSource::Kind::kHeap: {
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      size_t width = static_cast<size_t>(src.table->schema().num_columns());
      std::vector<std::vector<sql::Datum>> cols(width);
      for (int64_t rid = m.begin; rid < m.end; rid++) {
        if (!src.table->heap->TouchRow(static_cast<storage::RowId>(rid),
                                       /*dirty=*/false)) {
          *cancelled = true;
          return Status::OK();
        }
        const storage::TupleVersion* v = src.table->heap->VisibleVersion(
            static_cast<storage::RowId>(rid), ctx.snapshot, *ctx.txns);
        if (v == nullptr) continue;
        for (size_t c = 0; c < width; c++) cols[c].push_back(v->row[c]);
      }
      chunk->rows = cols.empty() ? 0 : static_cast<int64_t>(cols[0].size());
      chunk->columns.clear();
      for (auto& c : cols) chunk->columns.push_back(ColumnRef::Owned(std::move(c)));
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
      size_t width = src.width;
      std::vector<std::vector<sql::Datum>> cols(width);
      for (int64_t r = m.begin; r < m.end; r++) {
        const sql::Row& row = (*rows)[static_cast<size_t>(r)];
        for (size_t c = 0; c < width && c < row.size(); c++) {
          cols[c].push_back(row[c]);
        }
      }
      chunk->rows = m.end - m.begin;
      chunk->columns.clear();
      for (auto& c : cols) chunk->columns.push_back(ColumnRef::Owned(std::move(c)));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable source kind");
}

/// Apply a filter expression to `chunk`, narrowing its selection vector.
Status FilterChunk(ExecContext& ctx, const ExprPtr& pred, DataChunk* chunk,
                   bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (n == 0 || pred == nullptr) return Status::OK();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_expr_eval).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  std::vector<int64_t> sel;
  sel.reserve(static_cast<size_t>(n));
  sql::Row scratch;
  for (int64_t i = 0; i < n; i++) {
    chunk->GatherRow(i, &scratch);
    auto ec = ctx.EvalCtx(&scratch);
    CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*pred, ec));
    if (keep) sel.push_back(chunk->At(i));
  }
  chunk->filtered = true;
  chunk->sel = std::move(sel);
  return Status::OK();
}

/// Evaluate projection expressions into fresh owned columns.
Status ProjectChunk(ExecContext& ctx, const std::vector<ExprPtr>& exprs,
                    DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * static_cast<int64_t>(exprs.size()) *
                     ctx.cost->vec_per_expr_eval)
           .ok()) {
    *cancelled = true;
    return Status::OK();
  }
  std::vector<std::vector<sql::Datum>> cols(exprs.size());
  for (auto& c : cols) c.reserve(static_cast<size_t>(n));
  sql::Row scratch;
  for (int64_t i = 0; i < n; i++) {
    chunk->GatherRow(i, &scratch);
    auto ec = ctx.EvalCtx(&scratch);
    for (size_t e = 0; e < exprs.size(); e++) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*exprs[e], ec));
      cols[e].push_back(std::move(v));
    }
  }
  DataChunk out;
  out.rows = n;
  for (auto& c : cols) out.columns.push_back(ColumnRef::Owned(std::move(c)));
  *chunk = std::move(out);
  return Status::OK();
}

/// Probe a built hash table; emits combined rows into fresh owned columns.
Status ProbeChunk(ExecContext& ctx, const VecOp& op, const HashTable& table,
                  DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  size_t left_width = chunk->columns.size();
  size_t out_width = left_width + op.build_width;
  std::vector<std::vector<sql::Datum>> cols(out_width);
  sql::Row scratch;
  auto emit = [&](const sql::Row& left, const sql::Row* right) {
    for (size_t c = 0; c < left_width; c++) cols[c].push_back(left[c]);
    for (size_t c = 0; c < op.build_width; c++) {
      cols[left_width + c].push_back(right == nullptr ? sql::Datum::Null()
                                                      : (*right)[c]);
    }
  };
  for (int64_t i = 0; i < n; i++) {
    chunk->GatherRow(i, &scratch);
    CITUSX_ASSIGN_OR_RETURN(std::string key, RowKeyOf(ctx, op.keys, scratch));
    bool matched = false;
    if (!key.empty()) {
      auto it = table.find(key);
      if (it != table.end()) {
        for (const sql::Row& rrow : it->second) {
          if (op.residual != nullptr) {
            sql::Row combined = scratch;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            auto ec = ctx.EvalCtx(&combined);
            CITUSX_ASSIGN_OR_RETURN(bool keep,
                                    sql::EvalPredicate(*op.residual, ec));
            if (!keep) continue;
          }
          matched = true;
          emit(scratch, &rrow);
        }
      }
    }
    if (!matched && op.join_type == sql::JoinType::kLeft) {
      emit(scratch, nullptr);
    }
  }
  DataChunk out;
  out.rows = cols.empty() ? 0 : static_cast<int64_t>(cols[0].size());
  for (auto& c : cols) out.columns.push_back(ColumnRef::Owned(std::move(c)));
  *chunk = std::move(out);
  return Status::OK();
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
      sql::Row scratch;
      for (int64_t i = 0; i < n; i++) {
        chunk.GatherRow(i, &scratch);
        rows.push_back(scratch);
      }
      return Status::OK();
    }
    case VecSink::Kind::kHashBuild: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      auto& table = run.local_tables[static_cast<size_t>(worker)];
      sql::Row scratch;
      for (int64_t i = 0; i < n; i++) {
        chunk.GatherRow(i, &scratch);
        CITUSX_ASSIGN_OR_RETURN(std::string key,
                                RowKeyOf(ctx, sink.keys, scratch));
        if (!key.empty()) table[key].push_back(scratch);
      }
      return Status::OK();
    }
    case VecSink::Kind::kAggregate: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      auto& groups = run.local_groups[static_cast<size_t>(worker)];
      sql::Row scratch;
      for (int64_t i = 0; i < n; i++) {
        chunk.GatherRow(i, &scratch);
        auto ec = ctx.EvalCtx(&scratch);
        std::string key;
        sql::Row key_vals;
        for (const auto& g : sink.group_exprs) {
          CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*g, ec));
          key += v.GroupKey();
          key.push_back('\x1f');
          key_vals.push_back(std::move(v));
        }
        auto [it, added] = groups.try_emplace(key);
        if (added) {
          it->second.keys = std::move(key_vals);
          it->second.states.resize(sink.aggs.size());
        }
        for (size_t a = 0; a < sink.aggs.size(); a++) {
          const engine::AggSpec& spec = sink.aggs[a];
          sql::Datum v;
          if (spec.arg != nullptr) {
            CITUSX_ASSIGN_OR_RETURN(v, sql::Eval(*spec.arg, ec));
            if (v.is_null()) continue;  // aggregates skip NULLs
          }
          AggState& st = it->second.states[a];
          if (spec.distinct && spec.arg != nullptr) {
            // Collect values only; folded at merge so workers cannot
            // double-count a value seen in several morsels.
            st.distinct_vals.emplace(v.GroupKey(), v);
            continue;
          }
          AggTransition(spec, v, &st);
        }
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
    if (run->pipe->source.filter != nullptr) {
      status = FilterChunk(ctx, run->pipe->source.filter, &chunk, &cancelled);
      if (!status.ok() || cancelled) break;
    }
    for (const VecOp& op : run->pipe->ops) {
      switch (op.kind) {
        case VecOp::Kind::kFilter:
          status = FilterChunk(ctx, op.predicate, &chunk, &cancelled);
          break;
        case VecOp::Kind::kProject:
          status = ProjectChunk(ctx, op.exprs, &chunk, &cancelled);
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
  run->local_tables.resize(static_cast<size_t>(workers));
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
      auto& table = (*hash_tables)[static_cast<size_t>(pipe.sink.target)];
      for (auto& local : run->local_tables) {
        for (auto& [key, rows] : local) {
          auto& dst = table[key];
          for (auto& row : rows) dst.push_back(std::move(row));
        }
        local.clear();
      }
      for (const auto& [key, rows] : table) {
        out_rows += static_cast<int64_t>(rows.size());
      }
      break;
    }
    case VecSink::Kind::kAggregate: {
      AggGroups merged;
      for (auto& local : run->local_groups) {
        for (auto& [key, group] : local) {
          auto [it, added] = merged.try_emplace(key);
          if (added) {
            it->second.keys = std::move(group.keys);
            it->second.states.resize(pipe.sink.aggs.size());
          }
          for (size_t a = 0; a < pipe.sink.aggs.size(); a++) {
            MergeAggState(pipe.sink.aggs[a], group.states[a],
                          &it->second.states[a]);
          }
        }
      }
      if (merged.empty() && pipe.sink.group_exprs.empty()) {
        // Aggregate over empty input: one row of "empty" aggregates.
        AggGroup g;
        g.states.resize(pipe.sink.aggs.size());
        merged.emplace("", std::move(g));
      }
      auto& out = (*inters)[static_cast<size_t>(pipe.sink.target)];
      for (auto& [key, g] : merged) {
        sql::Row row = std::move(g.keys);
        for (size_t a = 0; a < pipe.sink.aggs.size(); a++) {
          AggState& st = g.states[a];
          // Fold collected DISTINCT values now that duplicates are merged.
          if (pipe.sink.aggs[a].distinct) {
            for (const auto& [dk, dv] : st.distinct_vals) {
              AggTransition(pipe.sink.aggs[a], dv, &st);
            }
          }
          row.push_back(AggFinal(pipe.sink.aggs[a], st));
        }
        out.push_back(std::move(row));
      }
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
