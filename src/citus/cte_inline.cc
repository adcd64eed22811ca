// CTE inlining and materialization for the distributed planner (ports the
// ideas of citus cte_inline.c onto the four-tier planner):
//  - inlinable WITH entries fold into the outer query as subqueries before
//    tier selection (pg12 rules for a dialect without volatile functions:
//    NOT MATERIALIZED always folds, MATERIALIZED never does, and by default
//    a CTE referenced at most once folds when citus.enable_cte_inlining is
//    on);
//  - the rest materialize, in declaration order, to intermediate results
//    that are pruned-broadcast only to the workers referencing them (a CTE
//    used solely by other CTEs or a coordinator-local outer query never
//    touches a worker);
//  - trivial FROM subqueries (`(SELECT * FROM t) x`) are pulled up first so
//    mechanically generated queries still reach the router/pushdown tiers.
//
// This pass runs before AnalyzeTables: a WITH name is not a relation, and
// table analysis would otherwise misread it as a local table and reject the
// query as an unsupported distributed/local join.
#include <set>

#include "citus/planner.h"
#include "engine/hooks.h"
#include "sql/deparser.h"

namespace citusx::citus {

namespace {

uint64_t g_cte_counter = 0;

// Count base-table references to `name` in the FROM trees of `sel`,
// recursively through joins, subqueries, and nested CTE bodies. A nested
// WITH entry of the same name shadows the outer one for everything after it.
int CountTableRefs(const sql::SelectStmt& sel, const std::string& name);

int CountRefsInFrom(const sql::TableRef& ref, const std::string& name) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      return ref.name == name ? 1 : 0;
    case sql::TableRef::Kind::kSubquery:
      return CountTableRefs(*ref.subquery, name);
    case sql::TableRef::Kind::kJoin:
      return CountRefsInFrom(*ref.left, name) +
             CountRefsInFrom(*ref.right, name);
  }
  return 0;
}

int CountTableRefs(const sql::SelectStmt& sel, const std::string& name) {
  int n = 0;
  for (const auto& c : sel.ctes) {
    if (c.query) n += CountTableRefs(*c.query, name);
    if (c.name == name) return n;  // shadowed from here on
  }
  for (const auto& f : sel.from) n += CountRefsInFrom(*f, name);
  return n;
}

// Collect every base-table name referenced anywhere in `sel` (FROM trees,
// joins, subqueries, CTE bodies), treating WITH-bound names as non-tables.
void CollectTableNames(const sql::SelectStmt& sel, std::set<std::string> bound,
                       std::set<std::string>* out);

void CollectNamesInFrom(const sql::TableRef& ref,
                        const std::set<std::string>& bound,
                        std::set<std::string>* out) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      if (bound.count(ref.name) == 0) out->insert(ref.name);
      return;
    case sql::TableRef::Kind::kSubquery:
      CollectTableNames(*ref.subquery, bound, out);
      return;
    case sql::TableRef::Kind::kJoin:
      CollectNamesInFrom(*ref.left, bound, out);
      CollectNamesInFrom(*ref.right, bound, out);
      return;
  }
}

void CollectTableNames(const sql::SelectStmt& sel, std::set<std::string> bound,
                       std::set<std::string>* out) {
  for (const auto& c : sel.ctes) {
    if (c.query) CollectTableNames(*c.query, bound, out);
    bound.insert(c.name);
  }
  for (const auto& f : sel.from) CollectNamesInFrom(*f, bound, out);
}

bool HasPullableSubquery(const sql::SelectStmt& sel);

bool PullableInFrom(const sql::TableRef& ref) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      return false;
    case sql::TableRef::Kind::kSubquery:
      // The engine's own shape test: claiming a pullup the engine pass
      // would not perform would re-enter the rewrite without progress.
      return (!ref.alias.empty() &&
              engine::IsTrivialWrapper(*ref.subquery)) ||
             HasPullableSubquery(*ref.subquery);
    case sql::TableRef::Kind::kJoin:
      return PullableInFrom(*ref.left) || PullableInFrom(*ref.right);
  }
  return false;
}

bool HasPullableSubquery(const sql::SelectStmt& sel) {
  for (const auto& c : sel.ctes) {
    if (c.query && HasPullableSubquery(*c.query)) return true;
  }
  for (const auto& f : sel.from) {
    if (PullableInFrom(*f)) return true;
  }
  return false;
}

// True if any non-top-level WITH clause survived inlining (a FROM subquery
// or a remaining CTE body still carries one). Materialization only handles
// the top level.
bool HasNestedCtes(const sql::SelectStmt& sel) {
  std::function<bool(const sql::TableRef&)> walk =
      [&](const sql::TableRef& ref) -> bool {
    switch (ref.kind) {
      case sql::TableRef::Kind::kTable:
        return false;
      case sql::TableRef::Kind::kSubquery:
        return engine::HasCtes(*ref.subquery);
      case sql::TableRef::Kind::kJoin:
        return walk(*ref.left) || walk(*ref.right);
    }
    return false;
  };
  for (const auto& c : sel.ctes) {
    if (c.query && engine::HasCtes(*c.query)) return true;
  }
  for (const auto& f : sel.from) {
    if (walk(*f)) return true;
  }
  return false;
}

// Workers a materialized CTE must reach: the shard placements / replica
// nodes of every Citus table appearing in a query that references the CTE
// (the outer query or a later CTE body). The coordinator's own copy is kept
// in memory, not as a shard.
std::set<std::string> PrunedWorkersFor(CitusExtension* ext,
                                       const std::string& cte_name,
                                       const sql::SelectStmt& outer,
                                       const std::vector<sql::CteDef>& later) {
  std::set<std::string> workers;
  auto add_query = [&](const sql::SelectStmt& q) {
    if (CountTableRefs(q, cte_name) == 0) return;
    std::set<std::string> names;
    CollectTableNames(q, {}, &names);
    for (const std::string& n : names) {
      const CitusTable* t = ext->metadata().Find(n);
      if (t == nullptr) continue;
      if (t->is_reference) {
        for (const auto& w : t->replica_nodes) workers.insert(w);
      } else {
        for (const auto& s : t->shards) workers.insert(s.placement);
      }
    }
  };
  // The outer query, with the CTE list masked off (its bodies are scanned
  // separately below as "later" definitions).
  sql::SelectStmt outer_no_ctes = outer;
  outer_no_ctes.ctes.clear();
  add_query(outer_no_ctes);
  for (const auto& c : later) {
    if (c.query) add_query(*c.query);
  }
  workers.erase(ext->node()->name());
  return workers;
}

}  // namespace

bool NeedsCteRewrite(const CitusMetadata& metadata, const sql::SelectStmt& sel) {
  if (!engine::HasCtes(sel) && !HasPullableSubquery(sel)) return false;
  std::set<std::string> names;
  CollectTableNames(sel, {}, &names);
  for (const std::string& n : names) {
    if (metadata.Find(n) != nullptr) return true;
  }
  return false;
}

Result<std::optional<engine::QueryResult>>
DistributedPlanner::ExecuteSelectWithCtes(engine::Session& session,
                                          const sql::Statement& stmt,
                                          const std::vector<sql::Datum>& params) {
  Result<std::optional<engine::QueryResult>> r =
      ExecuteSelectWithCtesImpl(session, stmt, params, /*allow_inlining=*/true);
  // Citus pg12 semantics: inlining hints (including NOT MATERIALIZED) are
  // advisory. If folding the CTEs produced a tree the distributed planner
  // cannot handle — e.g. a GROUP BY subquery joined against a non-co-located
  // table — re-plan with every top-level CTE materialized instead.
  if (!r.ok() && r.status().IsNotSupported() && stmt.select != nullptr &&
      engine::HasCtes(*stmt.select) && !(stmt.is_explain && !stmt.is_analyze)) {
    return ExecuteSelectWithCtesImpl(session, stmt, params,
                                     /*allow_inlining=*/false);
  }
  return r;
}

Result<std::optional<engine::QueryResult>>
DistributedPlanner::ExecuteSelectWithCtesImpl(
    engine::Session& session, const sql::Statement& stmt,
    const std::vector<sql::Datum>& params, bool allow_inlining) {
  sql::SelectPtr work = stmt.select->Clone();
  engine::PullUpTrivialSubqueries(work.get());

  // Inlining decisions need reference counts of each top-level CTE across
  // the later definitions and the outer query (pg12: a CTE referenced more
  // than once materializes unless NOT MATERIALIZED forces the fold).
  std::map<std::string, int> ref_counts;
  {
    sql::SelectStmt outer_no_ctes = *work;
    outer_no_ctes.ctes.clear();
    for (size_t i = 0; i < work->ctes.size(); i++) {
      const std::string& name = work->ctes[i].name;
      int n = CountTableRefs(outer_no_ctes, name);
      for (size_t j = i + 1; j < work->ctes.size(); j++) {
        if (work->ctes[j].query) {
          n += CountTableRefs(*work->ctes[j].query, name);
        }
      }
      ref_counts[name] = n;
    }
  }

  const bool explain_only = stmt.is_explain && !stmt.is_analyze;
  const bool inlining_on = GucEnabled(session, "citus.enable_cte_inlining");
  int inlined = engine::InlineCtes(work.get(), [&](const sql::CteDef& c) {
    // EXPLAIN (without ANALYZE) must not materialize anything: fold the
    // whole tree so the displayed plan is the executable shape.
    if (explain_only) return true;
    if (!allow_inlining) return false;
    if (c.hint == sql::CteDef::Hint::kNotMaterialized) return true;
    if (c.hint == sql::CteDef::Hint::kMaterialized) return false;
    if (!inlining_on) return false;
    auto it = ref_counts.find(c.name);
    // Nested CTEs (no top-level refcount entry) always fold — they cannot
    // materialize from inside a subquery.
    return it == ref_counts.end() || it->second <= 1;
  });
  if (inlined > 0) ext_->metric_cte_inlined->Inc(inlined);

  if (HasNestedCtes(*work)) {
    return Status::NotSupported(
        "MATERIALIZED CTEs are only supported at the top level of a "
        "distributed query");
  }

  // Materialize the surviving definitions in declaration order. Each body
  // runs through the full planner (it may itself be distributed), lands in
  // a coordinator-side buffer, and — when a distributed query references it
  // — becomes a temporary reference relation on exactly the workers that
  // need it.
  std::vector<IntermediateResult> temps;
  std::map<std::string, engine::TempRelation> local_store;
  auto cleanup = [&]() {
    for (const IntermediateResult& ir : temps) {
      DropIntermediateResult(ext_, session, ir);
    }
    temps.clear();
  };
  const int64_t max_bytes = MaxIntermediateResultBytes(session);

  std::vector<sql::CteDef> defs = std::move(work->ctes);
  work->ctes.clear();
  for (size_t i = 0; i < defs.size(); i++) {
    sql::CteDef& cte = defs[i];
    Result<engine::QueryResult> body_result = [&]() -> Result<engine::QueryResult> {
      sql::Statement body;
      body.kind = sql::Statement::Kind::kSelect;
      body.select = cte.query;
      CITUSX_ASSIGN_OR_RETURN(std::optional<engine::QueryResult> dist,
                              PlanAndExecute(session, body, params));
      if (dist.has_value()) return std::move(*dist);
      // Coordinator-local body (references no Citus tables — possibly
      // earlier coordinator-only CTE results).
      std::map<std::string, const engine::TempRelation*> tr;
      for (const auto& [n, t] : local_store) tr[n] = &t;
      return engine::RunLocalSelect(session, *cte.query, params, &tr);
    }();
    if (!body_result.ok()) {
      cleanup();
      return body_result.status();
    }
    engine::QueryResult rows = std::move(body_result).value();

    // Enforce the session's intermediate-result cap in COPY-text bytes (the
    // unit the data would occupy on the wire).
    std::vector<std::vector<std::string>> copy_rows;
    copy_rows.reserve(rows.rows.size());
    for (const auto& row : rows.rows) copy_rows.push_back(RowToCopyFields(row));
    if (max_bytes >= 0 && CopyRowsBytes(copy_rows) > max_bytes) {
      cleanup();
      return Status::ResourceExhausted(StrFormat(
          "materialized CTE \"%s\" exceeds citus.max_intermediate_result_size",
          cte.name.c_str()));
    }

    sql::Schema schema;
    for (size_t c = 0; c < rows.column_names.size(); c++) {
      sql::ColumnDef col;
      col.name = rows.column_names[c].empty()
                     ? StrFormat("c%d", static_cast<int>(c))
                     : rows.column_names[c];
      col.type = rows.column_types[c] == sql::TypeId::kNull
                     ? sql::TypeId::kText
                     : rows.column_types[c];
      schema.columns.push_back(std::move(col));
    }

    std::vector<sql::CteDef> later(defs.begin() + static_cast<long>(i) + 1,
                                   defs.end());
    std::set<std::string> workers =
        PrunedWorkersFor(ext_, cte.name, *work, later);

    std::string logical;
    if (workers.empty()) {
      // Referenced only by coordinator-local queries: keep the rows in
      // memory, no worker ever sees them.
      logical = StrFormat("citusx_cte_%llu",
                          static_cast<unsigned long long>(++g_cte_counter));
    } else {
      Result<IntermediateResult> created = CreateIntermediateResult(
          ext_, session, schema,
          std::vector<std::string>(workers.begin(), workers.end()));
      if (!created.ok()) {
        cleanup();
        return created.status();
      }
      temps.push_back(std::move(created).value());
      const IntermediateResult& ir = temps.back();
      logical = ir.logical;
      AdaptiveExecutor executor(ext_);
      std::vector<Task> copy_tasks;
      int index = 0;
      for (const std::string& w : ir.workers) {
        Task t;
        t.index = index++;
        t.worker = w;
        t.is_copy = true;
        t.copy_table = ir.shard;
        t.copy_rows = copy_rows;
        copy_tasks.push_back(std::move(t));
      }
      auto shipped = executor.Execute(session, std::move(copy_tasks));
      if (!shipped.ok()) {
        cleanup();
        return shipped.status();
      }
    }
    ext_->metric_cte_materialized->Inc();

    // Coordinator copy: later bodies or the outer query may still run
    // locally (nullopt fall-through) and resolve the name from memory.
    engine::TempRelation temp;
    temp.column_names.reserve(schema.columns.size());
    for (const auto& col : schema.columns) temp.column_names.push_back(col.name);
    for (const auto& col : schema.columns) temp.column_types.push_back(col.type);
    temp.rows = rows.rows;
    local_store[logical] = std::move(temp);

    // Rewrite every reference in the later definitions and the outer query.
    for (size_t j = i + 1; j < defs.size(); j++) {
      if (defs[j].query == nullptr) continue;
      for (auto& f : defs[j].query->from) {
        RewriteTableRefs(f, cte.name, logical);
      }
    }
    for (auto& f : work->from) RewriteTableRefs(f, cte.name, logical);
  }

  // Execute the rewritten outer query through the normal tiers.
  sql::Statement rewritten;
  rewritten.kind = sql::Statement::Kind::kSelect;
  rewritten.select = work;
  rewritten.is_explain = stmt.is_explain;
  rewritten.is_analyze = stmt.is_analyze;
  Result<std::optional<engine::QueryResult>> outer_result =
      PlanAndExecute(session, rewritten, params);
  if (!outer_result.ok()) {
    cleanup();
    return outer_result.status();
  }
  if (outer_result->has_value()) {
    cleanup();
    return outer_result;
  }
  // The rewritten query references no Citus tables. Without materialized
  // results the session's local fall-through handles the original statement
  // (the engine inlines CTEs itself); with them, run over the in-memory
  // copies here.
  if (local_store.empty()) {
    cleanup();
    return std::optional<engine::QueryResult>();
  }
  std::map<std::string, const engine::TempRelation*> tr;
  for (const auto& [n, t] : local_store) tr[n] = &t;
  Result<engine::QueryResult> local =
      engine::RunLocalSelect(session, *work, params, &tr);
  cleanup();
  if (!local.ok()) return local.status();
  return std::optional<engine::QueryResult>(std::move(local).value());
}

}  // namespace citusx::citus
