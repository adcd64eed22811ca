#include "engine/session.h"

#include <algorithm>

#include "common/str.h"
#include "engine/planner.h"
#include "sql/deparser.h"
#include "sql/parser.h"

namespace citusx::engine {

namespace {

/// Highest $n referenced anywhere in the statement (1-based count).
int MaxParamCount(const sql::Statement& stmt) {
  int max_param = 0;
  sql::ForEachExprSlot(stmt, sql::Reach::kAll, [&](const sql::ExprPtr& e) {
    sql::WalkExpr(e, [&](const sql::Expr& x) {
      if (x.kind == sql::ExprKind::kParam) {
        max_param = std::max(max_param, x.param_index + 1);
      }
    });
  });
  return max_param;
}

}  // namespace

Session::Session(Node* node) : node_(node), rng_(0xC1705) {}

Session::~Session() {
  if (txn_open()) AbortTxn();
}

void Session::SetVar(const std::string& name, const std::string& value) {
  vars_[name] = value;
}

std::string Session::GetVar(const std::string& name) const {
  auto it = vars_.find(name);
  return it == vars_.end() ? std::string() : it->second;
}

Status Session::EnsureTxn() {
  if (node_->is_down()) return Status::Unavailable(node_->name() + " is down");
  if (txn_open()) return Status::OK();
  txn_ = node_->txns().Begin();
  txn_aborted_ = false;
  std::string dist_id = GetVar("citus.distributed_txid");
  if (!dist_id.empty()) node_->RegisterTxn(txn_, dist_id);
  return Status::OK();
}

ExecContext Session::MakeExecContext(const std::vector<sql::Datum>* params) {
  ExecContext ctx;
  ctx.sim = node_->sim();
  ctx.cpu = &node_->cpu();
  ctx.cost = &node_->cost();
  ctx.catalog = &node_->catalog();
  ctx.txns = &node_->txns();
  ctx.locks = &node_->locks();
  ctx.txn = txn_;
  ctx.snapshot = node_->txns().TakeSnapshot(txn_);
  ctx.params = params;
  ctx.rng = &rng_;
  // Vectorized-executor switch: the registered batch executor runs unless
  // the session opted out (SET citus.use_vectorized_executor = off). The
  // coordinator propagates the setting to worker connections so "off"
  // really means the volcano oracle end to end.
  ctx.vectorize = GetVar("citus.use_vectorized_executor") != "off";
  ctx.batch_exec = &node_->batch_executor();
  // Statement trace (EXPLAIN ANALYZE): pipelines nest under the statement's
  // "worker execution" span when one is open, else directly under the span
  // carried by the wire context (coordinator-local master queries).
  ctx.tracer = node_->tracer();
  if (active_span_ != 0) {
    ctx.trace = active_trace_;
    ctx.parent_span = active_span_;
  } else {
    obs::TraceId trace = 0;
    obs::SpanId parent = 0;
    if (ctx.tracer != nullptr &&
        obs::ParseTraceContext(GetVar("citusx.trace_ctx"), &trace, &parent)) {
      ctx.trace = trace;
      ctx.parent_span = parent;
    }
  }
  if (ctx.trace == 0) ctx.tracer = nullptr;
  return ctx;
}

Status Session::CommitTxn() {
  if (!txn_open()) return Status::OK();
  // Pre-commit callback: the Citus layer runs its 2PC prepare phase here;
  // failure aborts the local transaction.
  if (node_->hooks().pre_commit) {
    Status st = node_->hooks().pre_commit(*this);
    if (!st.ok()) {
      AbortTxn();
      return st;
    }
  }
  // Commit-record WAL flush (group-commit amortized). Read-only
  // transactions have no commit record to make durable and skip it.
  if (txn_wrote_ && !node_->WalFlush()) {
    AbortTxn();
    return Status::Cancelled("simulation stopping");
  }
  if (!node_->cpu().Consume(txn_wrote_ ? node_->cost().cpu_commit
                                       : node_->cost().cpu_commit_readonly)) {
    AbortTxn();
    return Status::Cancelled("simulation stopping");
  }
  TxnId finished = txn_;
  node_->txns().Commit(finished);
  node_->locks().ReleaseAll(finished);
  node_->UnregisterTxn(finished);
  txn_ = storage::kInvalidTxn;
  explicit_txn_ = false;
  txn_aborted_ = false;
  txn_wrote_ = false;
  if (node_->hooks().post_commit) node_->hooks().post_commit(*this);
  return Status::OK();
}

void Session::AbortTxn() {
  if (!txn_open()) return;
  TxnId finished = txn_;
  node_->txns().Abort(finished);
  node_->locks().ReleaseAll(finished);
  node_->UnregisterTxn(finished);
  txn_ = storage::kInvalidTxn;
  explicit_txn_ = false;
  txn_aborted_ = false;
  txn_wrote_ = false;
  if (node_->hooks().post_abort) node_->hooks().post_abort(*this);
}

Result<QueryResult> Session::ExecuteTxnStmt(const sql::TxnStmt& stmt) {
  QueryResult result;
  switch (stmt.op) {
    case sql::TxnOp::kBegin:
      if (explicit_txn_) {
        return Status::InvalidArgument("there is already a transaction in progress");
      }
      CITUSX_RETURN_IF_ERROR(EnsureTxn());
      explicit_txn_ = true;
      result.command_tag = "BEGIN";
      return result;
    case sql::TxnOp::kCommit:
      if (txn_aborted_) {
        AbortTxn();
        result.command_tag = "ROLLBACK";
        return result;
      }
      CITUSX_RETURN_IF_ERROR(CommitTxn());
      result.command_tag = "COMMIT";
      return result;
    case sql::TxnOp::kRollback:
      AbortTxn();
      result.command_tag = "ROLLBACK";
      return result;
    case sql::TxnOp::kPrepare: {
      if (!txn_open() || txn_aborted_) {
        return Status::InvalidArgument("no transaction to prepare");
      }
      // Prepared state is durable: flush to WAL.
      if (!node_->WalFlush()) {
        return Status::Cancelled("simulation stopping");
      }
      CITUSX_RETURN_IF_ERROR(node_->txns().Prepare(txn_, stmt.gid));
      // The backend detaches from the transaction; locks stay with the xid.
      node_->UnregisterTxn(txn_);
      txn_ = storage::kInvalidTxn;
      explicit_txn_ = false;
      txn_wrote_ = false;
      result.command_tag = "PREPARE TRANSACTION";
      return result;
    }
    case sql::TxnOp::kCommitPrepared: {
      if (!node_->WalFlush()) {
        return Status::Cancelled("simulation stopping");
      }
      CITUSX_ASSIGN_OR_RETURN(TxnId xid,
                              node_->txns().CommitPrepared(stmt.gid));
      node_->locks().ReleaseAll(xid);
      result.command_tag = "COMMIT PREPARED";
      return result;
    }
    case sql::TxnOp::kRollbackPrepared: {
      CITUSX_ASSIGN_OR_RETURN(TxnId xid,
                              node_->txns().RollbackPrepared(stmt.gid));
      node_->locks().ReleaseAll(xid);
      result.command_tag = "ROLLBACK PREPARED";
      return result;
    }
  }
  return Status::Internal("bad txn op");
}

Result<QueryResult> Session::RunInTxn(
    const std::function<Result<QueryResult>()>& body) {
  CITUSX_RETURN_IF_ERROR(EnsureTxn());
  auto result = body();
  if (!result.ok()) {
    if (explicit_txn_) {
      // PostgreSQL: the transaction enters aborted state until ROLLBACK.
      txn_aborted_ = true;
    } else {
      AbortTxn();
    }
    return result;
  }
  if (!explicit_txn_) {
    Status st = CommitTxn();
    if (!st.ok()) return st;
  }
  return result;
}

Result<QueryResult> Session::Execute(const std::string& sql,
                                     const std::vector<sql::Datum>& params) {
  node_->statements_executed++;
  if (node_->is_down()) {
    return Status::Unavailable(node_->name() + " is down");
  }
  // Parsing cost.
  if (!node_->cpu().Consume(static_cast<int64_t>(sql.size()) *
                            node_->cost().parse_per_char)) {
    return Status::Cancelled("simulation stopping");
  }
  CITUSX_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  // If the request carried a trace context (set by the net backend), record
  // this statement as a "worker execution" span under the remote caller's.
  obs::TraceCollector* tracer = node_->tracer();
  const std::string trace_ctx = GetVar("citusx.trace_ctx");
  obs::TraceId trace = 0;
  obs::SpanId parent = 0;
  if (tracer != nullptr && !trace_ctx.empty() &&
      obs::ParseTraceContext(trace_ctx, &trace, &parent)) {
    obs::SpanId span = tracer->StartSpan(trace, parent, "worker execution",
                                         node_->name(), node_->sim()->now());
    tracer->SetAttr(span, "sql", sql);
    active_trace_ = trace;
    active_span_ = span;
    Result<QueryResult> result = ExecuteParsed(stmt, params);
    active_trace_ = 0;
    active_span_ = 0;
    if (result.ok()) {
      tracer->SetRows(span, result->rows.empty()
                                ? result->rows_affected
                                : static_cast<int64_t>(result->rows.size()));
    }
    tracer->EndSpan(span, node_->sim()->now());
    return result;
  }
  return ExecuteParsed(stmt, params);
}

Result<QueryResult> Session::ExecuteParsed(
    const sql::Statement& stmt, const std::vector<sql::Datum>& params) {
  // Transaction control works even in aborted state.
  if (stmt.kind == sql::Statement::Kind::kTxn) {
    return ExecuteTxnStmt(*stmt.txn);
  }
  if (txn_aborted_) {
    return Status::Aborted(
        "current transaction is aborted, commands ignored until end of "
        "transaction block");
  }
  if (stmt.kind == sql::Statement::Kind::kSet) {
    SetVar(stmt.set->name, stmt.set->value);
    QueryResult r;
    r.command_tag = "SET";
    return r;
  }
  if (stmt.kind == sql::Statement::Kind::kPrepare) {
    return ExecutePrepare(*stmt.prepare);
  }
  if (stmt.kind == sql::Statement::Kind::kExecute) {
    return ExecutePrepared(*stmt.execute, params);
  }
  if (stmt.kind == sql::Statement::Kind::kDeallocate) {
    return ExecuteDeallocate(*stmt.deallocate);
  }
  if (stmt.kind == sql::Statement::Kind::kDiscard) {
    DiscardAll();
    QueryResult r;
    r.command_tag = "DISCARD ALL";
    return r;
  }
  return DispatchStatement(stmt, params);
}

Result<QueryResult> Session::ExecutePrepare(const sql::PrepareStmt& stmt) {
  auto existing = prepared_.find(stmt.name);
  if (existing != prepared_.end()) {
    // Re-preparing the exact same statement is a no-op (a client that lost
    // track of an in-flight batch may retry); a different body errors.
    if (sql::DeparseStatement(*stmt.body) ==
        sql::DeparseStatement(*existing->second.body)) {
      QueryResult r;
      r.command_tag = "PREPARE";
      return r;
    }
    return Status::AlreadyExists("prepared statement \"" + stmt.name +
                                 "\" already exists");
  }
  PreparedStatement ps;
  ps.body = std::make_shared<const sql::Statement>(*stmt.body);
  ps.param_types = stmt.param_types;
  ps.num_params = MaxParamCount(*stmt.body);
  if (static_cast<int>(ps.param_types.size()) > ps.num_params) {
    ps.num_params = static_cast<int>(ps.param_types.size());
  }
  prepared_.emplace(stmt.name, std::move(ps));
  QueryResult r;
  r.command_tag = "PREPARE";
  return r;
}

Result<QueryResult> Session::ExecutePrepared(
    const sql::ExecuteStmt& stmt, const std::vector<sql::Datum>& params) {
  auto it = prepared_.find(stmt.name);
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement \"" + stmt.name +
                            "\" does not exist");
  }
  PreparedStatement& ps = it->second;
  if (static_cast<int>(stmt.args.size()) != ps.num_params) {
    return Status::InvalidArgument(StrFormat(
        "wrong number of parameters for prepared statement \"%s\": expected "
        "%d, got %zu",
        stmt.name.c_str(), ps.num_params, stmt.args.size()));
  }
  // Evaluate the EXECUTE arguments (outer $n params remain visible) and
  // coerce them to the declared parameter types.
  std::vector<sql::Datum> bound;
  bound.reserve(stmt.args.size());
  sql::EvalContext ec;
  ec.params = &params;
  ec.rng = &rng_;
  for (size_t i = 0; i < stmt.args.size(); i++) {
    CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*stmt.args[i], ec));
    if (i < ps.param_types.size() && !v.is_null() &&
        v.type() != ps.param_types[i]) {
      CITUSX_ASSIGN_OR_RETURN(v, v.CastTo(ps.param_types[i]));
    }
    bound.push_back(std::move(v));
  }
  // Expose the entry to the local planner, and restore the previous one on
  // exit (EXECUTE may nest via procedures).
  PreparedStatement* saved = active_prepared_;
  active_prepared_ = &ps;
  Result<QueryResult> result = DispatchStatement(*ps.body, bound);
  active_prepared_ = saved;
  if (result.ok()) {
    ps.executions++;
    ps.local_plan_cached = true;
  }
  return result;
}

Result<QueryResult> Session::ExecuteDeallocate(const sql::DeallocateStmt& stmt) {
  QueryResult r;
  if (stmt.name.empty()) {
    prepared_.clear();
    r.command_tag = "DEALLOCATE ALL";
    return r;
  }
  if (prepared_.erase(stmt.name) == 0) {
    return Status::NotFound("prepared statement \"" + stmt.name +
                            "\" does not exist");
  }
  r.command_tag = "DEALLOCATE";
  return r;
}

Result<QueryResult> Session::DispatchStatement(
    const sql::Statement& stmt, const std::vector<sql::Datum>& params) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      // FROM-less single-UDF SELECT dispatches to the UDF registry.
      const auto& sel = *stmt.select;
      if (sel.from.empty() && sel.targets.size() == 1 &&
          sel.targets[0].expr->kind == sql::ExprKind::kFunc) {
        const auto& udfs = node_->hooks().udfs;
        auto it = udfs.find(sel.targets[0].expr->func_name);
        if (it != udfs.end()) {
          return RunInTxn([&]() -> Result<QueryResult> {
            // UDFs may mutate catalogs/metadata; treat the txn as a writer.
            txn_wrote_ = true;
            // Evaluate arguments.
            std::vector<sql::Datum> args;
            sql::EvalContext ec;
            ec.params = &params;
            ec.rng = &rng_;
            for (const auto& a : sel.targets[0].expr->args) {
              CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*a, ec));
              args.push_back(std::move(v));
            }
            CITUSX_ASSIGN_OR_RETURN(sql::Datum out, it->second(*this, args));
            QueryResult r;
            r.column_names = {sel.targets[0].expr->func_name};
            r.column_types = {out.type()};
            r.rows.push_back({std::move(out)});
            r.rows_affected = 1;
            r.command_tag = "SELECT";
            return r;
          });
        }
      }
      [[fallthrough]];
    }
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete: {
      return RunInTxn([&]() -> Result<QueryResult> {
        if (node_->hooks().planner_hook) {
          CITUSX_ASSIGN_OR_RETURN(std::optional<QueryResult> handled,
                                  node_->hooks().planner_hook(*this, stmt,
                                                              params));
          if (handled.has_value()) return std::move(*handled);
        }
        // Local DML writes WAL (marked after the planner hook: statements
        // the extension routes to workers leave the local txn read-only).
        if (stmt.kind != sql::Statement::Kind::kSelect &&
            !(stmt.is_explain && !stmt.is_analyze)) {
          txn_wrote_ = true;
        }
        ExecContext ctx = MakeExecContext(&params);
        PlannerInput input;
        input.catalog = &node_->catalog();
        input.params = &params;
        input.cached_plan =
            active_prepared_ != nullptr && active_prepared_->local_plan_cached;
        if (stmt.is_explain && stmt.is_analyze) {
          // EXPLAIN ANALYZE: execute for real, then append the measured
          // virtual time and row count to the plan description.
          const sim::Time started = node_->sim()->now();
          Result<QueryResult> real = [&]() -> Result<QueryResult> {
            switch (stmt.kind) {
              case sql::Statement::Kind::kSelect:
                return ExecuteSelect(*stmt.select, input, ctx);
              case sql::Statement::Kind::kInsert:
                return ExecuteInsert(*stmt.insert, input, ctx);
              case sql::Statement::Kind::kUpdate:
                return ExecuteUpdate(*stmt.update, input, ctx);
              default:
                return ExecuteDelete(*stmt.del, input, ctx);
            }
          }();
          if (!real.ok()) return real.status();
          CITUSX_ASSIGN_OR_RETURN(QueryResult out,
                                  ExplainStatement(stmt, input));
          int64_t rows = real->rows.empty()
                             ? real->rows_affected
                             : static_cast<int64_t>(real->rows.size());
          double ms = static_cast<double>(node_->sim()->now() - started) /
                      static_cast<double>(sim::kMillisecond);
          out.rows.push_back({sql::Datum::Text(StrFormat(
              "Actual: time=%.3f ms, rows=%lld", ms,
              static_cast<long long>(rows)))});
          return out;
        }
        if (stmt.is_explain) return ExplainStatement(stmt, input);
        switch (stmt.kind) {
          case sql::Statement::Kind::kSelect:
            return ExecuteSelect(*stmt.select, input, ctx);
          case sql::Statement::Kind::kInsert:
            return ExecuteInsert(*stmt.insert, input, ctx);
          case sql::Statement::Kind::kUpdate:
            return ExecuteUpdate(*stmt.update, input, ctx);
          default:
            return ExecuteDelete(*stmt.del, input, ctx);
        }
      });
    }
    case sql::Statement::Kind::kCall: {
      return RunInTxn([&]() -> Result<QueryResult> {
        txn_wrote_ = true;  // procedures run DML
        std::vector<sql::Datum> args;
        sql::EvalContext ec;
        ec.params = &params;
        ec.rng = &rng_;
        for (const auto& a : stmt.call->args) {
          CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*a, ec));
          args.push_back(std::move(v));
        }
        if (node_->hooks().call_hook) {
          CITUSX_ASSIGN_OR_RETURN(
              std::optional<QueryResult> handled,
              node_->hooks().call_hook(*this, *stmt.call, args));
          if (handled.has_value()) return std::move(*handled);
        }
        const Procedure* proc = node_->FindProcedure(stmt.call->procedure);
        if (proc == nullptr) {
          return Status::NotFound("procedure \"" + stmt.call->procedure +
                                  "\" does not exist");
        }
        return (*proc)(*this, args);
      });
    }
    case sql::Statement::Kind::kCopy:
      return Status::InvalidArgument(
          "COPY FROM STDIN requires CopyIn with attached rows");
    default:
      return ExecuteUtility(stmt);
  }
}

Result<QueryResult> Session::ExecuteUtility(const sql::Statement& stmt) {
  return RunInTxn([&]() -> Result<QueryResult> {
    txn_wrote_ = true;  // DDL writes catalogs
    if (node_->hooks().utility_hook) {
      CITUSX_ASSIGN_OR_RETURN(std::optional<QueryResult> handled,
                              node_->hooks().utility_hook(*this, stmt));
      if (handled.has_value()) return std::move(*handled);
    }
    QueryResult result;
    switch (stmt.kind) {
      case sql::Statement::Kind::kCreateTable: {
        const auto& ct = *stmt.create_table;
        if (ct.if_not_exists &&
            node_->catalog().Find(ct.table) != nullptr) {
          result.command_tag = "CREATE TABLE";
          return result;
        }
        bool columnar = ct.access_method == "columnar" ||
                        GetVar("citusx.default_table_access_method") ==
                            "columnar";
        CITUSX_RETURN_IF_ERROR(node_->catalog()
                                   .CreateTable(ct.table, ct.schema,
                                                ct.primary_key, columnar)
                                   .status());
        result.command_tag = "CREATE TABLE";
        return result;
      }
      case sql::Statement::Kind::kCreateIndex: {
        const auto& ci = *stmt.create_index;
        // DDL takes an exclusive table lock.
        CITUSX_ASSIGN_OR_RETURN(TableInfo * table,
                                node_->catalog().Get(ci.table));
        CITUSX_RETURN_IF_ERROR(node_->locks().Acquire(
            LockTag{table->oid, LockTag::kTableRid}, txn_,
            LockMode::kExclusive));
        if (ci.method == sql::IndexMethod::kGinTrgm) {
          sql::ExprPtr bound = ci.expression->Clone();
          const sql::Schema& schema = table->schema();
          Status st = Status::OK();
          sql::WalkExprMut(bound, [&](sql::Expr& x) {
            if (x.kind == sql::ExprKind::kColumnRef) {
              int pos = schema.FindColumn(x.column);
              if (pos < 0) {
                st = Status::InvalidArgument("column \"" + x.column +
                                             "\" does not exist");
              }
              x.slot = pos;
            }
          });
          CITUSX_RETURN_IF_ERROR(st);
          bool exists = false;
          for (const auto& idx : table->indexes) {
            if (idx->name == ci.index) exists = true;
          }
          if (exists && ci.if_not_exists) {
            result.command_tag = "CREATE INDEX";
            return result;
          }
          CITUSX_ASSIGN_OR_RETURN(
              IndexInfo * idx,
              node_->catalog().CreateGinIndex(ci.table, ci.index, bound));
          // Build the index over existing rows.
          ExecContext ctx = MakeExecContext(nullptr);
          storage::RowId n = table->heap->num_rows();
          for (storage::RowId rid = 0; rid < n; rid++) {
            const storage::TupleVersion* v =
                table->heap->LatestVersion(rid, node_->txns());
            if (v == nullptr) continue;
            auto ec = ctx.EvalCtx(&v->row);
            CITUSX_ASSIGN_OR_RETURN(sql::Datum text, sql::Eval(*bound, ec));
            int64_t postings =
                idx->gin->Insert(text.is_null() ? "" : text.ToText(), rid);
            CITUSX_RETURN_IF_ERROR(
                ctx.ChargeCpu(postings * ctx.cost->cpu_per_trgm_insert));
          }
          CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
        } else {
          bool exists = false;
          for (const auto& idx : table->indexes) {
            if (idx->name == ci.index) exists = true;
          }
          if (exists && ci.if_not_exists) {
            result.command_tag = "CREATE INDEX";
            return result;
          }
          CITUSX_ASSIGN_OR_RETURN(
              IndexInfo * idx,
              node_->catalog().CreateBtreeIndex(ci.table, ci.index,
                                                ci.columns, ci.unique));
          ExecContext ctx = MakeExecContext(nullptr);
          storage::RowId n = table->heap->num_rows();
          for (storage::RowId rid = 0; rid < n; rid++) {
            const storage::TupleVersion* v =
                table->heap->LatestVersion(rid, node_->txns());
            if (v == nullptr) continue;
            storage::IndexKey key = idx->btree->KeyFromRow(v->row);
            CITUSX_RETURN_IF_ERROR(
                ctx.ChargeCpu(ctx.cost->cpu_per_index_insert));
            idx->btree->Insert(key, rid);
          }
          CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
        }
        result.command_tag = "CREATE INDEX";
        return result;
      }
      case sql::Statement::Kind::kDropTable: {
        const auto& dt = *stmt.drop_table;
        if (node_->catalog().Find(dt.table) == nullptr && dt.if_exists) {
          result.command_tag = "DROP TABLE";
          return result;
        }
        CITUSX_RETURN_IF_ERROR(node_->catalog().DropTable(dt.table));
        result.command_tag = "DROP TABLE";
        return result;
      }
      case sql::Statement::Kind::kTruncate: {
        for (const auto& name : stmt.truncate->tables) {
          CITUSX_ASSIGN_OR_RETURN(TableInfo * table,
                                  node_->catalog().Get(name));
          CITUSX_RETURN_IF_ERROR(node_->locks().Acquire(
              LockTag{table->oid, LockTag::kTableRid}, txn_,
              LockMode::kExclusive));
          if (table->heap != nullptr) table->heap->Truncate();
          if (table->columnar != nullptr) table->columnar->Truncate();
          for (auto& idx : table->indexes) {
            if (idx->btree) idx->btree->Truncate();
            if (idx->gin) idx->gin->Truncate();
          }
        }
        result.command_tag = "TRUNCATE TABLE";
        return result;
      }
      default:
        return Status::NotSupported("unsupported utility statement");
    }
  });
}

Result<QueryResult> Session::CopyIn(
    const std::string& table, const std::vector<std::string>& columns,
    const std::vector<std::vector<std::string>>& rows) {
  node_->statements_executed++;
  if (node_->is_down()) {
    return Status::Unavailable(node_->name() + " is down");
  }
  return RunInTxn([&]() -> Result<QueryResult> {
    if (node_->hooks().copy_hook) {
      sql::CopyStmt stmt;
      stmt.table = table;
      stmt.columns = columns;
      CITUSX_ASSIGN_OR_RETURN(std::optional<QueryResult> handled,
                              node_->hooks().copy_hook(*this, stmt, rows));
      if (handled.has_value()) return std::move(*handled);
    }
    txn_wrote_ = true;  // local COPY writes heap + WAL
    CITUSX_ASSIGN_OR_RETURN(TableInfo * info, node_->catalog().Get(table));
    const sql::Schema& schema = info->schema();
    std::vector<int> positions;
    if (columns.empty()) {
      for (int i = 0; i < schema.num_columns(); i++) positions.push_back(i);
    } else {
      for (const auto& c : columns) {
        int pos = schema.FindColumn(c);
        if (pos < 0) {
          return Status::InvalidArgument("column \"" + c + "\" does not exist");
        }
        positions.push_back(pos);
      }
    }
    ExecContext ctx = MakeExecContext(nullptr);
    CITUSX_RETURN_IF_ERROR(
        ctx.locks->Acquire(LockTag{info->oid, LockTag::kTableRid}, txn_,
                           LockMode::kShared));
    int64_t inserted = 0;
    for (const auto& text_row : rows) {
      if (text_row.size() != positions.size()) {
        return Status::InvalidArgument("COPY row has wrong number of fields");
      }
      int64_t row_bytes = 0;
      for (const auto& f : text_row) {
        row_bytes += static_cast<int64_t>(f.size());
      }
      CITUSX_RETURN_IF_ERROR(
          ctx.ChargeCpu(ctx.cost->cpu_per_row_copy_parse +
                        row_bytes * ctx.cost->parse_per_char));
      sql::Row full(static_cast<size_t>(schema.num_columns()));
      for (size_t i = 0; i < positions.size(); i++) {
        const auto& col = schema.columns[static_cast<size_t>(positions[i])];
        if (text_row[i] == "\\N") {
          full[static_cast<size_t>(positions[i])] = sql::Datum::Null();
          continue;
        }
        CITUSX_ASSIGN_OR_RETURN(sql::Datum v,
                                sql::Datum::FromText(col.type, text_row[i]));
        full[static_cast<size_t>(positions[i])] = std::move(v);
      }
      CITUSX_RETURN_IF_ERROR(CoerceRowToSchema(schema, &full));
      CITUSX_RETURN_IF_ERROR(InsertRowWithIndexes(ctx, info, std::move(full),
                                                  /*on_conflict=*/false,
                                                  nullptr));
      inserted++;
    }
    CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
    QueryResult result;
    result.rows_affected = inserted;
    result.command_tag =
        StrFormat("COPY %lld", static_cast<long long>(inserted));
    return result;
  });
}

}  // namespace citusx::engine
