// A session ("backend"): executes SQL statements against one node with
// PostgreSQL transaction semantics (implicit single-statement transactions,
// explicit BEGIN/COMMIT blocks, statement-level snapshots, abort-on-error).
#ifndef CITUSX_ENGINE_SESSION_H_
#define CITUSX_ENGINE_SESSION_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/exec.h"
#include "engine/node.h"
#include "obs/trace.h"

namespace citusx::engine {

/// A session-scoped prepared statement (PREPARE name AS ...): the parsed
/// body, which EXECUTE hands to the planner hook with the bound values like
/// any other statement. The hook keeps no state here; the Citus plan cache
/// finds an EXECUTE's plan by the body's normalized text.
struct PreparedStatement {
  std::shared_ptr<const sql::Statement> body;
  std::vector<sql::TypeId> param_types;  // declared types; may be empty
  int num_params = 0;                    // highest $n referenced in the body
  int64_t executions = 0;
  /// After the first successful execution the local planner treats the body
  /// as a generic plan and charges plan_cached_bind instead of plan_local.
  bool local_plan_cached = false;
};

class Session {
 public:
  explicit Session(Node* node);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Node* node() { return node_; }

  /// Parse and execute one statement.
  Result<QueryResult> Execute(const std::string& sql,
                              const std::vector<sql::Datum>& params = {});

  /// Execute an already-parsed statement (used by hooks re-entering).
  Result<QueryResult> ExecuteParsed(const sql::Statement& stmt,
                                    const std::vector<sql::Datum>& params);

  /// COPY table FROM STDIN: `rows` are pre-split text fields per row.
  Result<QueryResult> CopyIn(const std::string& table,
                             const std::vector<std::string>& columns,
                             const std::vector<std::vector<std::string>>& rows);

  // ---- transaction state (used by hooks and the Citus layer) ----

  bool in_explicit_txn() const { return explicit_txn_; }
  bool txn_open() const { return txn_ != storage::kInvalidTxn; }
  TxnId current_txn() const { return txn_; }

  /// Mark the current transaction as having written WAL. Read-only commits
  /// skip the commit-record flush (PostgreSQL: RecordTransactionCommit does
  /// not XLogFlush when the transaction wrote nothing); extensions that make
  /// the local commit durable for their own protocol (e.g. the 2PC decision
  /// record) call this from their pre-commit hook.
  void MarkTxnWrite() { txn_wrote_ = true; }

  /// Start a transaction if none is open (implicit otherwise).
  Status EnsureTxn();

  /// Session variables (SET name = value).
  void SetVar(const std::string& name, const std::string& value);
  std::string GetVar(const std::string& name) const;

  /// DISCARD ALL: drop every piece of SQL-visible session state — variables
  /// and prepared statements — returning the backend to a neutral state a
  /// transaction pooler can hand to a different client. Backend-local
  /// resource caches (extension_state: worker connections, plan cache) are
  /// deliberately retained; they carry no client-visible semantics and
  /// keeping them warm is what makes pooled backends cheap to recycle.
  void DiscardAll() {
    vars_.clear();
    prepared_.clear();
  }

  /// An execution context bound to the current transaction, with a fresh
  /// statement snapshot.
  ExecContext MakeExecContext(const std::vector<sql::Datum>* params);

  /// Arbitrary per-session extension state (the Citus layer hangs its
  /// connection/transaction bookkeeping here). Destroyed with the session.
  std::shared_ptr<void> extension_state;

  /// The session's prepared statements, keyed by name (read-only view).
  const std::map<std::string, PreparedStatement>& prepared_statements() const {
    return prepared_;
  }

  Rng& rng() { return rng_; }

 private:
  Result<QueryResult> ExecuteTxnStmt(const sql::TxnStmt& stmt);
  Result<QueryResult> ExecutePrepare(const sql::PrepareStmt& stmt);
  Result<QueryResult> ExecutePrepared(const sql::ExecuteStmt& stmt,
                                      const std::vector<sql::Datum>& params);
  Result<QueryResult> ExecuteDeallocate(const sql::DeallocateStmt& stmt);
  Result<QueryResult> ExecuteUtility(const sql::Statement& stmt);
  Result<QueryResult> DispatchStatement(const sql::Statement& stmt,
                                        const std::vector<sql::Datum>& params);
  Status CommitTxn();
  void AbortTxn();
  /// Wrap statement execution with implicit-transaction + error semantics.
  Result<QueryResult> RunInTxn(
      const std::function<Result<QueryResult>()>& body);

  Node* node_;
  TxnId txn_ = storage::kInvalidTxn;
  bool explicit_txn_ = false;
  bool txn_aborted_ = false;
  bool txn_wrote_ = false;
  std::map<std::string, std::string> vars_;
  std::map<std::string, PreparedStatement> prepared_;
  /// The prepared statement being EXECUTEd, if any: the local planner reads
  /// its local_plan_cached flag.
  PreparedStatement* active_prepared_ = nullptr;
  /// Open "worker execution" span of the statement in flight (traced
  /// statements only); execution contexts parent pipeline spans under it.
  obs::TraceId active_trace_ = 0;
  obs::SpanId active_span_ = 0;
  Rng rng_;
};

}  // namespace citusx::engine

#endif  // CITUSX_ENGINE_SESSION_H_
