#include "pool/pooler.h"

#include <cctype>

#include "sql/parser.h"

namespace citusx::pool {

namespace {

/// Lowercased word starting at *pos (letters/digits/underscores); advances
/// *pos past it. Statement classification only needs the first couple of
/// words — full parses are reserved for the statements whose fields the
/// pooler must track (SET, PREPARE, DEALLOCATE).
std::string NextWord(const std::string& sql, size_t* pos) {
  while (*pos < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[*pos]))) {
    ++*pos;
  }
  size_t start = *pos;
  while (*pos < sql.size()) {
    char c = sql[*pos];
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') break;
    ++*pos;
  }
  std::string word = sql.substr(start, *pos - start);
  for (char& c : word) c = std::tolower(static_cast<unsigned char>(c));
  return word;
}

/// How the pooler must treat a statement (everything else passes through).
enum class StmtClass {
  kPlain,      // forward; detach afterwards unless in a transaction
  kBegin,      // pin a connection until the transaction ends
  kTxnEnd,     // COMMIT / ROLLBACK / PREPARE TRANSACTION: unpin afterwards
  kSet,        // track session variable
  kPrepare,    // track prepared statement
  kDeallocate, // untrack prepared statement(s)
  kDiscard,    // drop all tracked state
};

StmtClass Classify(const std::string& sql) {
  size_t pos = 0;
  std::string first = NextWord(sql, &pos);
  if (first == "begin" || first == "start") return StmtClass::kBegin;
  if (first == "commit" || first == "rollback" || first == "end" ||
      first == "abort") {
    // COMMIT/ROLLBACK PREPARED finish someone else's 2PC transaction; they
    // do not end this session's transaction block.
    if (NextWord(sql, &pos) == "prepared") return StmtClass::kPlain;
    return StmtClass::kTxnEnd;
  }
  if (first == "set") return StmtClass::kSet;
  if (first == "prepare") {
    if (NextWord(sql, &pos) == "transaction") return StmtClass::kTxnEnd;
    return StmtClass::kPrepare;
  }
  if (first == "deallocate") return StmtClass::kDeallocate;
  if (first == "discard") return StmtClass::kDiscard;
  return StmtClass::kPlain;
}

}  // namespace

TransactionPooler::TransactionPooler(sim::Simulation* sim,
                                     net::NodeDirectory* directory,
                                     engine::Node* client, std::string server,
                                     PoolerOptions options)
    : sim_(sim),
      directory_(directory),
      client_(client),
      server_(std::move(server)),
      options_(options),
      alive_(std::make_shared<bool>(true)) {
  engine::Node* node = directory_->Find(server_);
  obs::Metrics& m = node->metrics();
  poolers_metric_ = m.counter("pool.poolers");
  sessions_gauge_ = m.gauge("pool.client_sessions");
  in_use_gauge_ = m.gauge("pool.in_use");
  idle_gauge_ = m.gauge("pool.idle");
  waiters_gauge_ = m.gauge("pool.waiters");
  attaches_metric_ = m.counter("pool.attaches");
  detaches_metric_ = m.counter("pool.detaches");
  replays_metric_ = m.counter("pool.state_replays");
  timeouts_metric_ = m.counter("pool.attach_timeouts");
  wait_hist_ = m.histogram("pool.attach_wait");
  poolers_metric_->Inc();
}

TransactionPooler::~TransactionPooler() {
  *alive_ = false;
  in_use_gauge_->Add(-static_cast<int64_t>(live_.size() - free_.size()));
  idle_gauge_->Add(-static_cast<int64_t>(free_.size()));
}

std::unique_ptr<PooledSession> TransactionPooler::OpenSession() {
  sessions_gauge_->Add(1);
  return std::unique_ptr<PooledSession>(
      new PooledSession(this, next_session_id_++));
}

void TransactionPooler::EnsureTicker() {
  if (ticker_running_) return;
  ticker_running_ = true;
  std::shared_ptr<bool> alive = alive_;
  sim_->Spawn(
      "pool-ticker:" + server_,
      [this, alive] {
        // While sessions are queued, periodically wake the front waiter so
        // it re-probes the backend (its last open attempt may have been
        // refused) and re-checks its deadline. Waiters behind it are woken
        // by Release/Drop or when they reach the front; their deadlines are
        // checked every time they wake. Exits when the queue drains.
        for (;;) {
          if (!sim_->WaitFor(options_.retry_interval)) return;
          if (!*alive) return;
          if (waiters_.empty()) break;
          sim_->Wake(waiters_.front());
        }
        ticker_running_ = false;
      },
      /*daemon=*/true);
}

Result<TransactionPooler::PhysicalConn*> TransactionPooler::Acquire() {
  sim::Time start = sim_->now();
  sim::Time deadline =
      options_.attach_timeout > 0 ? start + options_.attach_timeout : 0;
  sim::Process* self = sim::Simulation::Current();
  bool queued = false;
  Status last_open_error;

  auto unqueue = [&] {
    if (!queued) return;
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (*it == self) {
        waiters_.erase(it);
        break;
      }
    }
    waiters_gauge_->Add(-1);
    queued = false;
  };
  auto granted = [&](PhysicalConn* pc) {
    unqueue();
    in_use_gauge_->Add(1);
    attaches_metric_->Inc();
    wait_hist_->Record(sim_->now() - start);
    if (!waiters_.empty() && !free_.empty()) sim_->Wake(waiters_.front());
    return pc;
  };

  for (;;) {
    // FIFO fairness: newcomers go behind queued waiters; only the front
    // waiter (or a newcomer with an empty queue) may take a connection.
    if (waiters_.empty() || (queued && waiters_.front() == self)) {
      // Reuse an idle connection, dropping any that went stale while idle
      // (server restart breaks every established connection).
      while (!free_.empty()) {
        PhysicalConn* pc = free_.front();
        free_.pop_front();
        idle_gauge_->Add(-1);
        if (!pc->conn->usable()) {
          Forget(pc);
          continue;
        }
        return granted(pc);
      }
      if (static_cast<int>(live_.size()) + opening_ < options_.pool_size) {
        // Below budget: open a fresh connection. The slot is reserved while
        // the connect is in flight (Connect yields for the handshake RTT).
        opening_++;
        Result<std::unique_ptr<net::Connection>> conn =
            directory_->Connect(client_, server_);
        opening_--;
        if (conn.ok()) {
          auto pc = std::make_unique<PhysicalConn>();
          pc->conn = std::move(conn).value();
          if (options_.statement_timeout > 0) {
            pc->conn->SetStatementTimeout(options_.statement_timeout);
          }
          PhysicalConn* raw = pc.get();
          live_.push_back(std::move(pc));
          return granted(raw);
        }
        if (conn.status().error_class() == ErrorClass::kFatal) {
          unqueue();
          return conn.status();
        }
        // Transient refusal (node down, gate full, injected refusal): hold
        // the session in the queue and re-probe on the next tick rather
        // than hot-looping on a refusing backend.
        last_open_error = conn.status();
      }
    }
    if (deadline != 0 && sim_->now() >= deadline) {
      unqueue();
      timeouts_metric_->Inc();
      std::string detail = last_open_error.ok()
                               ? "all " + std::to_string(options_.pool_size) +
                                     " pooled connections busy"
                               : last_open_error.message();
      return Status::ResourceExhausted("pool attach to " + server_ +
                                       " timed out: " + detail);
    }
    if (!queued) {
      waiters_.push_back(self);
      waiters_gauge_->Add(1);
      queued = true;
    }
    EnsureTicker();
    if (!sim_->Block()) {
      unqueue();
      return Status::Cancelled("simulation shutting down");
    }
  }
}

void TransactionPooler::Release(PhysicalConn* pc) {
  in_use_gauge_->Add(-1);
  detaches_metric_->Inc();
  free_.push_back(pc);
  idle_gauge_->Add(1);
  if (!waiters_.empty()) sim_->Wake(waiters_.front());
}

void TransactionPooler::Drop(PhysicalConn* pc) {
  in_use_gauge_->Add(-1);
  detaches_metric_->Inc();
  Forget(pc);
  // The budget slot freed up; the front waiter can open a replacement.
  if (!waiters_.empty()) sim_->Wake(waiters_.front());
}

void TransactionPooler::Forget(PhysicalConn* pc) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == pc) {
      live_.erase(it);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// PooledSession
// ---------------------------------------------------------------------------

PooledSession::~PooledSession() { Close(); }

void PooledSession::Close() {
  if (closed_) return;
  closed_ = true;
  pooler_->sessions_gauge_->Add(-1);
  if (attached_ == nullptr) return;
  if (in_txn_ || !attached_->conn->usable()) {
    // Client gone mid-transaction: close the server connection so the
    // backend aborts the orphaned transaction (what pgbouncer does).
    pooler_->Drop(attached_);
  } else {
    pooler_->Release(attached_);
  }
  attached_ = nullptr;
}

std::vector<std::string> PooledSession::ReplayPrefix(
    const PhysicalConn& pc) const {
  if (pc.applied_session == id_ && pc.applied_state_version == state_version_) {
    return {};
  }
  std::vector<std::string> prefix;
  // A fresh backend has no previous tenant to neutralize.
  if (pc.applied_session != 0) prefix.push_back("DISCARD ALL");
  for (const auto& [name, value] : vars_) {
    prefix.push_back("SET " + name + " = '" + value + "'");
  }
  for (const auto& [name, prepare_sql] : prepares_) {
    prefix.push_back(prepare_sql);
  }
  return prefix;
}

Result<engine::QueryResult> PooledSession::RunAttached(const std::string& sql) {
  if (attached_ == nullptr) {
    CITUSX_ASSIGN_OR_RETURN(attached_, pooler_->Acquire());
  }
  PhysicalConn* pc = attached_;
  std::vector<std::string> prefix = ReplayPrefix(*pc);
  bool replayed = !prefix.empty();
  Result<engine::QueryResult> r = [&]() -> Result<engine::QueryResult> {
    if (!replayed) return pc->conn->Query(sql);
    pooler_->replays_metric_->Inc();
    prefix.push_back(sql);
    return pc->conn->QueryBatch(std::move(prefix));
  }();
  if (r.ok()) {
    MarkApplied(pc);
  } else if (!pc->conn->usable()) {
    // Transport failure: the backend is gone, and with it any transaction
    // it held. The session stays logically in_txn_ until the client ends
    // the block, like a libpq client that lost its socket.
    pooler_->Drop(pc);
    attached_ = nullptr;
  } else if (replayed) {
    // QueryBatch stops at the first error, so we cannot tell how much of
    // the replay prefix was applied; mark the backend dirty so the next
    // attach discards and replays from scratch.
    pc->applied_session = PhysicalConn::kDirtyBackend;
  }
  return r;
}

void PooledSession::Detach() {
  if (attached_ == nullptr) return;
  if (attached_->conn->usable()) {
    pooler_->Release(attached_);
  } else {
    pooler_->Drop(attached_);
  }
  attached_ = nullptr;
}

Result<engine::QueryResult> PooledSession::Query(const std::string& sql) {
  if (closed_) return Status::ConnectionLost("pooled session is closed");
  StmtClass cls = Classify(sql);

  // A session whose pinned connection died mid-transaction: everything
  // fails until the client ends the block, which resolves to a rollback.
  if (in_txn_ && attached_ == nullptr) {
    if (cls == StmtClass::kTxnEnd) {
      in_txn_ = false;
      return Status::ConnectionLost(
          "server connection lost; transaction rolled back");
    }
    return Status::ConnectionLost("server connection to " + pooler_->server_ +
                                  " was lost inside a transaction block");
  }

  switch (cls) {
    case StmtClass::kBegin: {
      Result<engine::QueryResult> r = RunAttached(sql);
      if (r.ok()) in_txn_ = true;
      else if (!in_txn_) Detach();
      return r;
    }
    case StmtClass::kTxnEnd: {
      Result<engine::QueryResult> r = RunAttached(sql);
      in_txn_ = false;
      Detach();
      return r;
    }
    case StmtClass::kSet: {
      Result<sql::Statement> parsed = sql::Parse(sql);
      if (!parsed.ok() || parsed.value().kind != sql::Statement::Kind::kSet) {
        break;  // malformed / SET TRANSACTION-style: pass through untracked
      }
      const sql::SetStmt& set = *parsed.value().set;
      if (!in_txn_) {
        // Not in a transaction: record the variable and answer locally —
        // no round trip, no attach. The value reaches whichever backend
        // the session lands on next via the replay prefix.
        vars_[set.name] = set.value;
        state_version_++;
        engine::QueryResult r;
        r.command_tag = "SET";
        return r;
      }
      // Inside a transaction the backend must see the SET immediately
      // (subsequent statements in the block read it server-side).
      Result<engine::QueryResult> r = RunAttached(sql);
      if (r.ok()) {
        vars_[set.name] = set.value;
        state_version_++;
        if (attached_ != nullptr) MarkApplied(attached_);
      }
      return r;
    }
    case StmtClass::kPrepare: {
      Result<sql::Statement> parsed = sql::Parse(sql);
      if (!parsed.ok() ||
          parsed.value().kind != sql::Statement::Kind::kPrepare) {
        break;  // let the backend produce the authoritative error
      }
      const std::string& name = parsed.value().prepare->name;
      Result<engine::QueryResult> r = RunAttached(sql);
      if (r.ok()) {
        bool known = false;
        for (const auto& [n, s] : prepares_) known |= (n == name);
        // Re-PREPARE of an identical statement is a backend no-op; only a
        // new name extends the replay prefix.
        if (!known) {
          prepares_.emplace_back(name, sql);
          state_version_++;
          if (attached_ != nullptr) MarkApplied(attached_);
        }
      }
      if (!in_txn_) Detach();
      return r;
    }
    case StmtClass::kDeallocate: {
      Result<sql::Statement> parsed = sql::Parse(sql);
      if (!parsed.ok() ||
          parsed.value().kind != sql::Statement::Kind::kDeallocate) {
        break;
      }
      const std::string& name = parsed.value().deallocate->name;
      Result<engine::QueryResult> r = RunAttached(sql);
      if (r.ok()) {
        if (name.empty()) {
          prepares_.clear();
        } else {
          for (auto it = prepares_.begin(); it != prepares_.end(); ++it) {
            if (it->first == name) {
              prepares_.erase(it);
              break;
            }
          }
        }
        state_version_++;
        if (attached_ != nullptr) MarkApplied(attached_);
      }
      if (!in_txn_) Detach();
      return r;
    }
    case StmtClass::kDiscard: {
      Result<engine::QueryResult> r = RunAttached(sql);
      if (r.ok()) {
        vars_.clear();
        prepares_.clear();
        state_version_++;
        if (attached_ != nullptr) MarkApplied(attached_);
      }
      if (!in_txn_) Detach();
      return r;
    }
    case StmtClass::kPlain:
      break;
  }

  Result<engine::QueryResult> r = RunAttached(sql);
  if (!in_txn_) Detach();
  return r;
}

Result<engine::QueryResult> PooledSession::CopyIn(
    const std::string& table, const std::vector<std::string>& columns,
    std::vector<std::vector<std::string>> rows) {
  if (closed_) return Status::ConnectionLost("pooled session is closed");
  if (in_txn_ && attached_ == nullptr) {
    return Status::ConnectionLost("server connection to " + pooler_->server_ +
                                  " was lost inside a transaction block");
  }
  if (attached_ == nullptr) {
    CITUSX_ASSIGN_OR_RETURN(attached_, pooler_->Acquire());
  }
  // COPY is its own wire message, so any state replay goes first as a
  // separate round trip.
  std::vector<std::string> prefix = ReplayPrefix(*attached_);
  if (!prefix.empty()) {
    pooler_->replays_metric_->Inc();
    Result<engine::QueryResult> replayed =
        attached_->conn->QueryBatch(std::move(prefix));
    if (!replayed.ok()) {
      PhysicalConn* pc = attached_;
      if (!pc->conn->usable()) {
        pooler_->Drop(pc);
        attached_ = nullptr;
      } else {
        pc->applied_session = PhysicalConn::kDirtyBackend;
        if (!in_txn_) Detach();
      }
      return replayed.status();
    }
    MarkApplied(attached_);
  }
  Result<engine::QueryResult> r =
      attached_->conn->CopyIn(table, columns, std::move(rows));
  if (!r.ok() && !attached_->conn->usable()) {
    pooler_->Drop(attached_);
    attached_ = nullptr;
  }
  if (!in_txn_) Detach();
  return r;
}

}  // namespace citusx::pool
