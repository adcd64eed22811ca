#include "citus/executor.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "citus/gucs.h"
#include "common/str.h"
#include "obs/trace.h"
#include "sim/channel.h"

namespace citusx::citus {

namespace {

// Task retry policy (chaos hardening): transient failures retry with capped
// exponential backoff on a fresh connection where safe.
constexpr int kTaskRetryAttempts = 3;
constexpr sim::Time kTaskRetryBackoff = 2 * sim::kMillisecond;
constexpr sim::Time kTaskRetryMaxBackoff = 50 * sim::kMillisecond;
// Fixed-width admission: connections per worker (a backend executes its
// pipeline serially, so the width is per-worker CPU parallelism) and the
// most tasks batched into one pipelined round trip.
constexpr int kPipelineWidth = 4;
constexpr int kPipelineBatchSize = 16;

// Shared between the coordinating process, runners, and the ticker; heap
// allocated so cancellation-order at simulation shutdown cannot dangle.
struct RunState {
  engine::Session* session = nullptr;
  CitusExtension* ext = nullptr;
  sim::Simulation* sim = nullptr;
  bool need_txn_block = false;
  std::vector<engine::QueryResult> owned_results;
  std::vector<engine::QueryResult>* results = nullptr;
  Status first_error;
  /// Per-task outcome, for partial-failure reporting on multi-shard reads.
  std::vector<Status> task_status;
  std::unique_ptr<sim::Channel<int>> done;
  bool ticker_active = true;

  // Per-worker task queues.
  struct WorkerQueue {
    std::deque<Task*> general;
    std::map<WorkerConnection*, std::deque<Task*>> assigned;
    int runners = 0;
  };
  std::map<std::string, WorkerQueue> queues;
};

// Per-connection stamps, sent ahead of any task on `wc`; each is one SET
// round trip, skipped when the connection already carries the value.
Status StampConnection(RunState& st, WorkerConnection* wc) {
  // MX (§3.10): every inter-node statement carries the sender's metadata
  // version so the receiver can refuse work routed by a staler peer.
  CITUSX_RETURN_IF_ERROR(st.ext->StampPeerMetadataVersion(wc));
  // Propagate the coordinator session's executor choice so worker fragments
  // honor SET citus.use_vectorized_executor.
  std::string vec_var = st.session->GetVar("citus.use_vectorized_executor");
  if (vec_var.empty()) {
    vec_var = std::string(GucDefault("citus.use_vectorized_executor"));
  }
  bool vec_off = vec_var == "off";
  if (vec_off != wc->vectorized_off_stamped) {
    CITUSX_RETURN_IF_ERROR(
        wc->conn
            ->Query(vec_off ? "SET citus.use_vectorized_executor = 'off'"
                            : "SET citus.use_vectorized_executor = 'on'")
            .status());
    wc->vectorized_off_stamped = vec_off;
  }
  // Propagate the intermediate-result size cap the same way: worker-side
  // shuffle operators (citus_internal_shuffle) enforce the coordinator
  // session's limit, not the worker default.
  std::string ims_var =
      st.session->GetVar("citus.max_intermediate_result_size");
  if (ims_var.empty()) {
    ims_var = std::string(GucDefault("citus.max_intermediate_result_size"));
  }
  std::string ims_cur =
      wc->intermediate_size_stamped.empty()
          ? std::string(GucDefault("citus.max_intermediate_result_size"))
          : wc->intermediate_size_stamped;
  if (ims_var != ims_cur) {
    CITUSX_RETURN_IF_ERROR(
        wc->conn
            ->Query("SET citus.max_intermediate_result_size = '" + ims_var +
                    "'")
            .status());
    wc->intermediate_size_stamped = ims_var;
  }
  return Status::OK();
}

Status ExecOneTask(RunState& st, WorkerConnection* wc, Task& task) {
  // NOLINTNEXTLINE: task fields moved at most once (each task runs once).
  CITUSX_RETURN_IF_ERROR(StampConnection(st, wc));
  if (st.need_txn_block) {
    CITUSX_RETURN_IF_ERROR(st.ext->EnsureWorkerTxn(*st.session, wc));
  }
  if (task.shard_group >= 0) {
    wc->groups.insert({task.colocation_id, task.shard_group});
  }
  if (task.is_write && !task.standalone) wc->did_write = true;
  st.ext->metric_tasks->Inc();
  // When the session carries an active trace (EXPLAIN ANALYZE), wrap the
  // task in a span and propagate the context on the wire so the worker's
  // execution span nests under it.
  sim::Simulation* sim = st.ext->node()->sim();
  obs::TraceCollector* tracer = st.ext->node()->tracer();
  obs::TraceId trace = 0;
  obs::SpanId parent = 0;
  obs::SpanId span = 0;
  if (tracer != nullptr &&
      obs::ParseTraceContext(st.session->GetVar("citusx.trace_ctx"), &trace,
                             &parent)) {
    span = tracer->StartSpan(trace, parent, "task", st.ext->node()->name(),
                             sim->now());
    tracer->SetAttr(span, "worker", task.worker);
    if (task.shard_group >= 0) {
      tracer->SetAttr(span, "shard_group", std::to_string(task.shard_group));
    }
    const std::string& span_sql =
        task.prepare_name.empty() ? task.sql : task.execute_sql;
    if (!span_sql.empty()) tracer->SetAttr(span, "sql", span_sql);
    wc->conn->SetTraceContext(obs::FormatTraceContext(trace, span));
  }
  Result<engine::QueryResult> r = [&]() -> Result<engine::QueryResult> {
    if (task.is_copy) {
      return wc->conn->CopyIn(task.copy_table, task.copy_columns,
                              std::move(task.copy_rows));
    }
    if (!task.prepare_name.empty()) {
      if (wc->prepared_stmts.count(task.prepare_name) == 0) {
        // First use on this connection: PREPARE piggybacks on the EXECUTE's
        // round trip (extended protocol batching).
        Result<engine::QueryResult> batch =
            wc->conn->QueryBatch({task.prepare_sql, task.execute_sql});
        if (batch.ok()) wc->prepared_stmts.insert(task.prepare_name);
        return batch;
      }
      return wc->conn->Query(task.execute_sql);
    }
    return wc->conn->Query(task.sql);
  }();
  if (span != 0) {
    wc->conn->SetTraceContext("");
    if (r.ok()) {
      tracer->SetRows(span, r->rows.empty()
                                ? r->rows_affected
                                : static_cast<int64_t>(r->rows.size()));
    }
    tracer->EndSpan(span, sim->now());
  }
  if (!r.ok()) return r.status();
  (*st.results)[static_cast<size_t>(task.index)] = std::move(r).value();
  return Status::OK();
}

// Execute one task with the failure-hardening wrapper: broken pooled
// connections are pruned and replaced, retryable-transient errors retry
// with capped exponential backoff, and reads whose target node is down
// fail over to the task's fallback replicas. `wc` is updated in place so
// the caller keeps draining its queue on the replacement connection.
// Connections carrying transaction state are never pruned: a transaction
// of unknown fate must surface through the 2PC/abort machinery instead.
Status ExecTaskResilient(RunState& st, WorkerConnection*& wc, Task& task) {
  CitusExtension* ext = st.ext;
  sim::Simulation* sim = ext->node()->sim();
  sim::Time backoff = kTaskRetryBackoff;
  std::string worker = task.worker;
  size_t next_fallback = 0;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= kTaskRetryAttempts; attempt++) {
    // Heal: replace a broken connection before dispatching on it.
    if (wc != nullptr && !wc->conn->usable()) {
      if (!wc->groups.empty() || wc->txn_open || wc->did_write ||
          !wc->prepared_gid.empty()) {
        return last.ok() ? Status::ConnectionLost(
                               "connection to " + worker +
                               " broke with transaction state pending")
                         : last;
      }
      ext->PruneConnection(*st.session, wc);
      wc = nullptr;
    }
    if (wc == nullptr) {
      auto fresh = ext->GetConnection(*st.session, worker,
                                      {task.colocation_id, task.shard_group});
      if (fresh.ok()) {
        wc = *fresh;
      } else {
        last = fresh.status();
      }
    }
    if (wc != nullptr) {
      bool was_stateless = wc->groups.empty() && !wc->txn_open &&
                           !wc->did_write && wc->prepared_gid.empty();
      last = ExecOneTask(st, wc, task);
      if (last.ok()) return last;
      if (was_stateless && !st.need_txn_block && !wc->conn->usable()) {
        // The failed attempt's affinity bookkeeping is the only state on
        // this handle; clear it so the heal step above may prune it.
        wc->groups.clear();
        wc->did_write = false;
      }
    }
    ErrorClass ec = last.error_class();
    // A stale-metadata rejection cannot heal through task-level retries:
    // this node keeps routing from the same stale copy until a re-sync.
    // Surface it immediately — it is RetryableTransient, so the client
    // retry re-plans after the maintenance daemon has re-synced the node.
    if (IsStaleMetadataStatus(last)) return last;
    // Inside a transaction block worker state is at stake: no silent
    // retries, the error aborts the distributed transaction.
    if (ec == ErrorClass::kFatal || st.need_txn_block) return last;
    if (ec == ErrorClass::kNodeDown) {
      ext->NoteWorkerUnavailable(worker);
      // Reference-table reads fail over to a replica on another node.
      if (task.is_write || task.is_copy ||
          next_fallback >= task.fallback_workers.size()) {
        return last;
      }
      worker = task.fallback_workers[next_fallback++];
      ext->metric_failovers->Inc();
      wc = nullptr;
      continue;
    }
    // Retryable-transient: pool exhaustion retries for any task; dropped
    // connections and statement timeouts only for reads (the write may
    // already have been applied before the reply was lost).
    bool can_retry =
        !task.is_copy &&
        (last.code() == StatusCode::kResourceExhausted ||
         (!task.is_write && (last.IsConnectionLost() || last.IsTimeout())));
    if (!can_retry || attempt == kTaskRetryAttempts) return last;
    ext->metric_task_retries->Inc();
    if (!sim->WaitFor(backoff)) return Status::Cancelled("simulation stopping");
    backoff = std::min(backoff * 2, kTaskRetryMaxBackoff);
  }
  return last;
}

// Record one task's outcome for the partial-failure report.
void RecordTask(RunState& st, const Task& task, const Status& s) {
  st.task_status[static_cast<size_t>(task.index)] = s;
  if (!s.ok() && st.first_error.ok()) st.first_error = s;
}

// Run one chunk of read-only tasks over `wc` as a single pipelined round
// trip (PREPAREs piggyback ahead of their EXECUTE). Tasks whose statement
// failed for a retryable reason are re-run through the resilient per-task
// wrapper, which may heal/replace `wc`; fatal SQL errors and stale-metadata
// rejections are recorded directly without a wasted re-execution.
void RunPipelineChunk(RunState& st, WorkerConnection*& wc,
                      const std::vector<Task*>& chunk) {
  auto fallback = [&](Task* t) {
    RecordTask(st, *t, ExecTaskResilient(st, wc, *t));
  };

  // No usable connection: the resilient path acquires (or fails) per task.
  // Otherwise the per-connection stamps ride ahead of the batch exactly as
  // on the per-task path.
  bool ready = wc != nullptr && wc->conn->usable() &&
               StampConnection(st, wc).ok() && wc->conn->usable();
  if (!ready) {
    for (Task* t : chunk) fallback(t);
    return;
  }

  struct Entry {
    Task* task;
    bool is_prepare;
  };
  std::vector<Entry> entries;
  std::vector<std::string> stmts;
  for (Task* t : chunk) {
    if (!t->prepare_name.empty()) {
      if (wc->prepared_stmts.count(t->prepare_name) == 0) {
        entries.push_back({t, true});
        stmts.push_back(t->prepare_sql);
      }
      entries.push_back({t, false});
      stmts.push_back(t->execute_sql);
    } else {
      entries.push_back({t, false});
      stmts.push_back(t->sql);
    }
  }
  st.ext->metric_pipeline_batches->Inc();
  Result<std::vector<net::StatementOutcome>> r =
      wc->conn->QueryPipeline(std::move(stmts));
  if (!r.ok()) {
    // Transport failure: every statement's fate is unknown, but these are
    // reads — safe to re-run each on a healed connection.
    for (Task* t : chunk) fallback(t);
    return;
  }
  std::vector<net::StatementOutcome> outcomes = std::move(r).value();
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    net::StatementOutcome& out = outcomes[i];
    if (e.is_prepare) {
      if (out.status.ok()) {
        wc->prepared_stmts.insert(e.task->prepare_name);
      }
      // A failed PREPARE resurfaces on its EXECUTE's outcome.
      continue;
    }
    Task* t = e.task;
    if (out.status.ok()) {
      st.ext->metric_tasks->Inc();
      st.ext->metric_pipelined_tasks->Inc();
      (*st.results)[static_cast<size_t>(t->index)] = std::move(out.result);
      RecordTask(st, *t, Status::OK());
    } else if (out.status.error_class() == ErrorClass::kFatal ||
               IsStaleMetadataStatus(out.status)) {
      RecordTask(st, *t, out.status);
    } else {
      fallback(t);
    }
  }
}

// A pipeline runner drains its worker's queue in chunks sized to share the
// backlog across the worker's runners, one pipelined round trip per chunk.
void PipelineRunnerLoop(RunState& st, const std::string& worker,
                        WorkerConnection* wc) {
  auto& q = st.queues[worker];
  for (;;) {
    int pending = static_cast<int>(q.general.size());
    if (pending == 0) break;
    int runners = std::max(1, q.runners);
    int take = std::min(kPipelineBatchSize, (pending + runners - 1) / runners);
    std::vector<Task*> chunk;
    chunk.reserve(static_cast<size_t>(take));
    for (int i = 0; i < take; ++i) {
      chunk.push_back(q.general.front());
      q.general.pop_front();
    }
    RunPipelineChunk(st, wc, chunk);
    for (size_t i = 0; i < chunk.size(); ++i) st.done->Send(1);
  }
  q.runners--;
}

// A runner drains one connection's assigned queue, then the general queue.
void RunnerLoop(RunState& st, const std::string& worker,
                WorkerConnection* wc) {
  auto& q = st.queues[worker];
  for (;;) {
    Task* task = nullptr;
    auto it = q.assigned.find(wc);
    if (it != q.assigned.end() && !it->second.empty()) {
      task = it->second.front();
      it->second.pop_front();
    } else if (!q.general.empty()) {
      task = q.general.front();
      q.general.pop_front();
    } else {
      break;
    }
    RecordTask(st, *task, ExecTaskResilient(st, wc, *task));
    st.done->Send(1);
  }
  q.runners--;
}

}  // namespace

Result<std::vector<engine::QueryResult>> AdaptiveExecutor::Execute(
    engine::Session& session, std::vector<Task> tasks) {
  std::vector<engine::QueryResult> results(tasks.size());
  if (tasks.empty()) return results;
  ext_->SessionState(session).tasks_dispatched +=
      static_cast<int64_t>(tasks.size());

  int writes = 0;
  bool all_reads = true;
  for (const auto& t : tasks) {
    writes += (t.is_write && !t.standalone) ? 1 : 0;
    all_reads = all_reads && !t.is_write && !t.is_copy;
  }
  bool need_txn_block = session.in_explicit_txn() || writes > 1;

  // Single-task fast path: one round trip on the affine/cached connection.
  if (tasks.size() == 1) {
    Task& t = tasks[0];
    RunState st;
    st.session = &session;
    st.ext = ext_;
    st.sim = ext_->node()->sim();
    st.need_txn_block = need_txn_block;
    st.results = &results;
    // Acquisition failures flow into the retry/failover wrapper too (a
    // downed worker must not fail queries that can heal or fail over).
    WorkerConnection* wc = nullptr;
    auto got = ext_->GetConnection(session, t.worker,
                                   {t.colocation_id, t.shard_group});
    if (got.ok()) wc = *got;
    CITUSX_RETURN_IF_ERROR(ExecTaskResilient(st, wc, t));
    return results;
  }

  // Admission policy. Read-only multi-shard fan-out outside a transaction
  // block is pipelined: tasks bound for the same worker share a fixed width
  // of connections instead of ramping one connection per task through slow
  // start. Traced statements (EXPLAIN ANALYZE) keep the per-task path so
  // every task gets its own span.
  bool pipelined = all_reads && !need_txn_block &&
                   session.GetVar("citusx.trace_ctx").empty();

  sim::Simulation* sim = ext_->node()->sim();
  auto stp = std::make_shared<RunState>();
  RunState& st = *stp;
  st.session = &session;
  st.ext = ext_;
  st.sim = sim;
  st.need_txn_block = need_txn_block;
  st.owned_results.resize(tasks.size());
  st.results = &st.owned_results;  // heap-owned: safe across cancellation
  st.task_status.assign(tasks.size(), Status::OK());
  st.done = std::make_unique<sim::Channel<int>>(sim);

  // Partition tasks: affinity-bound tasks go to their connection's private
  // queue; the rest to the per-worker general queue. Pipelined runners only
  // drain the general queue.
  CitusSessionState& css = ext_->SessionState(session);
  for (auto& t : tasks) {
    auto& q = st.queues[t.worker];
    WorkerConnection* affine = nullptr;
    if (!pipelined && t.shard_group >= 0) {
      for (auto& wc : css.pool[t.worker]) {
        if (wc->groups.count({t.colocation_id, t.shard_group}) > 0) {
          affine = wc.get();
          break;
        }
      }
    }
    if (affine != nullptr) {
      q.assigned[affine].push_back(&t);
    } else {
      q.general.push_back(&t);
    }
  }

  sim::Time start = sim->now();
  const sim::Time tick = ext_->node()->cost().executor_slow_start_interval;
  // Openers hold the session state weakly: the statement can finish and the
  // client disconnect while a connect is still in flight.
  std::weak_ptr<CitusSessionState> weak_css = ext_->WeakSessionState(session);
  CitusExtension* ext = ext_;

  // Slow start: grow connection pools toward the current allowance; new
  // connections are established concurrently (non-blocking connects), each
  // becoming a runner when ready.
  auto grow = [&st, stp, weak_css, ext](int allowance) {
    for (auto& [worker, q] : st.queues) {
      int pending = static_cast<int>(q.general.size());
      if (pending == 0) continue;
      int target = std::min(allowance, q.runners + pending);
      while (q.runners < target) {
        q.runners++;  // reserve the slot before the async open
        std::string w = worker;
        st.sim->Spawn(
            "citus:opener",
            [stp, w, ext, weak_css] {
              auto extra = ext->TryOpenExtraConnection(weak_css, w);
              if (!extra.ok() || *extra == nullptr) {
                if (!extra.ok() && stp->first_error.ok()) {
                  stp->first_error = extra.status();
                }
                stp->queues[w].runners--;
                return;
              }
              ext->metric_pool_growth->Inc();
              RunnerLoop(*stp, w, *extra);
            },
            /*daemon=*/true);
      }
    }
  };
  auto allowance_now = [&]() {
    return ext_->config().enable_slow_start
               ? 1 + static_cast<int>((sim->now() - start) /
                                      std::max<sim::Time>(tick, 1))
               : 1 << 20;
  };

  if (pipelined) {
    for (auto& [worker, q] : st.queues) {
      // One runner on the session's cached connection; extra runners (up
      // to kPipelineWidth, bounded by the shared pool limit) each open
      // their own connection concurrently.
      int pending = static_cast<int>(q.general.size());
      int runners = std::max(
          1, std::min(kPipelineWidth,
                      (pending + kPipelineBatchSize - 1) / kPipelineBatchSize));
      q.runners = 1;
      auto got = ext_->GetConnection(session, worker, {0, -1});
      WorkerConnection* first = got.ok() ? *got : nullptr;
      std::string w = worker;
      sim->Spawn(
          "citus:pipeline_runner",
          [stp, w, first] { PipelineRunnerLoop(*stp, w, first); },
          /*daemon=*/true);
      for (int i = 1; i < runners; ++i) {
        q.runners++;
        sim->Spawn(
            "citus:pipeline_opener",
            [stp, w, ext, weak_css] {
              auto extra = ext->TryOpenExtraConnection(weak_css, w);
              if (!extra.ok() || *extra == nullptr) {
                // Budget or worker unavailable: the remaining runners (at
                // least the first) drain this worker's queue.
                stp->queues[w].runners--;
                return;
              }
              PipelineRunnerLoop(*stp, w, *extra);
            },
            /*daemon=*/true);
      }
    }
  } else {
    // Acquire the initial general-queue connections before spawning any
    // runner. An acquisition failure (worker down, pool exhausted) does NOT
    // fail the query here: the worker still gets a runner with no
    // connection, and each of its tasks goes through the retry/failover
    // wrapper — which may heal, fail over, or record a per-task error for
    // partial-failure reporting.
    std::vector<std::pair<std::string, WorkerConnection*>> initial;
    for (auto& [worker, q] : st.queues) {
      bool has_assigned_runner = false;
      for (auto& [wc, queue] : q.assigned) {
        has_assigned_runner = has_assigned_runner || !queue.empty();
      }
      if (!q.general.empty() && !has_assigned_runner) {
        auto got = ext_->GetConnection(session, worker, {0, -1});
        initial.emplace_back(worker, got.ok() ? *got : nullptr);
      }
    }
    // Start one runner per connection with assigned tasks, plus one
    // connection per worker for the general queue (slow start begins at
    // n=1).
    auto spawn_runner = [&](const std::string& worker, WorkerConnection* wc) {
      st.queues[worker].runners++;
      sim->Spawn(
          "citus:runner", [stp, worker, wc] { RunnerLoop(*stp, worker, wc); },
          /*daemon=*/true);
    };
    for (auto& [worker, q] : st.queues) {
      for (auto& [wc, queue] : q.assigned) {
        if (!queue.empty()) spawn_runner(worker, wc);
      }
    }
    for (auto& [worker, wc] : initial) spawn_runner(worker, wc);

    // Ticker: wakes the coordinator loop at slow-start intervals so it can
    // grow pools even when no task has completed yet.
    sim->Spawn(
        "citus:slowstart_tick",
        [stp, sim, tick] {
          while (stp->ticker_active && sim->WaitFor(tick)) {
            if (!stp->ticker_active) break;
            stp->done->Send(0);  // sentinel
          }
        },
        /*daemon=*/true);
    grow(allowance_now());  // with slow start disabled, open the pool up front
  }

  int total = static_cast<int>(tasks.size());
  int finished = 0;
  while (finished < total) {
    auto msg = st.done->Receive();
    if (!msg.has_value()) {
      st.ticker_active = false;
      return Status::Cancelled("simulation stopping");
    }
    if (*msg == 1) {
      finished++;
      continue;
    }
    // Sentinel tick: the allowance for new connections per worker grows by
    // one per interval (n = n + 1 every 10ms, §3.6.1).
    grow(allowance_now());
  }
  st.ticker_active = false;
  if (!st.first_error.ok()) {
    int failed = 0;
    std::string failed_shards;
    for (const auto& t : tasks) {
      const Status& s = st.task_status[static_cast<size_t>(t.index)];
      if (s.ok()) continue;
      failed++;
      if (!failed_shards.empty()) failed_shards += ", ";
      failed_shards += t.worker + "/group" + std::to_string(t.shard_group);
    }
    // A pool-growth connect failure with every task completed is not a
    // query failure (the primary connections carried the work).
    if (failed == 0) return std::move(st.owned_results);
    // Read-only multi-shard queries degrade gracefully: when only some
    // shards failed, report exactly which ones instead of an opaque error,
    // so callers can distinguish a partial outage from a dead cluster.
    if (all_reads && failed < total) {
      ext_->metric_partial_failures->Inc();
      return Status::Unavailable(StrFormat(
          "partial query failure: %d of %d shard tasks failed (%s); first "
          "error: %s",
          failed, total, failed_shards.c_str(),
          st.first_error.message().c_str()));
    }
    return st.first_error;
  }
  return std::move(st.owned_results);
}

}  // namespace citusx::citus
