#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "bench/bench_common.h"
#include "common/hash.h"
#include "common/str.h"
#include "sql/json.h"
#include "workload/gharchive.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"
#include "workload/ycsb.h"

namespace citusx::benchmark {

// The values equal the defaults in sim/cost_model.h when the benchmark was
// defined; changing one here is a change of the benchmark.
#define CITUSX_PINNED_COST_MODEL(X)                  \
  X(cores_per_node, 16)                              \
  X(disk_iops, 7500)                                 \
  X(disk_queue_depth, 8)                             \
  X(buffer_pool_bytes, 64LL << 20)                   \
  X(page_bytes, 8192)                                \
  X(net_rtt, 500 * sim::kMicrosecond)                \
  X(connect_cost, 5 * sim::kMillisecond)             \
  X(net_bytes_per_second, 1LL << 30)                 \
  X(max_connections, 300)                            \
  X(parse_per_char, 20)                              \
  X(plan_local, 60 * sim::kMicrosecond)              \
  X(plan_fast_path, 20 * sim::kMicrosecond)          \
  X(plan_router, 60 * sim::kMicrosecond)             \
  X(plan_pushdown, 200 * sim::kMicrosecond)          \
  X(plan_join_order, 1 * sim::kMillisecond)          \
  X(plan_cached_bind, 2 * sim::kMicrosecond)         \
  X(executor_startup, 20 * sim::kMicrosecond)        \
  X(cpu_per_row_scan, 100)                           \
  X(cpu_per_expr_eval, 60)                           \
  X(cpu_per_row_sort, 250)                           \
  X(cpu_per_row_hash, 150)                           \
  X(cpu_per_row_insert, 800)                         \
  X(cpu_per_index_insert, 1200)                      \
  X(cpu_per_index_lookup, 4 * sim::kMicrosecond)     \
  X(cpu_per_row_copy_parse, 500)                     \
  X(cpu_per_gin_recheck, 25 * sim::kMicrosecond)     \
  X(cpu_per_trgm_insert, 300)                        \
  X(cpu_per_row_net, 200)                            \
  X(wal_flush, 400 * sim::kMicrosecond)              \
  X(cpu_commit, 30 * sim::kMicrosecond)              \
  X(cpu_commit_readonly, 3 * sim::kMicrosecond)      \
  X(vec_per_row_scan, 8)                             \
  X(vec_per_expr_eval, 6)                            \
  X(vec_per_row_hash, 25)                            \
  X(vec_per_row_sort, 120)                           \
  X(vec_pipeline_startup, 5 * sim::kMicrosecond)     \
  X(vec_morsel_overhead, 2 * sim::kMicrosecond)      \
  X(vec_morsel_rows, 16384)                          \
  X(deadlock_poll_interval, 2 * sim::kSecond)        \
  X(recovery_poll_interval, 30 * sim::kSecond)       \
  X(executor_slow_start_interval, 10 * sim::kMillisecond) \
  X(cpu_charge_batch_rows, 4096)

sim::CostModel PinnedCostModel() {
  sim::CostModel cost;
#define CITUSX_PIN(field, value) cost.field = value;
  CITUSX_PINNED_COST_MODEL(CITUSX_PIN)
#undef CITUSX_PIN
  return cost;
}

std::vector<std::pair<std::string, int64_t>> CostModelFields(
    const sim::CostModel& cost) {
  return {
#define CITUSX_FIELD(field, value) {#field, static_cast<int64_t>(cost.field)},
      CITUSX_PINNED_COST_MODEL(CITUSX_FIELD)
#undef CITUSX_FIELD
  };
}

namespace {

constexpr int kWorkers = 4;

citus::DeploymentOptions CitusFourPlusOne(int64_t buffer_pool_bytes,
                                          int max_connections) {
  citus::DeploymentOptions options;
  options.num_workers = kWorkers;
  options.cost = PinnedCostModel();
  options.cost.buffer_pool_bytes = buffer_pool_bytes;
  options.cost.max_connections = max_connections;
  return options;
}

Rng SeededRng(uint64_t seed, uint64_t stream) {
  return Rng(Mix64(seed ^ Mix64(stream)));
}

// ---- crud_ycsb ------------------------------------------------------------

// YCSB workload A (paper §4.3) on data 3.4x larger than the aggregate
// buffer pool: fast-path point reads and single-row updates, most of which
// miss the cache and queue for disk.
class CrudYcsb : public Workload {
 public:
  explicit CrudYcsb(bool smoke) : window_(smoke ? kSmokeWindow : kWindow) {
    config_.record_count = kRows;
    config_.field_length = 100;
    config_.fields = 10;
  }

  citus::DeploymentOptions Options() const override {
    return CitusFourPlusOne(4LL << 20, 300);
  }

  Status Load(Env& env) override {
    writes_.clear();
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_RETURN_IF_ERROR(workload::YcsbCreateSchema(conn, config_));
      return workload::YcsbLoad(conn, config_, 0, kRows);
    });
  }

  std::vector<ClientSpec> Clients(bool) override {
    std::vector<ClientSpec> clients(kClients);
    for (ClientSpec& c : clients) {
      c.op = [this](net::Connection& conn, Rng& rng, int64_t) {
        return Op(conn, rng);
      };
    }
    return clients;
  }

  sim::Time warmup() const override { return 250 * sim::kMillisecond; }
  sim::Time window() const override { return window_; }

  // The row count, and for every audited (key, field) the value of a write
  // no other acknowledged write strictly followed.
  Status Check(Env& env) override {
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_ASSIGN_OR_RETURN(
          engine::QueryResult count,
          conn.Query("SELECT count(*) FROM usertable"));
      if (count.rows.size() != 1 || count.rows[0][0].AsInt64() != kRows) {
        return Status::Internal("usertable lost or gained rows");
      }
      std::map<int64_t, std::vector<int>> fields_by_key;
      for (const auto& [kf, writes] : writes_) {
        fields_by_key[kf.first].push_back(kf.second);
      }
      for (const auto& [key, fields] : fields_by_key) {
        CITUSX_ASSIGN_OR_RETURN(
            engine::QueryResult row,
            conn.Query(StrFormat("SELECT * FROM usertable WHERE ycsb_key = "
                                 "%lld",
                                 static_cast<long long>(key))));
        if (row.rows.size() != 1) {
          return Status::Internal(StrFormat(
              "key %lld: %zu rows", static_cast<long long>(key),
              row.rows.size()));
        }
        for (int field : fields) {
          const std::vector<Write>& writes = writes_.at({key, field});
          if (std::any_of(writes.begin(), writes.end(),
                          [](const Write& w) { return !w.acked; })) {
            continue;  // a failed update may or may not have applied
          }
          std::string got =
              row.rows[0][static_cast<size_t>(field) + 1].ToText();
          bool allowed = false;
          for (const Write& w : writes) {
            bool superseded = std::any_of(
                writes.begin(), writes.end(),
                [&](const Write& later) { return later.start > w.end; });
            allowed = allowed || (!superseded && w.value == got);
          }
          if (!allowed) {
            return Status::Internal(StrFormat(
                "key %lld field%d: not the last acknowledged value",
                static_cast<long long>(key), field));
          }
        }
      }
      return Status::OK();
    });
  }

  double tail_percentile() const override { return 99; }

  int64_t user_bytes() const override {
    int64_t bytes = 0;
    for (int64_t k = 0; k < kRows; k++) {
      bytes += static_cast<int64_t>(std::to_string(k).size()) +
               int64_t{config_.fields} * config_.field_length;
    }
    return bytes;
  }
  std::vector<std::string> user_tables() const override {
    return {"usertable"};
  }

 private:
  static constexpr int64_t kRows = 50000;
  static constexpr int kClients = 32;
  // Every kAuditStride-th key has its updates recorded for the audit.
  static constexpr int64_t kAuditStride = 16;
  // About 10 s of host time on the reference host (README.md).
  static constexpr sim::Time kWindow = 5600 * sim::kMillisecond;
  static constexpr sim::Time kSmokeWindow = 1 * sim::kSecond;

  struct Write {
    sim::Time start = 0, end = 0;
    std::string value;
    bool acked = false;
  };

  Status Op(net::Connection& conn, Rng& rng) {
    int64_t key = rng.Uniform(0, kRows - 1);
    if (rng.NextDouble() < 0.5) {
      CITUSX_ASSIGN_OR_RETURN(
          engine::QueryResult r,
          conn.Query(StrFormat("SELECT * FROM usertable WHERE ycsb_key = "
                               "%lld",
                               static_cast<long long>(key))));
      if (r.rows.size() != 1) {
        return Status::Internal("point read did not return one row");
      }
      return Status::OK();
    }
    int field = static_cast<int>(rng.Uniform(0, config_.fields - 1));
    Write w;
    w.value = rng.AlphaString(config_.field_length, config_.field_length);
    w.start = conn.server()->sim()->now();
    auto r = conn.Query(StrFormat(
        "UPDATE usertable SET field%d = '%s' WHERE ycsb_key = %lld", field,
        w.value.c_str(), static_cast<long long>(key)));
    w.end = conn.server()->sim()->now();
    w.acked = r.ok() && r->rows_affected == 1;
    if (key % kAuditStride == 0) writes_[{key, field}].push_back(w);
    if (!r.ok()) return r.status();
    if (!w.acked) return Status::Internal("update did not touch one row");
    return Status::OK();
  }

  workload::YcsbConfig config_;
  sim::Time window_;
  std::map<std::pair<int64_t, int>, std::vector<Write>> writes_;
};

// ---- tenant_tpcc ----------------------------------------------------------

// The HammerDB TPC-C mix (paper §4.1) with procedures delegated by
// warehouse id, on data that fits the cluster's memory. As in HammerDB,
// each client is bound to its own home warehouse. workload::TpccMix draws a
// warehouse per transaction instead; two new orders on one warehouse then
// update stock rows in opposite orders, and each such deadlock stalls its
// warehouse until the 2 s distributed-deadlock poll, which moved throughput
// by 22% between seeds.
class TenantTpcc : public Workload {
 public:
  explicit TenantTpcc(bool smoke) : window_(smoke ? kSmokeWindow : kWindow) {
    config_.warehouses = kClients;
    config_.items = 1000;
    config_.customers_per_district = 60;
    config_.orders_per_district = 60;
  }

  citus::DeploymentOptions Options() const override {
    // Delegated procedures open worker-to-worker connections for the
    // multi-warehouse transactions, as in bench/fig6_tpcc.
    return CitusFourPlusOne(16LL << 20, 2000);
  }

  Status Load(Env& env) override {
    net::Cluster& cluster = env.deploy().cluster();
    for (size_t i = 0; i < cluster.num_nodes(); i++) {
      workload::TpccRegisterProcedures(cluster.node(i), config_);
    }
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_RETURN_IF_ERROR(workload::TpccCreateSchema(conn, config_));
      CITUSX_RETURN_IF_ERROR(
          workload::TpccLoad(conn, config_, 1, config_.warehouses));
      return workload::TpccDistributeProcedures(conn);
    });
  }

  std::vector<ClientSpec> Clients(bool) override {
    std::vector<ClientSpec> clients(kClients);
    for (size_t i = 0; i < clients.size(); i++) {
      clients[i].think = 1 * sim::kMillisecond;  // HammerDB keying time
      int64_t home = static_cast<int64_t>(i) + 1;
      clients[i].op = [this, home](net::Connection& conn, Rng& rng,
                                   int64_t) {
        return conn.Query(NextCall(home, rng)).status();
      };
    }
    return clients;
  }

  sim::Time warmup() const override { return 100 * sim::kMillisecond; }
  sim::Time window() const override { return window_; }

  Status Check(Env& env) override {
    return env.WithConnection([&](net::Connection& conn) {
      return workload::TpccCheckConsistency(conn, config_);
    });
  }

  double tail_percentile() const override { return 99; }

 private:
  static constexpr int kClients = 32;
  static constexpr sim::Time kWindow = 1 * sim::kSecond;
  static constexpr sim::Time kSmokeWindow = 200 * sim::kMillisecond;

  // New order 45%, payment 43%, order status, delivery and stock level 4%
  // each; 15% of payments pay a customer of another warehouse.
  std::string NextCall(int64_t w, Rng& rng) const {
    long long d = rng.Uniform(1, config_.districts_per_warehouse);
    long long c = rng.NURand(255, 1, config_.customers_per_district, 7);
    int64_t roll = rng.Uniform(1, 100);
    if (roll <= 45) {
      return StrFormat("CALL tpcc_neworder(%lld, %lld, %lld, %lld, %lld)",
                       static_cast<long long>(w), d, c,
                       static_cast<long long>(rng.Uniform(5, 15)),
                       static_cast<long long>(rng.Next() % 1000000));
    }
    if (roll <= 88) {
      int64_t c_w = w;
      if (rng.Chance(config_.payment_remote_pct)) {
        c_w = rng.Uniform(1, config_.warehouses - 1);
        if (c_w >= w) c_w++;
      }
      return StrFormat("CALL tpcc_payment(%lld, %lld, %lld, %lld, %lld, %.2f)",
                       static_cast<long long>(w), d,
                       static_cast<long long>(c_w), d, c,
                       1.0 + rng.NextDouble() * 4999.0);
    }
    if (roll <= 92) {
      return StrFormat("CALL tpcc_ostat(%lld, %lld, %lld)",
                       static_cast<long long>(w), d, c);
    }
    if (roll <= 96) {
      return StrFormat("CALL tpcc_delivery(%lld)", static_cast<long long>(w));
    }
    return StrFormat("CALL tpcc_slev(%lld, %lld)", static_cast<long long>(w),
                     d);
  }

  workload::TpccConfig config_;
  sim::Time window_;
};

// ---- dw_tpch --------------------------------------------------------------

// Fills TPC-H substitution parameters the way qgen does (TPC-H 2.4): each
// query pass draws its own values from the seed.
class TpchParams {
 public:
  explicit TpchParams(Rng* rng) : rng_(rng) {}

  Result<std::string> Substitute(const std::string& name,
                                 const std::string& sql) {
    std::vector<std::pair<std::string, std::string>> subs;
    if (name == "Q1") {
      subs = {{"INTERVAL '90' DAY",
               StrFormat("INTERVAL '%lld' DAY", Pick(60, 120))}};
    } else if (name == "Q3") {
      subs = {{"'BUILDING'", Quote(OneOf(kSegments))},
              {"DATE '1995-03-15'",
               StrFormat("DATE '1995-03-%02lld'", Pick(1, 31))}};
    } else if (name == "Q5") {
      subs = {{"'ASIA'", Quote(OneOf(kRegions))},
              {"DATE '1994-01-01'", YearStart()}};
    } else if (name == "Q6") {
      long long discount = Pick(2, 9);
      subs = {{"DATE '1994-01-01'", YearStart()},
              {"0.05 AND 0.07", StrFormat("0.%02lld AND 0.%02lld",
                                          discount - 1, discount + 1)},
              {"l_quantity < 24",
               StrFormat("l_quantity < %lld", Pick(24, 25))}};
    } else if (name == "Q7") {
      auto [n1, n2] = TwoOf(kNations);
      subs = {{"'FRANCE'", Quote(n1)}, {"'GERMANY'", Quote(n2)}};
    } else if (name == "Q10") {
      subs = {{"DATE '1993-10-01'", MonthStart(1, 24)}};
    } else if (name == "Q12") {
      auto [m1, m2] = TwoOf(kShipModes);
      subs = {{"'MAIL', 'SHIP'", Quote(m1) + ", " + Quote(m2)},
              {"DATE '1994-01-01'", YearStart()}};
    } else if (name == "Q14") {
      subs = {{"DATE '1995-09-01'", MonthStart(0, 59)}};
    } else if (name == "Q19") {
      long long q1 = Pick(1, 10), q2 = Pick(10, 20), q3 = Pick(20, 30);
      subs = {{"'Brand#12'", Brand()},
              {"'Brand#23'", Brand()},
              {"'Brand#34'", Brand()},
              {"l_quantity >= 1 AND l_quantity <= 11",
               StrFormat("l_quantity >= %lld AND l_quantity <= %lld", q1,
                         q1 + 10)},
              {"l_quantity >= 10 AND l_quantity <= 20",
               StrFormat("l_quantity >= %lld AND l_quantity <= %lld", q2,
                         q2 + 10)},
              {"l_quantity >= 20 AND l_quantity <= 30",
               StrFormat("l_quantity >= %lld AND l_quantity <= %lld", q3,
                         q3 + 10)}};
    } else {
      return Status::NotFound("no substitution parameters for TPC-H " + name);
    }
    return Replace(name, sql, subs);
  }

 private:
  static constexpr const char* kSegments[] = {
      "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};
  static constexpr const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA",
                                             "EUROPE", "MIDDLE EAST"};
  static constexpr const char* kNations[] = {
      "ALGERIA", "ARGENTINA",    "BRAZIL",  "CANADA",         "EGYPT",
      "ETHIOPIA", "FRANCE",      "GERMANY", "INDIA",          "INDONESIA",
      "IRAN",    "IRAQ",         "JAPAN",   "JORDAN",         "KENYA",
      "MOROCCO", "MOZAMBIQUE",   "PERU",    "CHINA",          "ROMANIA",
      "SAUDI ARABIA", "VIETNAM", "RUSSIA",  "UNITED KINGDOM", "UNITED STATES"};
  static constexpr const char* kShipModes[] = {"AIR",     "FOB",  "MAIL", "RAIL",
                                               "REG AIR", "SHIP", "TRUCK"};

  long long Pick(int64_t lo, int64_t hi) {
    return static_cast<long long>(rng_->Uniform(lo, hi));
  }
  template <size_t N>
  std::string OneOf(const char* const (&values)[N]) {
    return values[Pick(0, N - 1)];
  }
  template <size_t N>
  std::pair<std::string, std::string> TwoOf(const char* const (&values)[N]) {
    size_t a = static_cast<size_t>(Pick(0, N - 1));
    size_t b = static_cast<size_t>(Pick(0, N - 2));
    if (b >= a) b++;
    return {values[a], values[b]};
  }
  static std::string Quote(const std::string& s) { return "'" + s + "'"; }
  std::string YearStart() {
    return StrFormat("DATE '%lld-01-01'", Pick(1993, 1997));
  }
  // First day of the month `lo`..`hi` months after January 1993.
  std::string MonthStart(int64_t lo, int64_t hi) {
    long long k = Pick(lo, hi);
    return StrFormat("DATE '%lld-%02lld-01'", 1993 + k / 12, k % 12 + 1);
  }
  std::string Brand() {
    return StrFormat("'Brand#%lld%lld'", Pick(1, 5), Pick(1, 5));
  }

  // Every literal must occur; values go in through placeholders so that a
  // value may equal a literal replaced later (Q7 may swap its nations).
  static Result<std::string> Replace(
      const std::string& name, std::string sql,
      const std::vector<std::pair<std::string, std::string>>& subs) {
    auto replace_all = [](std::string* s, const std::string& from,
                          const std::string& to) {
      int n = 0;
      for (size_t pos = s->find(from); pos != std::string::npos;
           pos = s->find(from, pos + to.size())) {
        s->replace(pos, from.size(), to);
        n++;
      }
      return n;
    };
    for (size_t i = 0; i < subs.size(); i++) {
      if (replace_all(&sql, subs[i].first, StrFormat("\x01%zu\x01", i)) == 0) {
        return Status::NotFound("TPC-H " + name + " has no literal " +
                                subs[i].first);
      }
    }
    for (size_t i = 0; i < subs.size(); i++) {
      replace_all(&sql, StrFormat("\x01%zu\x01", i), subs[i].second);
    }
    return sql;
  }

  Rng* rng_;
};

// One session runs the supported TPC-H queries pass after pass over
// columnar shards with the vectorized executor (paper §4.4, Figure 8).
class DwTpch : public Workload {
 public:
  DwTpch(uint64_t seed, bool smoke) {
    config_.scale = 0.05;
    config_.columnar = true;
    Rng rng = SeededRng(seed, 0x7c4);
    TpchParams params(&rng);
    for (int p = 0; p < (smoke ? kSmokePasses : kPasses); p++) {
      for (const auto& [name, sql] : workload::TpchQueries()) {
        auto text = params.Substitute(name, sql);
        if (!text.ok()) {
          params_error_ = text.status();
          return;
        }
        queries_.push_back(*text);
      }
    }
  }

  citus::DeploymentOptions Options() const override {
    return CitusFourPlusOne(16LL << 20, 300);
  }

  Status Load(Env& env) override {
    CITUSX_RETURN_IF_ERROR(params_error_);
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_RETURN_IF_ERROR(workload::TpchCreateSchema(conn, config_));
      return workload::TpchLoad(conn, config_);
    });
  }

  // The warm-up runs one pass with the standard parameters.
  std::vector<ClientSpec> Clients(bool warmup) override {
    ClientSpec c;
    if (warmup) {
      c.max_ops = static_cast<int64_t>(workload::TpchQueries().size());
      c.op = [](net::Connection& conn, Rng&, int64_t i) {
        return conn.Query(workload::TpchQueries()[static_cast<size_t>(i)]
                              .second)
            .status();
      };
    } else {
      results_.assign(queries_.size(), engine::QueryResult());
      c.max_ops = static_cast<int64_t>(queries_.size());
      c.op = [this](net::Connection& conn, Rng&, int64_t i) -> Status {
        CITUSX_ASSIGN_OR_RETURN(results_[static_cast<size_t>(i)],
                                conn.Query(queries_[static_cast<size_t>(i)]));
        return Status::OK();
      };
    }
    return {c};
  }

  sim::Time warmup() const override { return 0; }
  sim::Time window() const override { return 0; }

  // Every query of the last window again through the volcano executor.
  Status Check(Env& env) override {
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_RETURN_IF_ERROR(
          conn.Query("SET citus.use_vectorized_executor = 'off'").status());
      for (size_t i = 0; i < queries_.size(); i++) {
        CITUSX_ASSIGN_OR_RETURN(engine::QueryResult oracle,
                                conn.Query(queries_[i]));
        if (!bench::ApproxEqualResults(oracle, results_[i])) {
          return Status::Internal("vectorized result differs from the "
                                  "volcano oracle: " + queries_[i]);
        }
      }
      return conn.Query("SET citus.use_vectorized_executor = 'on'").status();
    });
  }

  double tail_percentile() const override { return 90; }
  int trace_every() const override { return 1; }
  // One group per query pass: the nine queries differ in cost.
  int64_t host_group() const override {
    return static_cast<int64_t>(workload::TpchQueries().size());
  }

 private:
  static constexpr int kPasses = 14;
  static constexpr int kSmokePasses = 3;

  workload::TpchConfig config_;
  Status params_error_;
  std::vector<std::string> queries_;
  std::vector<engine::QueryResult> results_;
};

// ---- rt_analytics ---------------------------------------------------------

// COPY ingest into the GIN-indexed github_events table beside the §4.2
// dashboard query, both closed loop.
class RtAnalytics : public Workload {
 public:
  RtAnalytics(uint64_t seed, bool smoke, int windows)
      : window_(smoke ? kSmokeWindow : kWindow), rng_(SeededRng(seed, 0x6a)) {
    for (int64_t b = 0; b < kPreloadEvents / kPreloadBatchEvents; b++) {
      preload_.push_back(Compose(kPreloadBatchEvents));
    }
    // Compose the batches the run is expected to take before it starts, so
    // that composing them stays out of the measured host time.
    double virtual_s = static_cast<double>(warmup() + windows * window_) / 1e9;
    int64_t batches = static_cast<int64_t>(
        std::ceil(virtual_s * kExpectedBatchesPerVirtualSecond));
    for (int64_t b = 0; b < batches; b++) {
      batches_.push_back(Compose(kBatchEvents));
    }
  }

  citus::DeploymentOptions Options() const override {
    return CitusFourPlusOne(32LL << 20, 300);
  }

  Status Load(Env& env) override {
    next_batch_ = 0;
    ledger_.clear();
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_RETURN_IF_ERROR(workload::GhCreateSchema(conn, config_));
      for (const Batch& b : preload_) {
        CITUSX_RETURN_IF_ERROR(Ingest(conn, b));
      }
      return Status::OK();
    });
  }

  // Throughput is the acknowledged COPY batches and latency the dashboard
  // queries, so a change that trades ingest for reads moves two metrics.
  std::vector<ClientSpec> Clients(bool) override {
    std::vector<ClientSpec> clients(4);
    for (int i = 0; i < 2; i++) {
      clients[i].timed = false;
      clients[i].op = [this](net::Connection& conn, Rng&, int64_t) {
        // Past the composed batches, compose more from the same stream: the
        // simulation takes them in a fixed order, so runs still repeat.
        if (next_batch_ == batches_.size()) {
          batches_.push_back(Compose(kBatchEvents));
        }
        return Ingest(conn, batches_[next_batch_++]);
      };
    }
    for (int i = 2; i < 4; i++) {
      clients[i].counted = false;
      clients[i].op = [](net::Connection& conn, Rng&, int64_t) {
        return conn.Query(workload::GhDashboardQuery()).status();
      };
    }
    return clients;
  }

  sim::Time warmup() const override { return 200 * sim::kMillisecond; }
  sim::Time window() const override { return window_; }

  // The dashboard's per-day totals equal the ingest ledger's.
  Status Check(Env& env) override {
    return env.WithConnection([&](net::Connection& conn) -> Status {
      CITUSX_ASSIGN_OR_RETURN(engine::QueryResult r,
                              conn.Query(workload::GhDashboardQuery()));
      std::map<std::string, int64_t> seen;
      for (const sql::Row& row : r.rows) {
        seen[row[0].ToText()] = static_cast<int64_t>(row[1].AsDouble());
      }
      std::map<std::string, int64_t> expected;
      for (const auto& [day, n] : ledger_) {
        if (n > 0) expected[day] = n;
      }
      if (seen != expected) {
        return Status::Internal(StrFormat(
            "dashboard shows %zu days, the ingest ledger %zu (or the "
            "per-day totals differ)",
            seen.size(), expected.size()));
      }
      return Status::OK();
    });
  }

  double tail_percentile() const override { return 95; }
  int trace_every() const override { return 10; }

  int64_t user_bytes() const override {
    int64_t bytes = 0;
    for (const Batch& b : preload_) bytes += b.bytes;
    return bytes;
  }
  std::vector<std::string> user_tables() const override {
    return {"github_events"};
  }

 private:
  static constexpr int64_t kPreloadEvents = 20000;
  static constexpr int64_t kPreloadBatchEvents = 4000;
  static constexpr int64_t kBatchEvents = 200;
  // The generator's own rate: 60% push events with 1-5 commits, 2% of
  // commits mentioning postgres.
  static constexpr int64_t kMatchingPer1000 = 35;
  static constexpr sim::Time kWindow = 2300 * sim::kMillisecond;
  static constexpr sim::Time kSmokeWindow = 500 * sim::kMillisecond;
  // The two sessions' COPY rate with headroom; a faster run composes the
  // rest on demand.
  static constexpr double kExpectedBatchesPerVirtualSecond = 160;

  struct Event {
    std::vector<std::string> row;
    std::string day;
    int64_t commits = 0;  // counted by the dashboard query
  };
  struct Batch {
    std::vector<std::vector<std::string>> rows;
    int64_t bytes = 0;
    // Commits per day of the events the dashboard query counts.
    std::map<std::string, int64_t> commits;
  };

  // The dashboard counts the commits of events whose commit messages
  // mention postgres in any case.
  static int64_t PostgresCommits(const std::string& json) {
    auto doc = sql::Json::Parse(json);
    if (!doc.ok()) return 0;
    sql::JsonPtr payload = (*doc)->GetField("payload");
    sql::JsonPtr commits =
        payload != nullptr ? payload->GetField("commits") : nullptr;
    if (commits == nullptr) return 0;
    for (const sql::JsonPtr& c : commits->array_items()) {
      sql::JsonPtr message = c->GetField("message");
      if (message != nullptr &&
          ToLower(message->string_value()).find("postgres") !=
              std::string::npos) {
        return commits->array_size();
      }
    }
    return 0;
  }

  // One day of generated events, split by whether the dashboard counts them.
  void GenerateDay() {
    int month = 1 + day_index_ / 28 % 12, day = 1 + day_index_ % 28;
    day_index_++;
    for (auto& row : workload::GhGenerateEvents(rng_, config_, 1000, 2020,
                                                month, day)) {
      if (!ids_.insert(row[0]).second) continue;  // keep event ids unique
      Event e{std::move(row), StrFormat("2020-%02d-%02d", month, day), 0};
      e.commits = PostgresCommits(e.row[1]);
      (e.commits > 0 ? matching_ : plain_).push_back(std::move(e));
    }
  }

  // Every batch holds the same share of events the dashboard counts, so
  // that the dashboard's work does not swing with the seed's binomial draw
  // of postgres mentions.
  Batch Compose(int64_t events) {
    int64_t want = events * kMatchingPer1000 / 1000;
    Batch batch;
    for (std::deque<Event>* queue : {&matching_, &plain_}) {
      int64_t n = queue == &matching_ ? want : events - want;
      for (int64_t i = 0; i < n; i++) {
        while (queue->empty()) GenerateDay();
        Event& e = queue->front();
        batch.bytes += static_cast<int64_t>(e.row[0].size() + e.row[1].size());
        batch.commits[e.day] += e.commits;
        batch.rows.push_back(std::move(e.row));
        queue->pop_front();
      }
    }
    return batch;
  }

  Status Ingest(net::Connection& conn, const Batch& batch) {
    CITUSX_RETURN_IF_ERROR(
        conn.CopyIn("github_events", {}, batch.rows).status());
    for (const auto& [day, n] : batch.commits) ledger_[day] += n;
    return Status::OK();
  }

  workload::GhArchiveConfig config_;
  sim::Time window_;
  // The seeded event stream.
  Rng rng_;
  std::set<std::string> ids_;
  std::deque<Event> matching_, plain_;
  int day_index_ = 0;
  std::vector<Batch> preload_;
  // A deque: composing a batch on demand must not move the batch another
  // session is still copying in.
  std::deque<Batch> batches_;
  size_t next_batch_ = 0;
  std::map<std::string, int64_t> ledger_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "crud_ycsb", "tenant_tpcc", "dw_tpch", "rt_analytics"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke, int windows) {
  if (name == "crud_ycsb") return std::make_unique<CrudYcsb>(smoke);
  if (name == "tenant_tpcc") return std::make_unique<TenantTpcc>(smoke);
  if (name == "dw_tpch") return std::make_unique<DwTpch>(seed, smoke);
  if (name == "rt_analytics") {
    return std::make_unique<RtAnalytics>(seed, smoke, windows);
  }
  return nullptr;
}

}  // namespace citusx::benchmark
