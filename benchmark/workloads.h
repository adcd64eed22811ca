// The four workloads of the citusx benchmark, one per workload pattern of
// the paper's §2 and Table 1, each on Citus 4+1. README.md says why each
// was chosen and which layers it stresses.
#ifndef CITUSX_BENCHMARK_WORKLOADS_H_
#define CITUSX_BENCHMARK_WORKLOADS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver.h"

namespace citusx::benchmark {

/// Every sim::CostModel field with the value the benchmark pins it to, so
/// that editing the defaults in sim/cost_model.h cannot move a benchmark
/// number. Workloads then set their buffer pool size and connection limit.
sim::CostModel PinnedCostModel();
std::vector<std::pair<std::string, int64_t>> CostModelFields(
    const sim::CostModel& cost);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Citus 4+1 with the pinned cost model.
  virtual citus::DeploymentOptions Options() const = 0;
  /// Create the schema and load the data into a fresh deployment. Resets
  /// the ledgers the checks read.
  virtual Status Load(Env& env) = 0;
  /// One client per entry; every client connects to the coordinator.
  virtual std::vector<ClientSpec> Clients(bool warmup) = 0;
  /// Virtual length of the warm-up and of the measured window; 0 means the
  /// clients do fixed work (ClientSpec::max_ops).
  virtual sim::Time warmup() const = 0;
  virtual sim::Time window() const = 0;
  /// Check the program's outputs after the window (untimed).
  virtual Status Check(Env& env) = 0;

  /// The tail percentile reported: the highest with at least ten samples
  /// beyond it in a full-length window.
  virtual double tail_percentile() const = 0;
  /// Traced runs give every trace_every-th op of a client a span tree.
  virtual int trace_every() const { return 100; }
  /// Completed ops per group for the host cost per op (see HostUsPerOp).
  virtual int64_t host_group() const { return 0; }
  /// Bytes of field text the benchmark loaded, and the tables holding
  /// them; 0 when src/workload generates the data itself.
  virtual int64_t user_bytes() const { return 0; }
  virtual std::vector<std::string> user_tables() const { return {}; }
};

const std::vector<std::string>& WorkloadNames();

/// Each workload fixes its measured window in virtual time (dw_tpch: in
/// query passes); `smoke` selects a short one. `windows` is how many
/// measured windows the run makes after the warm-up, which sizes the input
/// rt_analytics generates up front. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke, int windows);

}  // namespace citusx::benchmark

#endif  // CITUSX_BENCHMARK_WORKLOADS_H_
