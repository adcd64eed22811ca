// Per-layer measurements for the traced run: program counters summed over
// the deployment, the self-time split of sampled span trees, host timings
// of single layer calls, and the benchmark's own span log.
#ifndef CITUSX_BENCHMARK_LAYERS_H_
#define CITUSX_BENCHMARK_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "driver.h"
#include "sql/json.h"

namespace citusx::benchmark {

/// Every node's metrics summed by name: counters and gauges by value,
/// histograms (virtual-ns durations) by their sum.
std::map<std::string, int64_t> SumCounters(citus::Deployment& deploy);

/// Bytes stored for `tables` and their shards on every node: heap or
/// columnar data plus index bytes.
int64_t StoredBytes(citus::Deployment& deploy,
                    const std::vector<std::string>& tables);

/// The self-time split of one client op's span tree, in virtual ns.
/// A layer's self time is its spans' durations minus the part their
/// children cover: the coordinator's statement span minus its tasks; the
/// wire, which is the client round trip outside the coordinator's statement
/// plus each task outside its worker execution; and the workers' execution
/// spans.
struct SpanSplit {
  int64_t coordinator_self = 0;
  int64_t wire = 0;
  int64_t worker = 0;
  /// The statement the client sent ("" for COPY), and every statement any
  /// node executed for the op, the client's first.
  std::string client_sql;
  std::vector<std::string> statements;
};
SpanSplit SplitSpans(const std::vector<obs::Span>& spans);

/// Host ns per baton handoff: two processes ping-pong through the public
/// Spawn/WaitFor API of a fresh simulation. The fastest of five rounds, to
/// match HostUsPerOp: interference from outside the process only adds time.
double HandoffNs();

/// Host ns of the fastest of `repeats` calls of `fn`.
int64_t FastestHostNs(int repeats, const std::function<void()>& fn);

/// The benchmark's own spans: every client op, the set-up phases and the
/// host-timed layer calls, kept in memory and written as JSON lines.
class SpanLog {
 public:
  void Add(std::vector<std::pair<std::string, sql::JsonPtr>> fields) {
    lines_.push_back(sql::Json::MakeObject(std::move(fields))->ToString());
  }
  bool WriteTo(const std::string& path) const;

 private:
  std::vector<std::string> lines_;
};

}  // namespace citusx::benchmark

#endif  // CITUSX_BENCHMARK_LAYERS_H_
