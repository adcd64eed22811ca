// Metrics registry: named counters, gauges, and virtual-time histograms.
//
// Each engine::Node owns one Metrics registry. Instrumented subsystems
// (buffer pool, lock manager, txn manager, net, citus executor) resolve
// their metric handles once (Counter*/Gauge*/Histogram*) and then update
// them on the hot path with a plain integer add — no map lookups. Handles
// stay valid for the lifetime of the registry.
//
// Values that represent durations are simulated time (sim::Time, ns).
#ifndef CITUSX_OBS_METRICS_H_
#define CITUSX_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/histogram.h"

namespace citusx::obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void Inc(int64_t delta = 1) { v_ += delta; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

/// Value that can move both ways (pool sizes, queue depths).
class Gauge {
 public:
  void Set(int64_t v) { v_ = v; }
  void Add(int64_t delta) { v_ += delta; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

/// Distribution of virtual-time durations (or any int64), log-bucketed.
class Histogram {
 public:
  void Record(int64_t v) { h_.Record(v); }
  int64_t count() const { return h_.count(); }
  int64_t sum() const { return h_.sum(); }
  int64_t Percentile(double p) const { return h_.Percentile(p); }
  const sim::Histogram& base() const { return h_; }

 private:
  sim::Histogram h_;
};

/// One metric's state at snapshot time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;                            // counter/gauge value, or count
  int64_t sum = 0, p50 = 0, p95 = 0, p99 = 0;   // histogram only
};

class Metrics {
 public:
  /// Get-or-create by name. Returned pointers are stable forever. Every
  /// name must appear in obs/metric_names.h (cituslint `metrics-registry`).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// All metrics, sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Convenience for tests: counter value, 0 if never registered.
  int64_t CounterValue(const std::string& name) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace citusx::obs

#endif  // CITUSX_OBS_METRICS_H_
