#include "obs/metrics.h"

#include <algorithm>

#include "sim/simulation.h"

namespace citusx::obs {

Counter* Metrics::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Metrics::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Metrics::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricSample> Metrics::Snapshot() const {
  sim::NoYieldScope no_yield;
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.value = h->count();
    s.sum = h->sum();
    s.p50 = h->Percentile(50);
    s.p95 = h->Percentile(95);
    s.p99 = h->Percentile(99);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

int64_t Metrics::CounterValue(const std::string& name) const {
  sim::NoYieldScope no_yield;
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

}  // namespace citusx::obs
