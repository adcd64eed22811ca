#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

namespace citusx::obs {

TraceId TraceCollector::NewTraceId() {
  last_trace_ = next_id_++;
  return last_trace_;
}

SpanId TraceCollector::StartSpan(TraceId trace, SpanId parent,
                                 std::string name, std::string node,
                                 sim::Time now) {
  SpanId id = next_id_++;
  Span& span = spans_[id];
  span.id = id;
  span.parent_id = parent;
  span.trace_id = trace;
  span.name = std::move(name);
  span.node = std::move(node);
  span.start = now;
  span.end = now;
  return id;
}

void TraceCollector::SetAttr(SpanId span, const std::string& key,
                             std::string value) {
  auto it = spans_.find(span);
  if (it != spans_.end()) it->second.attrs[key] = std::move(value);
}

void TraceCollector::SetRows(SpanId span, int64_t rows) {
  auto it = spans_.find(span);
  if (it != spans_.end()) it->second.rows = rows;
}

void TraceCollector::EndSpan(SpanId span, sim::Time now) {
  auto it = spans_.find(span);
  if (it != spans_.end()) it->second.end = now;
}

std::vector<Span> TraceCollector::TraceSpans(TraceId trace) const {
  std::vector<Span> out;
  for (const auto& [id, span] : spans_) {
    if (span.trace_id == trace) out.push_back(span);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return out;
}

TraceId TraceCollector::last_trace_id() const {
  return last_trace_;
}

void TraceCollector::Clear() {
  spans_.clear();
}

std::string FormatTraceContext(TraceId trace, SpanId span) {
  return std::to_string(trace) + ":" + std::to_string(span);
}

bool ParseTraceContext(const std::string& s, TraceId* trace, SpanId* span) {
  size_t colon = s.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  char* end = nullptr;
  uint64_t t = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + colon) return false;
  uint64_t p = std::strtoull(s.c_str() + colon + 1, &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *trace = t;
  *span = p;
  return true;
}

}  // namespace citusx::obs
