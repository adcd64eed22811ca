// Distributed tracing: spans with parent/child ids stamped with virtual
// timestamps, propagated over the simulated wire.
//
// One TraceCollector is shared by every node of a cluster (owned by
// net::Cluster). A distributed query produces a tree:
//
//   distributed query (coordinator)
//     └─ task (coordinator, one per shard task; worker/shard-group attrs)
//          └─ worker execution (worker node, created when the request's
//             trace context reaches the remote session)
//
// Context crosses the wire as a "trace_id:span_id" string carried on
// net::Request; the worker session parses it and parents its span under
// the originating task span. Tracing is opt-in per query (EXPLAIN ANALYZE
// turns it on), so benches pay nothing.
#ifndef CITUSX_OBS_TRACE_H_
#define CITUSX_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace citusx::obs {

using SpanId = uint64_t;
using TraceId = uint64_t;

struct Span {
  SpanId id = 0;
  SpanId parent_id = 0;  // 0 for a root span
  TraceId trace_id = 0;
  std::string name;   // "distributed query", "task", "worker execution"
  std::string node;   // node that produced the span
  sim::Time start = 0;
  sim::Time end = 0;
  int64_t rows = -1;  // rows produced / affected, -1 if unknown
  std::map<std::string, std::string> attrs;  // worker, shard_group, sql, ...

  sim::Time duration() const { return end - start; }
};

class TraceCollector {
 public:
  TraceId NewTraceId();

  /// Opens a span; returns its id. `parent` is 0 for a root span.
  SpanId StartSpan(TraceId trace, SpanId parent, std::string name,
                   std::string node, sim::Time now);
  void SetAttr(SpanId span, const std::string& key, std::string value);
  void SetRows(SpanId span, int64_t rows);
  void EndSpan(SpanId span, sim::Time now);

  /// All spans of one trace, sorted by (start, id). Copies.
  std::vector<Span> TraceSpans(TraceId trace) const;

  /// Most recently allocated trace id (0 if none) — convenient for tests
  /// and for EXPLAIN ANALYZE rendering right after execution.
  TraceId last_trace_id() const;

  void Clear();

 private:
  uint64_t next_id_ = 1;
  TraceId last_trace_ = 0;
  std::map<SpanId, Span> spans_;
};

/// Wire encoding of (trace, span): "trace_id:span_id".
std::string FormatTraceContext(TraceId trace, SpanId span);
/// Returns false (leaving outputs untouched) if `s` is not a valid context.
bool ParseTraceContext(const std::string& s, TraceId* trace, SpanId* span);

}  // namespace citusx::obs

#endif  // CITUSX_OBS_TRACE_H_
