// The GUC registry: the single place every citus.* session flag is
// declared, with its default and whether the executor must stamp it onto
// pooled worker connections.
//
// Mirrors PostgreSQL's DefineCustomStringVariable discipline: a GUC that is
// spelled ad hoc at SET/GetVar sites drifts (one typo and the worker silently
// runs with the default). cituslint's `guc-registry` rule enforces:
//   - every `citus.<flag>` string literal in src/ names a registered GUC
//     (metric names like citus.2pc.commits have a third dotted segment and
//     are covered by obs/metric_names.h instead);
//   - names are declared exactly once, with a default;
//   - every executor-visible GUC is stamped onto worker connections via a
//     `SET <name>` statement somewhere in src/ — a flag the coordinator
//     honors locally but never propagates is a routing bug (the worker
//     would plan with different semantics).
//
// The engine layer reads these flags through Session::GetVar by spelling
// the same literals (engine cannot include citus headers — layering); the
// lint rule keeps both spellings converged on this table.
//
// Keep one entry per line — cituslint parses this array lexically.
#ifndef CITUSX_CITUS_GUCS_H_
#define CITUSX_CITUS_GUCS_H_

#include <string_view>

namespace citusx::citus {

struct GucSpec {
  std::string_view name;           // full "citus.<flag>" spelling
  std::string_view default_value;  // value when the session never SET it
  bool executor_visible;  // stamped onto pooled worker connections via SET
};

inline constexpr GucSpec kCitusGucs[] = {
    {"citus.distributed_txid", "", true},
    {"citus.enable_repartition_joins", "on", false},
    {"citus.max_intermediate_result_size", "1048576", true},
    {"citus.metadata_peer_version", "0", true},
    {"citus.use_vectorized_executor", "on", true},
};

/// Registry lookup; returns nullptr for an unregistered name.
inline const GucSpec* FindGuc(std::string_view name) {
  for (const GucSpec& g : kCitusGucs) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

/// The value a session observes before any SET: the registered default.
inline std::string_view GucDefault(std::string_view name) {
  const GucSpec* g = FindGuc(name);
  return g == nullptr ? std::string_view{} : g->default_value;
}

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_GUCS_H_
