// Synthetic GitHub-Archive-style event stream (paper §4.2): JSON push
// events with commit messages, used by the real-time analytics
// microbenchmarks (COPY ingestion with a trigram index, dashboard ILIKE
// query, INSERT..SELECT pre-aggregation).
#ifndef CITUSX_WORKLOAD_GHARCHIVE_H_
#define CITUSX_WORKLOAD_GHARCHIVE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "net/cluster.h"

namespace citusx::workload {

struct GhArchiveConfig {
  /// Fraction of commit messages mentioning "postgres".
  double postgres_mention_pct = 0.02;
  int max_commits_per_push = 5;
  bool use_citus = true;
};

/// Create github_events (event_id text, data jsonb) and the trigram index
/// over the commit messages, exactly as in §4.2.
Status GhCreateSchema(net::Connection& conn, const GhArchiveConfig& config);

/// Rollup target for the INSERT..SELECT microbenchmark.
Status GhCreateCommitsTable(net::Connection& conn,
                            const GhArchiveConfig& config);

/// Generate `count` events for the given day as COPY rows (event_id, json).
/// With `postgres_commits`, also adds to it the commits of every push event
/// with a commit message that mentions postgres: the generator's own count
/// of what the dashboard query sums for the day.
std::vector<std::vector<std::string>> GhGenerateEvents(
    Rng& rng, const GhArchiveConfig& config, int64_t count, int year,
    int month, int day, int64_t* postgres_commits = nullptr);

/// The §4.2 dashboard query: commits mentioning postgres per day.
std::string GhDashboardQuery();

/// The §4.2 INSERT..SELECT transformation: extract commits from push events.
std::string GhTransformQuery();

}  // namespace citusx::workload

#endif  // CITUSX_WORKLOAD_GHARCHIVE_H_
