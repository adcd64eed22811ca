#include "workload/gharchive.h"

#include "common/str.h"

namespace citusx::workload {

namespace {

const char* kWords[] = {
    "fix",     "bug",      "update",  "readme",  "refactor", "test",
    "cleanup", "feature",  "merge",   "branch",  "release",  "patch",
    "docs",    "typo",     "improve", "remove",  "initial",  "commit",
    "parser",  "index",    "cache",   "query",   "database", "shard",
    "config",  "build",    "deploy",  "linter",  "format",   "rename"};

std::string CommitMessage(Rng& rng, bool mention_postgres) {
  std::string msg;
  int words = static_cast<int>(rng.Uniform(3, 9));
  for (int i = 0; i < words; i++) {
    if (i > 0) msg += " ";
    msg += kWords[rng.Uniform(0, 29)];
  }
  if (mention_postgres) {
    msg += rng.Chance(0.5) ? " postgres" : " PostgreSQL";
    msg += rng.Chance(0.3) ? " upgrade" : "";
  }
  return msg;
}

// Draws whether a commit message mentions postgres, and notes a mention.
bool DrawMention(Rng& rng, const GhArchiveConfig& config, bool* any) {
  bool mention = rng.Chance(config.postgres_mention_pct);
  *any = *any || mention;
  return mention;
}

}  // namespace

Status GhCreateSchema(net::Connection& conn, const GhArchiveConfig& config) {
  CITUSX_RETURN_IF_ERROR(
      conn.Query("CREATE TABLE github_events (event_id text PRIMARY KEY, "
                 "data jsonb)")
          .status());
  if (config.use_citus) {
    CITUSX_RETURN_IF_ERROR(
        conn.Query(
                "SELECT create_distributed_table('github_events', 'event_id')")
            .status());
  }
  // The pg_trgm GIN index over commit messages (§4.2).
  CITUSX_RETURN_IF_ERROR(
      conn.Query("CREATE INDEX text_search_idx ON github_events USING gin "
                 "((jsonb_path_query_array(data, "
                 "'$.payload.commits[*].message')::text) gin_trgm_ops)")
          .status());
  return Status::OK();
}

Status GhCreateCommitsTable(net::Connection& conn,
                            const GhArchiveConfig& config) {
  CITUSX_RETURN_IF_ERROR(
      conn.Query("CREATE TABLE push_commits (event_id text, day date, "
                 "n_commits bigint)")
          .status());
  if (config.use_citus) {
    CITUSX_RETURN_IF_ERROR(
        conn.Query("SELECT create_distributed_table('push_commits', "
                   "'event_id', colocate_with := 'github_events')")
            .status());
  }
  return Status::OK();
}

std::vector<std::vector<std::string>> GhGenerateEvents(
    Rng& rng, const GhArchiveConfig& config, int64_t count, int year,
    int month, int day, int64_t* postgres_commits) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; i++) {
    std::string event_id =
        StrFormat("%04d%02d%02d%010lld", year, month, day,
                  static_cast<long long>(rng.Next() % 10000000000LL));
    int hour = static_cast<int>(rng.Uniform(0, 23));
    int minute = static_cast<int>(rng.Uniform(0, 59));
    bool is_push = rng.Chance(0.6);
    std::string json = "{";
    json += StrFormat("\"type\":\"%s\",",
                      is_push ? "PushEvent" : "WatchEvent");
    json += StrFormat("\"created_at\":\"%04d-%02d-%02dT%02d:%02d:00Z\",",
                      year, month, day, hour, minute);
    json += StrFormat("\"actor\":{\"login\":\"user%lld\"},",
                      static_cast<long long>(rng.Uniform(1, 50000)));
    json += StrFormat("\"repo\":{\"name\":\"org%lld/repo%lld\"},",
                      static_cast<long long>(rng.Uniform(1, 5000)),
                      static_cast<long long>(rng.Uniform(1, 100)));
    json += "\"payload\":{";
    if (is_push) {
      int commits = static_cast<int>(
          rng.Uniform(1, config.max_commits_per_push));
      json += StrFormat("\"size\":%d,\"commits\":[", commits);
      bool mentions = false;
      for (int c = 0; c < commits; c++) {
        if (c > 0) json += ",";
        json += StrFormat(
            "{\"sha\":\"%016llx\",\"message\":\"%s\"}",
            static_cast<unsigned long long>(rng.Next()),
            CommitMessage(rng, DrawMention(rng, config, &mentions)).c_str());
      }
      json += "]";
      if (mentions && postgres_commits != nullptr) {
        *postgres_commits += commits;
      }
    } else {
      json += "\"action\":\"started\"";
    }
    json += "}}";
    rows.push_back({std::move(event_id), std::move(json)});
  }
  return rows;
}

std::string GhDashboardQuery() {
  // Verbatim shape from §4.2.
  return "SELECT (data->>'created_at')::date, "
         "sum(jsonb_array_length(data->'payload'->'commits')) "
         "FROM github_events WHERE jsonb_path_query_array(data, "
         "'$.payload.commits[*].message')::text ILIKE '%postgres%' "
         "GROUP BY 1 ORDER BY 1 ASC";
}

std::string GhTransformQuery() {
  // Extract per-push commit counts (the §4.2 data transformation).
  return "INSERT INTO push_commits SELECT event_id, "
         "(data->>'created_at')::date, "
         "jsonb_array_length(data->'payload'->'commits') "
         "FROM github_events WHERE data->>'type' = 'PushEvent'";
}

}  // namespace citusx::workload
