#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace citusx::benchmark {

namespace {

// Length of [lo, hi) covered by the union of `intervals`.
int64_t Covered(int64_t lo, int64_t hi,
                std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0, reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

bool IsShardOf(const std::string& name, const std::string& table) {
  if (name == table) return true;
  if (name.size() <= table.size() + 1 || name.compare(0, table.size(), table) != 0 ||
      name[table.size()] != '_') {
    return false;
  }
  return std::all_of(name.begin() + static_cast<long>(table.size()) + 1,
                     name.end(), [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::map<std::string, int64_t> SumCounters(citus::Deployment& deploy) {
  std::map<std::string, int64_t> sums;
  net::Cluster& cluster = deploy.cluster();
  for (size_t i = 0; i < cluster.num_nodes(); i++) {
    for (const obs::MetricSample& s : cluster.node(i)->metrics().Snapshot()) {
      sums[s.name] +=
          s.kind == obs::MetricSample::Kind::kHistogram ? s.sum : s.value;
    }
  }
  return sums;
}

int64_t StoredBytes(citus::Deployment& deploy,
                    const std::vector<std::string>& tables) {
  int64_t bytes = 0;
  net::Cluster& cluster = deploy.cluster();
  for (size_t i = 0; i < cluster.num_nodes(); i++) {
    for (engine::TableInfo* t : cluster.node(i)->catalog().AllTables()) {
      if (std::none_of(tables.begin(), tables.end(), [&](const auto& name) {
            return IsShardOf(t->name, name);
          })) {
        continue;
      }
      bytes += t->data_bytes();
      for (const auto& index : t->indexes) {
        bytes += index->btree != nullptr ? index->btree->size_bytes()
                                         : index->gin->size_bytes();
      }
    }
  }
  return bytes;
}

SpanSplit SplitSpans(const std::vector<obs::Span>& spans) {
  SpanSplit split;
  const obs::Span* root = nullptr;
  const obs::Span* statement = nullptr;
  std::map<obs::SpanId, const obs::Span*> tasks;
  for (const obs::Span& s : spans) {
    if (s.parent_id == 0) root = &s;
    if (s.name == "task") tasks[s.id] = &s;
  }
  if (root == nullptr) return split;
  std::map<obs::SpanId, std::vector<std::pair<int64_t, int64_t>>> task_children;
  for (const obs::Span& s : spans) {
    if (s.name != "worker execution") continue;
    auto sql = s.attrs.find("sql");
    if (s.parent_id == root->id && statement == nullptr) {
      statement = &s;
      if (sql != s.attrs.end()) {
        split.client_sql = sql->second;
        split.statements.insert(split.statements.begin(), sql->second);
      }
      continue;
    }
    if (sql != s.attrs.end()) split.statements.push_back(sql->second);
    if (tasks.count(s.parent_id) > 0) {
      task_children[s.parent_id].emplace_back(s.start, s.end);
      split.worker += s.duration();
    }
  }
  // COPY has no statement span: its client round trip counts as the
  // coordinator's.
  const obs::Span& coordinator = statement != nullptr ? *statement : *root;
  std::vector<std::pair<int64_t, int64_t>> task_intervals;
  for (const auto& [id, task] : tasks) {
    task_intervals.emplace_back(task->start, task->end);
    split.wire += task->duration() - Covered(task->start, task->end,
                                             task_children[id]);
  }
  split.coordinator_self =
      coordinator.duration() -
      Covered(coordinator.start, coordinator.end, task_intervals);
  if (statement != nullptr) split.wire += root->duration() - statement->duration();
  return split;
}

double HandoffNs() {
  constexpr int kRounds = 10000;
  double best = 0;
  for (int r = 0; r < 5; r++) {
    sim::Simulation sim;
    for (int p = 0; p < 2; p++) {
      sim.Spawn("bench:pingpong", [&sim] {
        for (int i = 0; i < kRounds; i++) {
          if (!sim.WaitFor(1)) return;
        }
      });
    }
    uint64_t events = sim.events_processed();
    int64_t start = HostNs();
    sim.Run();
    int64_t host = HostNs() - start;
    events = sim.events_processed() - events;
    sim.Shutdown();
    double per_event = static_cast<double>(host) /
                       static_cast<double>(std::max<uint64_t>(events, 1));
    if (r == 0 || per_event < best) best = per_event;
  }
  return best;
}

int64_t FastestHostNs(int repeats, const std::function<void()>& fn) {
  int64_t best = INT64_MAX;
  for (int i = 0; i < repeats; i++) {
    int64_t start = HostNs();
    fn();
    best = std::min(best, HostNs() - start);
  }
  return best;
}

bool SpanLog::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::string& line : lines_) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace citusx::benchmark
