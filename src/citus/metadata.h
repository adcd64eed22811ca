// Citus metadata: distributed tables, shards, placements, co-location
// groups, and procedure-delegation records.
//
// The real extension stores these in catalog tables (pg_dist_partition,
// pg_dist_shard, pg_dist_placement, ...) replicated to workers when metadata
// syncing is enabled (§3.10, "Citus MX"). Each node's extension instance
// owns its own CitusMetadata copy: the coordinator's copy is the authority
// (the single writer), and worker copies are replicas maintained over the
// wire by metadata_sync.cc so that any node can coordinate distributed
// queries (§3.2.1). Two counters with distinct jobs track change:
//
//   generation       — node-local plan-invalidation counter. Bumped by any
//                      local event that can invalidate a cached distributed
//                      plan (authoritative DDL, a sync applying on a
//                      replica, a worker marked unreachable). Never
//                      compared across nodes.
//   cluster_version  — the authoritative metadata version. Only the
//                      authority increments it (BumpClusterVersion); a
//                      replica's copy holds the version it last applied via
//                      sync. Stamped onto every inter-node connection so a
//                      receiver can refuse work routed by a staler peer.
//
// Commit records (pg_dist_transaction) are the exception: they must commit
// atomically with the local transaction, so they live in a real engine
// table per node (see twophase.cc).
#ifndef CITUSX_CITUS_METADATA_H_
#define CITUSX_CITUS_METADATA_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str.h"
#include "sql/datum.h"

namespace citusx::citus {

/// One shard of a distributed table: a contiguous range of the int32 hash
/// space, placed on one worker (reference tables: full range, all workers).
struct ShardInterval {
  uint64_t shard_id = 0;
  int32_t min_hash = 0;
  int32_t max_hash = 0;
  std::string placement;  // worker node name
};

struct CitusTable {
  std::string name;
  bool is_reference = false;
  std::string dist_column;       // empty for reference tables
  int dist_col_index = -1;
  sql::TypeId dist_col_type = sql::TypeId::kNull;
  int colocation_id = 0;         // 0 for reference tables
  bool columnar_shards = false;
  std::vector<ShardInterval> shards;  // sorted by min_hash
  /// Worker nodes holding a replica (reference tables only).
  std::vector<std::string> replica_nodes;
  /// DDL applied after creation (indexes), replayed when creating new
  /// placements during shard moves.
  std::vector<std::string> post_ddl;
  /// Rough statistics maintained by the extension (row count), used by the
  /// join-order planner to pick broadcast vs repartition.
  int64_t approx_rows = 0;
  int64_t approx_bytes = 0;
  /// Cluster version at which this table last changed (authority side).
  /// Lets metadata sync ship only the tables newer than what the peer
  /// already applied instead of the full catalog every round.
  uint64_t modified_version = 0;

  std::string ShardName(uint64_t shard_id) const {
    return StrFormat("%s_%llu", name.c_str(),
                     static_cast<unsigned long long>(shard_id));
  }

  /// Position of the distribution column in an INSERT/COPY column list
  /// (its last occurrence, -1 if absent); dist_col_index when the list is
  /// empty.
  int DistColumnPosition(const std::vector<std::string>& columns) const {
    if (columns.empty()) return dist_col_index;
    int pos = -1;
    for (size_t i = 0; i < columns.size(); i++) {
      if (columns[i] == dist_column) pos = static_cast<int>(i);
    }
    return pos;
  }

  /// Index of the shard covering `hash`, or -1. Binary search over the
  /// min_hash-sorted intervals: find the last shard with min_hash <= hash,
  /// then confirm its max_hash covers it (ranges may have gaps).
  int ShardIndexForHash(int32_t hash) const {
    size_t lo = 0;
    size_t hi = shards.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (shards[mid].min_hash <= hash) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return -1;
    const ShardInterval& s = shards[lo - 1];
    return hash <= s.max_hash ? static_cast<int>(lo - 1) : -1;
  }

  /// Index of the shard holding distribution value `v`. The value is coerced
  /// to the column's type before it is hashed, so that it routes like the
  /// stored rows whatever type it arrived as (an int literal for a text
  /// column, say). Fails with the coercion's error, or when no shard covers
  /// the hash.
  Result<int> ShardIndexForValue(const sql::Datum& v) const {
    CITUSX_ASSIGN_OR_RETURN(sql::Datum coerced, v.CastTo(dist_col_type));
    int idx = ShardIndexForHash(coerced.PartitionHash());
    if (idx < 0) return Status::Internal("no shard for hash value");
    return idx;
  }
};

/// A stored procedure registered for worker delegation (§3.8).
struct DistributedProcedure {
  std::string name;
  int dist_arg_index = 0;           // which CALL argument is the dist key
  std::string colocated_table;      // placement follows this table's shards
};

class CitusMetadata {
 public:
  int default_shard_count = 32;

  CitusTable* Find(const std::string& name) {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
  }
  const CitusTable* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
  }

  Result<CitusTable*> Get(const std::string& name) {
    CitusTable* t = Find(name);
    if (t == nullptr) {
      return Status::NotFound("not a distributed table: " + name);
    }
    return t;
  }

  CitusTable* Add(CitusTable table) {
    generation_++;
    return &(tables_[table.name] = std::move(table));
  }

  void Remove(const std::string& name) {
    generation_++;
    tables_.erase(name);
  }

  /// Metadata generation, bumped by every change that can invalidate a
  /// cached distributed plan (DDL, create_distributed_table, shard moves,
  /// node add/remove). Plan-cache entries snapshot it and are discarded
  /// when it no longer matches.
  uint64_t generation() const {
    return generation_;
  }
  void BumpGeneration() {
    generation_++;
  }

  // --- MX metadata-sync state (§3.10) -----------------------------------

  /// Marks this copy as the cluster's metadata authority (the coordinator).
  /// The authority is born synced at version 1; replicas stay at version 0
  /// and unsynced until a sync round completes.
  void InitAuthority() {
    cluster_version_ = 1;
    mx_synced_ = true;
  }

  /// Authoritative metadata version of this copy: the version the authority
  /// has published, or the version a replica last applied.
  uint64_t cluster_version() const {
    return cluster_version_;
  }

  /// Authority-only: record a cluster-visible metadata change. Also bumps
  /// the local generation, since every authoritative change invalidates
  /// cached plans on this node too.
  void BumpClusterVersion() {
    generation_++;
    cluster_version_++;
  }

  /// Authority-only: stamp `table` as changed at the current version, so
  /// incremental sync ships it to peers that applied an older version.
  void TouchTable(CitusTable* table) {
    table->modified_version = cluster_version_;
  }

  /// Authority-only: record that `name` was dropped at the current version.
  /// Delta sync ships "drop X" to peers instead of a full name-list
  /// reconcile. The log is capped; DropLogCovers reports whether it still
  /// reaches back far enough for a given peer (if not, the peer gets a
  /// snapshot).
  void RecordTableDrop(const std::string& name) {
    dropped_log_.emplace_back(cluster_version_, name);
    while (dropped_log_.size() > kDropLogCap) {
      drop_log_floor_ = dropped_log_.front().first;
      dropped_log_.erase(dropped_log_.begin());
    }
  }
  std::vector<std::string> DroppedSince(uint64_t version) const {
    std::vector<std::string> out;
    for (const auto& [v, name] : dropped_log_) {
      if (v > version) out.push_back(name);
    }
    return out;
  }
  bool DropLogCovers(uint64_t version) const {
    return version >= drop_log_floor_;
  }

  /// Authority-only: stamp the worker list / procedure map as changed at
  /// the current version, so delta sync ships them only when they changed.
  void TouchWorkers() {
    workers_modified_version_ = cluster_version_;
  }
  uint64_t workers_modified_version() const {
    return workers_modified_version_;
  }
  void TouchProcedures() {
    procedures_modified_version_ = cluster_version_;
  }
  uint64_t procedures_modified_version() const {
    return procedures_modified_version_;
  }

  /// True once a replica has applied a complete sync (always true on the
  /// authority). Cleared on node restart, so a copy that may have missed
  /// changes while the node was down is never used for routing.
  bool mx_synced() const {
    return mx_synced_;
  }
  void set_mx_synced(bool synced) {
    mx_synced_ = synced;
  }

  /// Highest cluster version this node has ever observed, its own or
  /// stamped on an inbound peer connection. A replica whose own
  /// cluster_version falls below this watermark knows it is stale even
  /// before the authority re-syncs it.
  uint64_t known_cluster_version() const {
    return known_cluster_version_;
  }
  void NoteObservedVersion(uint64_t version) {
    known_cluster_version_ = std::max(known_cluster_version_, version);
  }

  /// Replica-side apply (ApplyMetadataDelta, metadata_sync.cc).
  /// ApplySyncedTable replaces one table in place (std::map node addresses
  /// are stable, so CitusTable pointers held across a yield by in-flight
  /// queries stay valid). ReconcileTables drops tables a snapshot does not
  /// list. FinishSync publishes the new version and bumps the generation
  /// once so cached plans built against the old copy are discarded.
  void ApplySyncedTable(CitusTable table) {
    tables_[table.name] = std::move(table);
  }
  void ReconcileTables(const std::set<std::string>& keep) {
    generation_ += std::erase_if(
        tables_, [&](const auto& kv) { return keep.count(kv.first) == 0; });
  }
  void FinishSync(uint64_t version) {
    cluster_version_ = version;
    known_cluster_version_ = std::max(known_cluster_version_, version);
    mx_synced_ = true;
    generation_++;
  }

  const std::map<std::string, CitusTable>& tables() const { return tables_; }
  std::map<std::string, CitusTable>& mutable_tables() { return tables_; }

  /// Worker node names (round-robin shard placement order).
  std::vector<std::string> workers;

  uint64_t NextShardId() {
    return next_shard_id_++;
  }
  int NextColocationId() {
    return next_colocation_id_++;
  }

  /// All tables in a co-location group.
  std::vector<CitusTable*> ColocatedTables(int colocation_id) {
    std::vector<CitusTable*> out;
    for (auto& [name, t] : tables_) {
      if (!t.is_reference && t.colocation_id == colocation_id) {
        out.push_back(&t);
      }
    }
    return out;
  }

  /// Find an existing co-location group compatible with (type, shard count),
  /// for implicit co-location. Returns 0 if none.
  int FindCompatibleColocation(sql::TypeId type, int shard_count) const {
    for (const auto& [name, t] : tables_) {
      if (!t.is_reference && t.dist_col_type == type &&
          static_cast<int>(t.shards.size()) == shard_count) {
        return t.colocation_id;
      }
    }
    return 0;
  }

  std::map<std::string, DistributedProcedure> procedures;

 private:
  std::map<std::string, CitusTable> tables_;
  uint64_t next_shard_id_ = 102008;
  int next_colocation_id_ = 1;
  uint64_t generation_ = 0;
  uint64_t cluster_version_ = 0;
  uint64_t known_cluster_version_ = 0;
  bool mx_synced_ = false;
  /// (version, table name) drops for delta sync; see RecordTableDrop.
  static constexpr size_t kDropLogCap = 256;
  std::vector<std::pair<uint64_t, std::string>> dropped_log_;
  uint64_t drop_log_floor_ = 0;
  uint64_t workers_modified_version_ = 0;
  uint64_t procedures_modified_version_ = 0;
};

/// Evenly divide the int32 hash space into `count` intervals.
std::vector<std::pair<int32_t, int32_t>> MakeHashIntervals(int count);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_METADATA_H_
