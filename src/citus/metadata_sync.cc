// Metadata syncing (§3.10, Citus MX): the authority-side sync driver and
// the JSON delta (de)serialization. See metadata_sync.h for the protocol
// and udf.cc for the worker-side internal UDF.
#include "citus/metadata_sync.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "citus/extension.h"
#include "sim/simulation.h"
#include "sql/json.h"

namespace citusx::citus {

namespace {

sql::JsonPtr Num(double v) { return sql::Json::MakeNumber(v); }
sql::JsonPtr Str(std::string s) { return sql::Json::MakeString(std::move(s)); }

sql::JsonPtr SerializeTable(const CitusTable& t) {
  std::vector<sql::JsonPtr> shards;
  shards.reserve(t.shards.size());
  for (const ShardInterval& s : t.shards) {
    shards.push_back(sql::Json::MakeObject({
        {"id", Num(static_cast<double>(s.shard_id))},
        {"min", Num(s.min_hash)},
        {"max", Num(s.max_hash)},
        {"placement", Str(s.placement)},
    }));
  }
  std::vector<sql::JsonPtr> replicas;
  replicas.reserve(t.replica_nodes.size());
  for (const std::string& r : t.replica_nodes) replicas.push_back(Str(r));
  std::vector<sql::JsonPtr> ddl;
  ddl.reserve(t.post_ddl.size());
  for (const std::string& d : t.post_ddl) ddl.push_back(Str(d));
  return sql::Json::MakeObject({
      {"name", Str(t.name)},
      {"is_reference", sql::Json::MakeBool(t.is_reference)},
      {"dist_column", Str(t.dist_column)},
      {"dist_col_index", Num(t.dist_col_index)},
      {"dist_col_type", Num(static_cast<double>(t.dist_col_type))},
      {"colocation_id", Num(t.colocation_id)},
      {"columnar_shards", sql::Json::MakeBool(t.columnar_shards)},
      {"approx_rows", Num(static_cast<double>(t.approx_rows))},
      {"approx_bytes", Num(static_cast<double>(t.approx_bytes))},
      {"modified_version", Num(static_cast<double>(t.modified_version))},
      {"shards", sql::Json::MakeArray(std::move(shards))},
      {"replica_nodes", sql::Json::MakeArray(std::move(replicas))},
      {"post_ddl", sql::Json::MakeArray(std::move(ddl))},
  });
}

// Field `key` of JSON object `obj`, required to be of `kind`.
Result<sql::JsonPtr> Field(const sql::JsonPtr& obj, const char* key,
                           sql::Json::Kind kind) {
  sql::JsonPtr v = obj->GetField(key);
  if (v == nullptr || v->kind() != kind) {
    return Status::InvalidArgument(
        StrFormat("metadata delta: missing or malformed field '%s'", key));
  }
  return v;
}

// Every number in the payload is an integer. JSON numbers are doubles, and
// converting one outside the integer range is undefined, so bound it first.
Result<int64_t> IntField(const sql::JsonPtr& obj, const char* key) {
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr v,
                          Field(obj, key, sql::Json::Kind::kNumber));
  const double d = v->number_value();
  if (!(std::fabs(d) <= 9007199254740992.0)) {  // 2^53; false for NaN
    return Status::InvalidArgument(
        StrFormat("metadata delta: field '%s' out of range", key));
  }
  return static_cast<int64_t>(d);
}

Result<std::string> StringField(const sql::JsonPtr& obj, const char* key) {
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr v,
                          Field(obj, key, sql::Json::Kind::kString));
  return v->string_value();
}

Result<bool> BoolField(const sql::JsonPtr& obj, const char* key) {
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr v,
                          Field(obj, key, sql::Json::Kind::kBool));
  return v->bool_value();
}

Result<std::vector<std::string>> StringArray(const sql::JsonPtr& obj,
                                             const char* key) {
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr arr,
                          Field(obj, key, sql::Json::Kind::kArray));
  std::vector<std::string> out;
  out.reserve(arr->array_items().size());
  for (const sql::JsonPtr& s : arr->array_items()) {
    if (s->kind() != sql::Json::Kind::kString) {
      return Status::InvalidArgument(
          StrFormat("metadata delta: non-string entry in '%s'", key));
    }
    out.push_back(s->string_value());
  }
  return out;
}

Result<CitusTable> DeserializeTable(const sql::JsonPtr& j) {
  CitusTable t;
  CITUSX_ASSIGN_OR_RETURN(t.name, StringField(j, "name"));
  CITUSX_ASSIGN_OR_RETURN(t.is_reference, BoolField(j, "is_reference"));
  CITUSX_ASSIGN_OR_RETURN(t.dist_column, StringField(j, "dist_column"));
  CITUSX_ASSIGN_OR_RETURN(int64_t idx, IntField(j, "dist_col_index"));
  CITUSX_ASSIGN_OR_RETURN(int64_t type, IntField(j, "dist_col_type"));
  CITUSX_ASSIGN_OR_RETURN(int64_t coloc, IntField(j, "colocation_id"));
  CITUSX_ASSIGN_OR_RETURN(t.columnar_shards, BoolField(j, "columnar_shards"));
  CITUSX_ASSIGN_OR_RETURN(t.approx_rows, IntField(j, "approx_rows"));
  CITUSX_ASSIGN_OR_RETURN(t.approx_bytes, IntField(j, "approx_bytes"));
  CITUSX_ASSIGN_OR_RETURN(int64_t modv, IntField(j, "modified_version"));
  t.dist_col_index = static_cast<int>(idx);
  t.dist_col_type = static_cast<sql::TypeId>(type);
  t.colocation_id = static_cast<int>(coloc);
  t.modified_version = static_cast<uint64_t>(modv);
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr shards,
                          Field(j, "shards", sql::Json::Kind::kArray));
  for (const sql::JsonPtr& s : shards->array_items()) {
    ShardInterval si;
    CITUSX_ASSIGN_OR_RETURN(int64_t id, IntField(s, "id"));
    CITUSX_ASSIGN_OR_RETURN(int64_t min, IntField(s, "min"));
    CITUSX_ASSIGN_OR_RETURN(int64_t max, IntField(s, "max"));
    CITUSX_ASSIGN_OR_RETURN(si.placement, StringField(s, "placement"));
    si.shard_id = static_cast<uint64_t>(id);
    si.min_hash = static_cast<int32_t>(min);
    si.max_hash = static_cast<int32_t>(max);
    t.shards.push_back(std::move(si));
  }
  CITUSX_ASSIGN_OR_RETURN(t.replica_nodes, StringArray(j, "replica_nodes"));
  CITUSX_ASSIGN_OR_RETURN(t.post_ddl, StringArray(j, "post_ddl"));
  return t;
}

/// A fully decoded delta: nothing is applied until all of it decoded.
struct MetadataDelta {
  uint64_t from = 0;
  uint64_t to = 0;
  int default_shard_count = 0;
  std::vector<CitusTable> tables;
  std::vector<std::string> dropped;
  std::optional<std::vector<std::string>> workers;
  std::optional<std::map<std::string, DistributedProcedure>> procedures;
};

Result<MetadataDelta> DecodeMetadataDelta(const std::string& json) {
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr payload, sql::Json::Parse(json));
  MetadataDelta d;
  CITUSX_ASSIGN_OR_RETURN(int64_t from, IntField(payload, "from"));
  CITUSX_ASSIGN_OR_RETURN(int64_t to, IntField(payload, "to"));
  CITUSX_ASSIGN_OR_RETURN(int64_t shard_count,
                          IntField(payload, "default_shard_count"));
  d.from = static_cast<uint64_t>(from);
  d.to = static_cast<uint64_t>(to);
  d.default_shard_count = static_cast<int>(shard_count);
  CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr tables,
                          Field(payload, "tables", sql::Json::Kind::kArray));
  for (const sql::JsonPtr& t : tables->array_items()) {
    CITUSX_ASSIGN_OR_RETURN(CitusTable table, DeserializeTable(t));
    d.tables.push_back(std::move(table));
  }
  CITUSX_ASSIGN_OR_RETURN(d.dropped, StringArray(payload, "dropped"));
  // A snapshot replaces the whole copy, so it must carry both sections; a
  // delta carries each only when it changed since the base.
  const bool snapshot = d.from == 0;
  if (snapshot || payload->GetField("workers") != nullptr) {
    CITUSX_ASSIGN_OR_RETURN(d.workers, StringArray(payload, "workers"));
  }
  if (snapshot || payload->GetField("procedures") != nullptr) {
    CITUSX_ASSIGN_OR_RETURN(
        sql::JsonPtr procedures,
        Field(payload, "procedures", sql::Json::Kind::kArray));
    d.procedures.emplace();
    for (const sql::JsonPtr& p : procedures->array_items()) {
      DistributedProcedure proc;
      CITUSX_ASSIGN_OR_RETURN(proc.name, StringField(p, "name"));
      CITUSX_ASSIGN_OR_RETURN(int64_t arg, IntField(p, "dist_arg_index"));
      CITUSX_ASSIGN_OR_RETURN(proc.colocated_table,
                              StringField(p, "colocated_table"));
      proc.dist_arg_index = static_cast<int>(arg);
      (*d.procedures)[proc.name] = std::move(proc);
    }
  }
  return d;
}

}  // namespace

std::string SerializeMetadataDelta(const CitusMetadata& md,
                                   uint64_t from_version) {
  const bool snapshot = from_version == 0;
  std::vector<sql::JsonPtr> tables;
  for (const auto& [name, t] : md.tables()) {
    // A table touched at version V is stamped modified_version = V, and a
    // peer that applied V already holds it.
    if (snapshot || t.modified_version > from_version) {
      tables.push_back(SerializeTable(t));
    }
  }
  // A snapshot needs no drop list: the receiver drops whatever it does not
  // list.
  std::vector<sql::JsonPtr> dropped;
  if (!snapshot) {
    for (const std::string& name : md.DroppedSince(from_version)) {
      dropped.push_back(Str(name));
    }
  }
  std::vector<std::pair<std::string, sql::JsonPtr>> fields = {
      {"from", Num(static_cast<double>(from_version))},
      {"to", Num(static_cast<double>(md.cluster_version()))},
      {"default_shard_count", Num(md.default_shard_count)},
      {"tables", sql::Json::MakeArray(std::move(tables))},
      {"dropped", sql::Json::MakeArray(std::move(dropped))},
  };
  // Workers and procedures ride along in a delta only when they actually
  // changed — the worker list alone is O(cluster size), which is exactly
  // the factor delta sync exists to avoid shipping N times per change.
  if (snapshot || md.workers_modified_version() > from_version) {
    std::vector<sql::JsonPtr> workers;
    workers.reserve(md.workers.size());
    for (const std::string& w : md.workers) workers.push_back(Str(w));
    fields.emplace_back("workers", sql::Json::MakeArray(std::move(workers)));
  }
  if (snapshot || md.procedures_modified_version() > from_version) {
    std::vector<sql::JsonPtr> procedures;
    for (const auto& [name, p] : md.procedures) {
      procedures.push_back(sql::Json::MakeObject({
          {"name", Str(p.name)},
          {"dist_arg_index", Num(p.dist_arg_index)},
          {"colocated_table", Str(p.colocated_table)},
      }));
    }
    fields.emplace_back("procedures",
                        sql::Json::MakeArray(std::move(procedures)));
  }
  return sql::Json::MakeObject(std::move(fields))->ToString();
}

Status ApplyMetadataDelta(CitusExtension* ext, const std::string& json) {
  CITUSX_ASSIGN_OR_RETURN(MetadataDelta delta, DecodeMetadataDelta(json));
  CitusMetadata& md = ext->metadata();
  // Validate, apply and publish with no yield in between: queries route by
  // this copy, so no process may see it half applied.
  sim::NoYieldScope no_yield;
  // A delta only composes on top of the exact base it was computed
  // against; anything else (missed round, restart, refused earlier delta)
  // needs a snapshot.
  if (delta.from > 0 &&
      (!md.mx_synced() || md.cluster_version() != delta.from)) {
    return Status::InvalidArgument(StrFormat(
        "metadata delta base mismatch: local copy at %llu (synced=%d), "
        "delta from %llu",
        static_cast<unsigned long long>(md.cluster_version()),
        md.mx_synced() ? 1 : 0, static_cast<unsigned long long>(delta.from)));
  }
  // Drops go first so a table dropped and re-created since the base
  // survives.
  md.default_shard_count = delta.default_shard_count;
  for (const std::string& name : delta.dropped) {
    md.Remove(name);
    ext->UnregisterShellTable(name);
  }
  if (delta.from == 0) {
    std::set<std::string> keep;
    for (const CitusTable& t : delta.tables) keep.insert(t.name);
    md.ReconcileTables(keep);
    ext->ReconcileShellTables(keep);
  }
  for (CitusTable& table : delta.tables) {
    // Every distributed table has a local shell on this node; record that
    // so a later stale window refuses to answer from the empty shell.
    ext->RegisterShellTable(table.name);
    md.ApplySyncedTable(std::move(table));
  }
  if (delta.workers) md.workers = std::move(*delta.workers);
  if (delta.procedures) md.procedures = std::move(*delta.procedures);
  md.FinishSync(delta.to);
  ext->metric_mx_sync_applied->Inc();
  return Status::OK();
}

Status CitusExtension::SyncMetadataToNode(const std::string& target,
                                          bool force) {
  if (!IsMetadataAuthority()) {
    return Status::NotSupported(
        "metadata sync must originate on the coordinator");
  }
  if (target == node_->name()) return Status::OK();
  engine::Node* target_node = directory_->Find(target);
  if (target_node == nullptr) {
    return Status::NotFound("unknown node: " + target);
  }
  const uint64_t version = metadata_->cluster_version();
  // Read before the round: a restart that lands mid-round leaves the
  // recorded epoch stale, so the peer stays pending and gets re-synced.
  const uint64_t epoch = target_node->restart_epoch();
  NodeSyncState& state = sync_states_[target];
  // Already current: nothing to ship. Without this, a sweep triggered by
  // one lagging peer (the maintenance daemon syncs all workers whenever
  // any is pending) would re-send the catalog to every current peer —
  // O(catalog x cluster) of pointless traffic at 128 nodes. The explicit
  // repair UDFs force a snapshot regardless.
  const bool same_epoch = state.synced && epoch == state.target_epoch;
  if (!force && same_epoch && state.version == version) return Status::OK();
  state.attempts++;
  metric_mx_sync_rounds->Inc();
  auto fire_hook = [&](MetadataSyncPoint point) -> Status {
    if (metadata_sync_fault_hook) return metadata_sync_fault_hook(target, point);
    return Status::OK();
  };
  // One round: ship the delta from `base` (0 = snapshot) in one round trip.
  uint64_t shipped = 0;
  auto ship = [&](uint64_t base) -> Status {
    CITUSX_RETURN_IF_ERROR(fire_hook(MetadataSyncPoint::kBeforeApply));
    CITUSX_ASSIGN_OR_RETURN(std::unique_ptr<net::Connection> conn,
                            directory_->Connect(node_, target));
    shipped = metadata_->cluster_version();
    const std::string payload = SerializeMetadataDelta(*metadata_, base);
    metric_mx_sync_bytes->Inc(static_cast<int64_t>(payload.size()));
    state.bytes_sent += static_cast<int64_t>(payload.size());
    Status applied =
        conn->Query("SELECT citus_internal_metadata_apply_delta(" +
                    QuoteSqlLiteral(payload) + ")")
            .status();
    state.round_trips++;  // a refused delta costs its round trip too
    CITUSX_RETURN_IF_ERROR(applied);
    return fire_hook(MetadataSyncPoint::kAfterApply);
  };
  // Delta: the peer is known-synced at an earlier version, has not
  // restarted since, and the drop log still reaches back to its base. Any
  // failure (most commonly a refused base after the peer missed a round)
  // falls back to a snapshot in the same call.
  uint64_t base = 0;
  if (!force && same_epoch && state.version > 0 && state.version < version &&
      metadata_->DropLogCovers(state.version)) {
    base = state.version;
  }
  Status status = ship(base);
  if (!status.ok() && base > 0) {
    base = 0;
    status = ship(base);
  }
  if (!status.ok()) {
    // The peer either never saw the round (its old copy is intact) or
    // applied it completely; either way it is pending until a later round
    // succeeds, and the maintenance daemon retries it.
    state.synced = false;
    metric_mx_sync_failures->Inc();
    return status;
  }
  state.version = shipped;
  state.target_epoch = epoch;
  state.synced = true;
  state.last_sync_time = node_->sim()->now();
  state.syncs++;
  if (base > 0) {
    state.delta_syncs++;
    metric_mx_delta_syncs->Inc();
  }
  return Status::OK();
}

Result<int> CitusExtension::SyncMetadataToWorkers(bool force) {
  if (!IsMetadataAuthority()) {
    return Status::NotSupported(
        "metadata sync must originate on the coordinator");
  }
  // One sweep at a time: each per-node sync yields (connect + round trips),
  // so on a large cluster the eager post-DDL sweep and the maintenance
  // daemon's repair pass can interleave and sync the same lagging peer
  // twice. Serialize rather than skip — a DDL that returned must mean its
  // peers are synced — then run our own pass anyway: peers the previous
  // sweep already brought current hit the early-out and cost nothing.
  while (sync_sweep_active_) {
    if (!node_->sim()->WaitFor(sim::kMillisecond)) return 0;  // shutdown
  }
  sync_sweep_active_ = true;
  int synced = 0;
  Status first_error = Status::OK();
  for (const std::string& worker : metadata_->workers) {
    if (worker == node_->name()) continue;
    Status status = SyncMetadataToNode(worker, force);
    if (status.ok()) {
      synced++;
    } else if (first_error.ok()) {
      first_error = status;
    }
  }
  sync_sweep_active_ = false;
  // Partial success is success: reachable nodes are current, unreachable
  // ones are marked unsynced and the maintenance daemon retries them. Only
  // a round that synced nobody while someone failed reports the error.
  if (synced == 0 && !first_error.ok() && !metadata_->workers.empty()) {
    return first_error;
  }
  return synced;
}

void CitusExtension::MaybeSyncMetadata() {
  if (!IsMetadataAuthority() || !config_.enable_metadata_sync) return;
  CITUSX_IGNORE_STATUS(
      SyncMetadataToWorkers().status(),
      "auto-sync after a metadata change is best-effort; nodes that "
      "missed it are unsynced and the maintenance daemon retries them");
}

bool CitusExtension::AnyMetadataSyncPending() const {
  if (!IsMetadataAuthority()) return false;
  const uint64_t version = metadata_->cluster_version();
  for (const std::string& worker : metadata_->workers) {
    if (worker == node_->name()) continue;
    auto it = sync_states_.find(worker);
    if (it == sync_states_.end()) return true;
    const NodeSyncState& state = it->second;
    if (!state.synced || state.version != version) return true;
    engine::Node* target = directory_->Find(worker);
    if (target != nullptr && target->restart_epoch() != state.target_epoch) {
      // The node restarted since we synced it: its in-memory synced marker
      // was cleared on restart, so it refuses MX routing until re-synced.
      return true;
    }
  }
  return false;
}

Status CitusExtension::StampPeerMetadataVersion(WorkerConnection* wc) {
  const uint64_t version = metadata_->cluster_version();
  if (wc->stamped_version == version) return Status::OK();
  CITUSX_RETURN_IF_ERROR(
      wc->conn
          ->Query("SET citus.metadata_peer_version = '" +
                  std::to_string(version) + "'")
          .status());
  wc->stamped_version = version;
  return Status::OK();
}

Status CitusExtension::CheckPeerMetadataVersion(engine::Session& session) {
  const std::string& var = session.GetVar("citus.metadata_peer_version");
  if (var.empty()) return Status::OK();
  CitusSessionState& state = SessionState(session);
  if (state.peer_version_str != var) {
    state.peer_version_str = var;
    state.peer_version = std::strtoull(var.c_str(), nullptr, 10);
  }
  metadata_->NoteObservedVersion(state.peer_version);
  if (state.peer_version < metadata_->cluster_version()) {
    // The sending peer routed this statement with catalogs older than ours
    // — its shard placements may be wrong (e.g. a shard we moved away).
    // Reject retryably; the peer re-plans once it has been re-synced.
    return MxStaleRejection(StrFormat(
        "peer version %llu behind %s version %llu",
        static_cast<unsigned long long>(state.peer_version),
        node_->name().c_str(),
        static_cast<unsigned long long>(metadata_->cluster_version())));
  }
  return Status::OK();
}

Status CitusExtension::MxStaleRejection(const std::string& detail) {
  metric_mx_rejections->Inc();
  return Status::Aborted(StrFormat(
      "%s: %s; retry after metadata sync", kStaleMetadataError,
      detail.c_str()));
}

}  // namespace citusx::citus
