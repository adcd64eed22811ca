// Citus UDFs (§3.3): create_distributed_table, create_reference_table,
// co-location, procedure delegation registration, rebalancing entry points,
// and the consistent restore point.

#include "citus/metadata_sync.h"
#include "sim/channel.h"
#include "citus/planner.h"
#include "citus/rebalancer.h"
#include "engine/hooks.h"
#include "net/connection.h"
#include "sql/deparser.h"
#include "sql/json.h"

namespace citusx::citus {

namespace {

// Named-argument extraction: the parser encodes f(x := v) as a marker pair
// ("__named__x", v). Returns positional args + named map.
void SplitNamedArgs(const std::vector<sql::Datum>& args,
                    std::vector<sql::Datum>* positional,
                    std::map<std::string, sql::Datum>* named) {
  for (size_t i = 0; i < args.size(); i++) {
    const auto& a = args[i];
    if (a.type() == sql::TypeId::kText &&
        a.text_value().rfind("__named__", 0) == 0 && i + 1 < args.size()) {
      (*named)[a.text_value().substr(9)] = args[i + 1];
      i++;
    } else {
      positional->push_back(a);
    }
  }
}

// Propagate the (empty) shell table definition to all workers, so that any
// node can plan statements against the logical table (metadata syncing /
// every-node-a-coordinator mode, §3.2.1).
Status PropagateShellTable(CitusExtension* ext, engine::Session& session,
                           const std::string& table_name) {
  engine::TableInfo* shell = ext->node()->catalog().Find(table_name);
  if (shell == nullptr) return Status::NotFound("shell table missing");
  sql::Statement create;
  create.kind = sql::Statement::Kind::kCreateTable;
  create.create_table = std::make_shared<sql::CreateTableStmt>();
  create.create_table->table = table_name;
  create.create_table->schema = shell->schema();
  create.create_table->primary_key = shell->primary_key;
  create.create_table->if_not_exists = true;
  std::string ddl = sql::DeparseStatement(create);
  AdaptiveExecutor executor(ext);
  std::vector<Task> tasks;
  int index = 0;
  for (const auto& worker : ext->metadata().workers) {
    if (worker == ext->node()->name()) continue;
    Task t;
    t.index = index++;
    t.worker = worker;
    t.sql = ddl;
    t.is_write = true;
    tasks.push_back(std::move(t));
    // Record on the worker that this relation is a distributed-table shell,
    // so a worker with stale (or no) synced metadata refuses statements
    // against it instead of answering from the empty local relation.
    Task reg;
    reg.index = index++;
    reg.worker = worker;
    reg.sql = "SELECT citus_internal_register_shell('" + table_name + "')";
    reg.is_write = true;
    tasks.push_back(std::move(reg));
  }
  CITUSX_RETURN_IF_ERROR(
      executor.Execute(session, std::move(tasks)).status());
  return Status::OK();
}

// Create all shard placements for a new distributed table and stream any
// existing local rows into them.
Status CreateShards(CitusExtension* ext, engine::Session& session,
                    CitusTable* table) {
  AdaptiveExecutor executor(ext);
  std::vector<Task> tasks;
  int index = 0;
  for (size_t i = 0; i < table->shards.size(); i++) {
    CITUSX_ASSIGN_OR_RETURN(
        std::vector<std::string> ddl,
        ShardCreationDdl(ext->node(), *table, table->shards[i].shard_id));
    for (const auto& sql_text : ddl) {
      Task t;
      t.index = index++;
      t.worker = table->shards[i].placement;
      t.sql = sql_text;
      t.is_write = true;
      tasks.push_back(std::move(t));
    }
  }
  CITUSX_RETURN_IF_ERROR(
      executor.Execute(session, std::move(tasks)).status());
  return Status::OK();
}

// Move any pre-existing rows of the shell table into the shards, then empty
// the shell (the data now lives on the workers).
Status MigrateExistingRows(CitusExtension* ext, engine::Session& session,
                           CitusTable* table) {
  engine::TableInfo* shell = ext->node()->catalog().Find(table->name);
  if (shell == nullptr || shell->heap == nullptr) return Status::OK();
  if (shell->heap->num_rows() == 0) return Status::OK();
  engine::ExecContext ctx = session.MakeExecContext(nullptr);
  std::vector<std::vector<std::string>> rows;
  for (storage::RowId rid = 0; rid < shell->heap->num_rows(); rid++) {
    const storage::TupleVersion* v =
        shell->heap->VisibleVersion(rid, ctx.snapshot, ctx.txns[0]);
    if (v == nullptr) continue;
    std::vector<std::string> fields;
    for (const auto& d : v->row) {
      fields.push_back(d.is_null() ? "\\N" : d.ToText());
    }
    rows.push_back(std::move(fields));
  }
  sql::CopyStmt copy;
  copy.table = table->name;
  CITUSX_RETURN_IF_ERROR(
      ProcessDistributedCopy(ext, session, copy, rows).status());
  shell->heap->Truncate();
  for (auto& idx : shell->indexes) {
    if (idx->btree) idx->btree->Truncate();
    if (idx->gin) idx->gin->Truncate();
  }
  return Status::OK();
}

}  // namespace

void CitusExtension::RegisterUdfs() {
  auto& udfs = node_->hooks().udfs;
  CitusExtension* ext = this;

  udfs["create_distributed_table"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& raw_args) -> Result<sql::Datum> {
    std::vector<sql::Datum> args;
    std::map<std::string, sql::Datum> named;
    SplitNamedArgs(raw_args, &args, &named);
    if (args.size() < 2) {
      return Status::InvalidArgument(
          "create_distributed_table(table, distribution_column)");
    }
    std::string name = args[0].ToText();
    std::string dist_column = args[1].ToText();
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    if (ext->metadata().Find(name) != nullptr) {
      return Status::AlreadyExists("table is already distributed: " + name);
    }
    engine::TableInfo* shell = ext->node()->catalog().Find(name);
    if (shell == nullptr) {
      return Status::NotFound("relation \"" + name + "\" does not exist");
    }
    int dist_idx = shell->schema().FindColumn(dist_column);
    if (dist_idx < 0) {
      return Status::InvalidArgument("column \"" + dist_column +
                                     "\" does not exist");
    }
    if (ext->metadata().workers.empty()) {
      return Status::InvalidArgument("no worker nodes are registered");
    }
    CitusTable table;
    table.name = name;
    table.dist_column = dist_column;
    table.dist_col_index = dist_idx;
    table.dist_col_type =
        shell->schema().columns[static_cast<size_t>(dist_idx)].type;
    table.columnar_shards =
        session.GetVar("citusx.shard_access_method") == "columnar";

    int shard_count = ext->metadata().default_shard_count;
    const CitusTable* colocate_with = nullptr;
    auto cw = named.find("colocate_with");
    if (cw != named.end() && cw->second.ToText() != "none" &&
        cw->second.ToText() != "default") {
      colocate_with = ext->metadata().Find(cw->second.ToText());
      if (colocate_with == nullptr) {
        return Status::NotFound("colocate_with table does not exist: " +
                                cw->second.ToText());
      }
      if (colocate_with->dist_col_type != table.dist_col_type) {
        return Status::InvalidArgument(
            "cannot colocate tables with different distribution column "
            "types");
      }
    } else if (cw == named.end()) {
      // Implicit co-location by distribution column type (§3.3.2).
      int existing = ext->metadata().FindCompatibleColocation(
          table.dist_col_type, shard_count);
      if (existing != 0) {
        for (const auto& [n, t] : ext->metadata().tables()) {
          if (!t.is_reference && t.colocation_id == existing) {
            colocate_with = &t;
            break;
          }
        }
      }
    }
    if (colocate_with != nullptr) {
      table.colocation_id = colocate_with->colocation_id;
      for (const auto& s : colocate_with->shards) {
        ShardInterval si;
        si.shard_id = ext->metadata().NextShardId();
        si.min_hash = s.min_hash;
        si.max_hash = s.max_hash;
        si.placement = s.placement;
        table.shards.push_back(si);
      }
    } else {
      table.colocation_id = ext->metadata().NextColocationId();
      auto intervals = MakeHashIntervals(shard_count);
      const auto& workers = ext->metadata().workers;
      for (size_t i = 0; i < intervals.size(); i++) {
        ShardInterval si;
        si.shard_id = ext->metadata().NextShardId();
        si.min_hash = intervals[i].first;
        si.max_hash = intervals[i].second;
        si.placement = workers[i % workers.size()];  // round robin (§3.3.1)
        table.shards.push_back(si);
      }
    }
    CitusTable* stored = ext->metadata().Add(std::move(table));
    ext->metadata().BumpClusterVersion();
    ext->metadata().TouchTable(stored);
    CITUSX_RETURN_IF_ERROR(PropagateShellTable(ext, session, stored->name));
    CITUSX_RETURN_IF_ERROR(CreateShards(ext, session, stored));
    CITUSX_RETURN_IF_ERROR(MigrateExistingRows(ext, session, stored));
    ext->MaybeSyncMetadata();
    return sql::Datum::Null();
  };

  udfs["create_reference_table"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.size() != 1) {
      return Status::InvalidArgument("create_reference_table(table)");
    }
    std::string name = args[0].ToText();
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    if (ext->metadata().Find(name) != nullptr) {
      return Status::AlreadyExists("table is already distributed: " + name);
    }
    engine::TableInfo* shell = ext->node()->catalog().Find(name);
    if (shell == nullptr) {
      return Status::NotFound("relation \"" + name + "\" does not exist");
    }
    CitusTable table;
    table.name = name;
    table.is_reference = true;
    ShardInterval si;
    si.shard_id = ext->metadata().NextShardId();
    si.min_hash = INT32_MIN;
    si.max_hash = INT32_MAX;
    table.shards.push_back(si);
    // Replicated to all nodes, including the coordinator (§3.3.3).
    table.replica_nodes = ext->metadata().workers;
    bool coord_listed = false;
    for (const auto& w : table.replica_nodes) {
      coord_listed |= w == ext->node()->name();
    }
    if (!coord_listed) table.replica_nodes.push_back(ext->node()->name());
    CitusTable* stored = ext->metadata().Add(std::move(table));
    ext->metadata().BumpClusterVersion();
    ext->metadata().TouchTable(stored);
    CITUSX_RETURN_IF_ERROR(PropagateShellTable(ext, session, stored->name));
    // Create the replica shard on every node.
    AdaptiveExecutor executor(ext);
    std::vector<Task> tasks;
    int index = 0;
    for (const auto& node_name : stored->replica_nodes) {
      CITUSX_ASSIGN_OR_RETURN(
          std::vector<std::string> ddl,
          ShardCreationDdl(ext->node(), *stored, stored->shards[0].shard_id));
      for (const auto& sql_text : ddl) {
        Task t;
        t.index = index++;
        t.worker = node_name;
        t.sql = sql_text;
        t.is_write = true;
        tasks.push_back(std::move(t));
      }
    }
    CITUSX_RETURN_IF_ERROR(
        executor.Execute(session, std::move(tasks)).status());
    CITUSX_RETURN_IF_ERROR(MigrateExistingRows(ext, session, stored));
    ext->MaybeSyncMetadata();
    return sql::Datum::Null();
  };

  udfs["create_distributed_procedure"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.size() != 3) {
      return Status::InvalidArgument(
          "create_distributed_procedure(name, dist_arg_index, table)");
    }
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    DistributedProcedure proc;
    proc.name = args[0].ToText();
    proc.dist_arg_index = static_cast<int>(args[1].AsInt64());
    proc.colocated_table = args[2].ToText();
    if (ext->metadata().Find(proc.colocated_table) == nullptr) {
      return Status::NotFound("table does not exist: " + proc.colocated_table);
    }
    ext->metadata().procedures[proc.name] = proc;
    ext->metadata().BumpClusterVersion();
    ext->metadata().TouchProcedures();
    ext->MaybeSyncMetadata();
    return sql::Datum::Null();
  };

  udfs["rebalance_table_shards"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    RebalanceStrategy strategy = RebalanceStrategy::kByShardCount;
    if (!args.empty() && args[0].ToText() == "by_disk_size") {
      strategy = RebalanceStrategy::kByDiskSize;
    }
    Rebalancer rebalancer(ext);
    CITUSX_ASSIGN_OR_RETURN(int moves, rebalancer.Rebalance(session, strategy));
    return sql::Datum::Int8(moves);
  };

  udfs["citus_move_shard_placement"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.size() != 3) {
      return Status::InvalidArgument(
          "citus_move_shard_placement(shard_id, source, target)");
    }
    Rebalancer rebalancer(ext);
    CITUSX_RETURN_IF_ERROR(rebalancer.MoveShard(
        session, static_cast<uint64_t>(args[0].AsInt64()), args[1].ToText(),
        args[2].ToText()));
    return sql::Datum::Null();
  };

  udfs["citus_add_node"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) return Status::InvalidArgument("citus_add_node(name)");
    std::string name = args[0].ToText();
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    if (ext->directory().Find(name) == nullptr) {
      return Status::NotFound("unknown node: " + name);
    }
    for (const auto& w : ext->metadata().workers) {
      if (w == name) {
        return Status::AlreadyExists("node is already registered: " + name);
      }
    }
    ext->metadata().workers.push_back(name);
    ext->metadata().BumpClusterVersion();
    ext->metadata().TouchWorkers();
    // Sync schema to the new node: shells for every Citus table, plus a
    // replica of every reference table. Shards move only when the user
    // rebalances (§3.4).
    AdaptiveExecutor executor(ext);
    for (auto& [tname, table] : ext->metadata().mutable_tables()) {
      CITUSX_RETURN_IF_ERROR(PropagateShellTable(ext, session, tname));
      if (table.is_reference) {
        CITUSX_ASSIGN_OR_RETURN(
            std::vector<std::string> ddl,
            ShardCreationDdl(ext->node(), table, table.shards[0].shard_id));
        std::vector<Task> tasks;
        int index = 0;
        for (const auto& sql_text : ddl) {
          Task t;
          t.index = index++;
          t.worker = name;
          t.sql = sql_text;
          t.is_write = true;
          tasks.push_back(std::move(t));
        }
        CITUSX_RETURN_IF_ERROR(
            executor.Execute(session, std::move(tasks)).status());
        // Backfill the replica from the coordinator's replica shard.
        std::string shard = table.ShardName(table.shards[0].shard_id);
        engine::TableInfo* local = ext->node()->catalog().Find(shard);
        if (local != nullptr && local->heap != nullptr &&
            local->heap->num_rows() > 0) {
          engine::ExecContext ctx = session.MakeExecContext(nullptr);
          std::vector<std::vector<std::string>> rows;
          for (storage::RowId rid = 0; rid < local->heap->num_rows(); rid++) {
            const storage::TupleVersion* v =
                local->heap->VisibleVersion(rid, ctx.snapshot, *ctx.txns);
            if (v == nullptr) continue;
            std::vector<std::string> fields;
            for (const auto& datum : v->row) {
              fields.push_back(datum.is_null() ? "\\N" : datum.ToText());
            }
            rows.push_back(std::move(fields));
          }
          CITUSX_ASSIGN_OR_RETURN(WorkerConnection * wc,
                                  ext->GetConnection(session, name, {0, -1}));
          CITUSX_RETURN_IF_ERROR(
              wc->conn->CopyIn(shard, {}, std::move(rows)).status());
        }
        table.replica_nodes.push_back(name);
        ext->metadata().TouchTable(&table);
      }
    }
    // Push full metadata to every node (including the new one) so any of
    // them can start coordinating immediately.
    ext->MaybeSyncMetadata();
    return sql::Datum::Null();
  };

  udfs["citus_remove_node"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) return Status::InvalidArgument("citus_remove_node(name)");
    std::string name = args[0].ToText();
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    auto& workers = ext->metadata().workers;
    bool registered = false;
    for (const auto& w : workers) registered |= w == name;
    if (!registered) {
      return Status::NotFound("node is not registered: " + name);
    }
    // Refuse while the node still holds shard placements; the user must
    // drain it first (rebalance / citus_move_shard_placement).
    for (const auto& [tname, table] : ext->metadata().tables()) {
      if (table.is_reference) continue;
      for (const auto& shard : table.shards) {
        if (shard.placement == name) {
          return Status::InvalidArgument(
              "cannot remove node " + name + ": it still holds placements of " +
              tname + " (drain it with rebalance_table_shards first)");
        }
      }
    }
    // Drop reference-table replicas living on the node, then forget it.
    // The version bump precedes the per-table touches below so incremental
    // sync ships the shrunken replica lists.
    ext->metadata().BumpClusterVersion();
    ext->metadata().TouchWorkers();
    AdaptiveExecutor executor(ext);
    for (auto& [tname, table] : ext->metadata().mutable_tables()) {
      if (!table.is_reference) continue;
      auto& replicas = table.replica_nodes;
      bool had_replica = false;
      for (auto it = replicas.begin(); it != replicas.end();) {
        if (*it == name) {
          had_replica = true;
          it = replicas.erase(it);
        } else {
          ++it;
        }
      }
      if (had_replica) {
        Task t;
        t.worker = name;
        t.sql = "DROP TABLE IF EXISTS " +
                table.ShardName(table.shards[0].shard_id);
        t.is_write = true;
        std::vector<Task> tasks;
        tasks.push_back(std::move(t));
        CITUSX_RETURN_IF_ERROR(
            executor.Execute(session, std::move(tasks)).status());
        ext->metadata().TouchTable(&table);
      }
    }
    for (auto it = workers.begin(); it != workers.end();) {
      if (*it == name) {
        it = workers.erase(it);
      } else {
        ++it;
      }
    }
    ext->ForgetSyncState(name);
    ext->MaybeSyncMetadata();
    return sql::Datum::Null();
  };

  // ---- metadata syncing (§3.10, Citus MX) ----

  udfs["start_metadata_sync_to_node"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) {
      return Status::InvalidArgument("start_metadata_sync_to_node(name)");
    }
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    CITUSX_RETURN_IF_ERROR(
        ext->SyncMetadataToNode(args[0].ToText(), /*force=*/true));
    return sql::Datum::Null();
  };

  udfs["citus_sync_metadata"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (!ext->config().is_coordinator) {
      return Status::InvalidArgument(
          "operation is not allowed on a worker node");
    }
    CITUSX_ASSIGN_OR_RETURN(int synced,
                            ext->SyncMetadataToWorkers(/*force=*/true));
    return sql::Datum::Int8(synced);
  };

  // Internal sync UDF, invoked by the authority's syncer on the receiving
  // node (see metadata_sync.h for the protocol). Decodes and validates the
  // whole delta, checks its base, then applies and publishes it atomically;
  // any error leaves the copy untouched and the authority sends a snapshot.
  udfs["citus_internal_metadata_apply_delta"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) {
      return Status::InvalidArgument(
          "citus_internal_metadata_apply_delta(payload)");
    }
    CITUSX_RETURN_IF_ERROR(ApplyMetadataDelta(ext, args[0].ToText()));
    return sql::Datum::Null();
  };

  udfs["citus_internal_register_shell"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) {
      return Status::InvalidArgument("citus_internal_register_shell(table)");
    }
    ext->RegisterShellTable(args[0].ToText());
    return sql::Datum::Null();
  };

  // Worker-side repartition shuffle (join-order tier): read this worker's
  // local source shards, hash-bucket their rows by the join column against
  // the destination intervals, and ship each destination worker's bucket in
  // one COPY — the coordinator never touches tuple data. The spec is JSON:
  //   {srcs: [shard, ...], dest, col, type, dests: [{w, min, max}, ...]}
  // An empty col broadcasts every row to every destination. Returns the
  // shipped COPY-text bytes, checked against this worker's stamped
  // citus.max_intermediate_result_size.
  udfs["citus_internal_shuffle"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) {
      return Status::InvalidArgument("citus_internal_shuffle(spec_json)");
    }
    CITUSX_ASSIGN_OR_RETURN(sql::JsonPtr spec,
                            sql::Json::Parse(args[0].ToText()));
    sql::JsonPtr srcs = spec->GetField("srcs");
    sql::JsonPtr dest = spec->GetField("dest");
    sql::JsonPtr col = spec->GetField("col");
    sql::JsonPtr type = spec->GetField("type");
    sql::JsonPtr dests = spec->GetField("dests");
    if (srcs == nullptr || srcs->array_size() == 0 || dest == nullptr ||
        col == nullptr || type == nullptr || dests == nullptr ||
        dests->array_size() == 0) {
      return Status::InvalidArgument("malformed shuffle spec");
    }
    struct ShuffleDest {
      std::string worker;
      int32_t min_hash = 0;
      int32_t max_hash = 0;
    };
    std::vector<ShuffleDest> targets;
    for (int64_t i = 0; i < dests->array_size(); i++) {
      sql::JsonPtr d = dests->GetElement(i);
      sql::JsonPtr w = d == nullptr ? nullptr : d->GetField("w");
      if (w == nullptr) return Status::InvalidArgument("malformed shuffle spec");
      ShuffleDest sd;
      sd.worker = w->string_value();
      sql::JsonPtr mn = d->GetField("min");
      sql::JsonPtr mx = d->GetField("max");
      if (mn != nullptr) sd.min_hash = static_cast<int32_t>(mn->number_value());
      if (mx != nullptr) sd.max_hash = static_cast<int32_t>(mx->number_value());
      targets.push_back(std::move(sd));
    }

    const std::string key_col = col->string_value();
    sql::TypeId key_type =
        static_cast<sql::TypeId>(static_cast<int>(type->number_value()));

    // Read every local source shard and bucket rows across all of them.
    std::map<std::string, std::vector<std::vector<std::string>>> buckets;
    for (int64_t si = 0; si < srcs->array_size(); si++) {
      sql::JsonPtr src = srcs->GetElement(si);
      if (src == nullptr) {
        return Status::InvalidArgument("malformed shuffle spec");
      }
      sql::SelectStmt scan;
      sql::SelectItem star;
      star.expr = std::make_shared<sql::Expr>();
      star.expr->kind = sql::ExprKind::kStar;
      scan.targets.push_back(std::move(star));
      auto from = std::make_shared<sql::TableRef>();
      from->kind = sql::TableRef::Kind::kTable;
      from->name = src->string_value();
      scan.from.push_back(std::move(from));
      CITUSX_ASSIGN_OR_RETURN(engine::QueryResult rows,
                              engine::RunLocalSelect(session, scan, {}));

      int col_idx = -1;
      if (!key_col.empty()) {
        for (size_t i = 0; i < rows.column_names.size(); i++) {
          if (rows.column_names[i] == key_col) {
            col_idx = static_cast<int>(i);
            break;
          }
        }
        if (col_idx < 0) {
          return Status::Internal("shuffle column missing: " + key_col);
        }
      }
      for (const auto& row : rows.rows) {
        std::vector<std::string> fields = RowToCopyFields(row);
        if (col_idx < 0) {
          for (const auto& t : targets) buckets[t.worker].push_back(fields);
          continue;
        }
        const sql::Datum& key = row[static_cast<size_t>(col_idx)];
        // NULL / uncastable keys route to the first interval: they can
        // never match a join partner, but must land exactly once (LEFT
        // JOINs still NULL-extend them).
        size_t ti = 0;
        if (!key.is_null()) {
          auto coerced = key.CastTo(key_type);
          if (coerced.ok()) {
            int32_t h = coerced->PartitionHash();
            for (size_t i = 0; i < targets.size(); i++) {
              if (h >= targets[i].min_hash && h <= targets[i].max_hash) {
                ti = i;
                break;
              }
            }
          }
        }
        buckets[targets[ti].worker].push_back(std::move(fields));
      }
    }

    // Enforce this worker's stamped cap on its shipped share.
    int64_t total = 0;
    for (const auto& [w, rs] : buckets) total += CopyRowsBytes(rs);
    int64_t max_bytes = MaxIntermediateResultBytes(session);
    if (max_bytes >= 0 && total > max_bytes) {
      return Status::ResourceExhausted(
          "shuffle fragment exceeds citus.max_intermediate_result_size");
    }

    // Ship every bucket to its destination concurrently (including this
    // worker: loop-back connections keep the path uniform). Serial ships
    // would pay RTT + the receiver's COPY apply once per destination;
    // concurrent ships pay only the slowest one. Connections come from the
    // node's shuffle cache (a fresh connect_cost per destination on every
    // shuffle would cost more than a small shuffle's data path); a
    // connection that fails mid-COPY is destroyed, not recycled.
    sim::Simulation* sim = ext->node()->sim();
    auto ship_status = std::make_shared<std::vector<Status>>();
    auto ship_done = std::make_shared<sim::Channel<int>>(sim);
    const std::string dest_shard = dest->string_value();
    int inflight = 0;
    for (auto& [w, rs] : buckets) {
      if (rs.empty()) continue;
      inflight++;
      std::string worker = w;
      auto rows_out = std::make_shared<std::vector<std::vector<std::string>>>(
          std::move(rs));
      sim->Spawn(
          "citus:shuffle_ship",
          [ext, worker, rows_out, dest_shard, ship_status, ship_done] {
            Status st = Status::OK();
            Result<std::unique_ptr<net::Connection>> conn =
                ext->AcquireShuffleConnection(worker);
            if (!conn.ok()) {
              st = conn.status();
            } else {
              st = (*conn)->CopyIn(dest_shard, {}, std::move(*rows_out))
                       .status();
              if (st.ok()) {
                ext->ReleaseShuffleConnection(worker, std::move(*conn));
              }
            }
            ship_status->push_back(st);
            ship_done->Send(1);
          },
          /*daemon=*/true);
    }
    for (int i = 0; i < inflight; i++) {
      if (!ship_done->Receive().has_value()) {
        return Status::Cancelled("simulation stopping");
      }
    }
    for (const Status& st : *ship_status) {
      CITUSX_RETURN_IF_ERROR(st);
    }
    return sql::Datum::Int8(total);
  };

  udfs["citus_stat_statements_reset"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    ext->ResetStatStatements();
    return sql::Datum::Null();
  };

  udfs["citus_create_restore_point"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    // Block writes to the commit-records table while establishing the
    // restore point (§3.9): in-flight 2PCs finish, new ones wait.
    engine::TableInfo* records =
        ext->node()->catalog().Find(CitusExtension::kCommitRecordsTable);
    if (records == nullptr) return Status::Internal("no commit records table");
    CITUSX_RETURN_IF_ERROR(session.EnsureTxn());
    CITUSX_RETURN_IF_ERROR(ext->node()->locks().Acquire(
        engine::LockTag{records->oid, engine::LockTag::kTableRid},
        session.current_txn(), engine::LockMode::kExclusive));
    // The restore point is a WAL record on every node; charge a round of
    // WAL flushes.
    if (!ext->node()->sim()->WaitFor(ext->node()->cost().wal_flush)) {
      return Status::Cancelled("simulation stopping");
    }
    return sql::Datum::Text(args.empty() ? "restore_point"
                                         : args[0].ToText());
  };

  udfs["citus_table_size"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) return Status::InvalidArgument("citus_table_size(table)");
    CITUSX_ASSIGN_OR_RETURN(CitusTable * t,
                            ext->metadata().Get(args[0].ToText()));
    return sql::Datum::Int8(t->approx_bytes);
  };

  udfs["citus_shard_count"] =
      [ext](engine::Session& session,
            const std::vector<sql::Datum>& args) -> Result<sql::Datum> {
    if (args.empty()) return Status::InvalidArgument("citus_shard_count(table)");
    CITUSX_ASSIGN_OR_RETURN(CitusTable * t,
                            ext->metadata().Get(args[0].ToText()));
    return sql::Datum::Int8(static_cast<int64_t>(t->shards.size()));
  };
}

std::vector<std::pair<int32_t, int32_t>> MakeHashIntervals(int count) {
  std::vector<std::pair<int32_t, int32_t>> out;
  uint64_t span = (1ULL << 32) / static_cast<uint64_t>(count);
  int64_t lo = INT32_MIN;
  for (int i = 0; i < count; i++) {
    int64_t hi = i == count - 1
                     ? INT32_MAX
                     : lo + static_cast<int64_t>(span) - 1;
    out.emplace_back(static_cast<int32_t>(lo), static_cast<int32_t>(hi));
    lo = hi + 1;
  }
  return out;
}

}  // namespace citusx::citus
