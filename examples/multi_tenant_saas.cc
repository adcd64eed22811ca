// Multi-tenant SaaS example (paper §2.1): a shared-schema SaaS data model
// distributed by tenant id, with co-located joins, reference tables, routed
// tenant transactions, a cross-tenant analytical query, and a noisy-tenant
// shard move.
#include <cstdio>

#include "citus/deploy.h"
#include "citus/rebalancer.h"
#include "common/str.h"

using namespace citusx;

namespace {

engine::QueryResult Run(net::Connection& conn, const std::string& sql) {
  auto r = conn.Query(sql);
  if (!r.ok()) {
    std::printf("!! %s\n   %s\n", sql.c_str(), r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace

int main() {
  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 4;
  citus::Deployment deploy(&sim, options);

  sim.Spawn("saas_app", [&] {
    auto conn_r = deploy.Connect();
    if (!conn_r.ok()) return;
    net::Connection& conn = **conn_r;

    // A classic SaaS schema: everything carries tenant_id and is co-located,
    // plans are shared across tenants (reference table).
    Run(conn,
        "CREATE TABLE accounts (tenant_id bigint, user_id bigint, email text, "
        "settings jsonb, PRIMARY KEY (tenant_id, user_id))");
    Run(conn,
        "CREATE TABLE projects (tenant_id bigint, project_id bigint, "
        "owner_id bigint, name text, PRIMARY KEY (tenant_id, project_id))");
    Run(conn,
        "CREATE TABLE tasks (tenant_id bigint, task_id bigint, "
        "project_id bigint, state text, hours double precision, "
        "PRIMARY KEY (tenant_id, task_id))");
    Run(conn, "CREATE TABLE plans (plan text PRIMARY KEY, max_projects bigint)");
    Run(conn, "SELECT create_distributed_table('accounts', 'tenant_id')");
    Run(conn,
        "SELECT create_distributed_table('projects', 'tenant_id', "
        "colocate_with := 'accounts')");
    Run(conn,
        "SELECT create_distributed_table('tasks', 'tenant_id', "
        "colocate_with := 'accounts')");
    Run(conn, "SELECT create_reference_table('plans')");
    Run(conn, "INSERT INTO plans VALUES ('free', 3), ('pro', 100)");

    // Onboard tenants: the per-tenant cost is one routed transaction.
    for (int t = 1; t <= 20; t++) {
      Run(conn, "BEGIN");
      Run(conn, StrFormat("INSERT INTO accounts VALUES (%d, 1, 'admin@t%d.io', "
                          "'{\"theme\": \"dark\"}'::jsonb)", t, t));
      for (int p = 1; p <= 3; p++) {
        Run(conn, StrFormat("INSERT INTO projects VALUES (%d, %d, 1, 'proj%d')",
                            t, p, p));
        for (int k = 1; k <= 5; k++) {
          Run(conn, StrFormat(
                        "INSERT INTO tasks VALUES (%d, %d, %d, '%s', %d.5)", t,
                        p * 10 + k, p, k % 2 == 0 ? "done" : "open", k));
        }
      }
      Run(conn, "COMMIT");
    }
    std::printf("onboarded 20 tenants\n");

    // Tenant-scoped dashboard: arbitrarily complex SQL, routed to one node.
    auto dash = Run(conn,
                    "SELECT p.name, count(*), sum(t.hours) "
                    "FROM projects p JOIN tasks t ON p.tenant_id = t.tenant_id "
                    "AND p.project_id = t.project_id "
                    "WHERE p.tenant_id = 7 AND t.state = 'open' "
                    "GROUP BY p.name ORDER BY p.name");
    std::printf("tenant 7 open work:\n");
    for (const auto& row : dash.rows) {
      std::printf("  %-8s %lld tasks, %.1f hours\n",
                  row[0].ToText().c_str(),
                  static_cast<long long>(row[1].int_value()),
                  row[2].float_value());
    }

    // Cross-tenant analytics: a parallel co-located join over all shards.
    auto top = Run(conn,
                   "SELECT t.tenant_id, sum(t.hours) AS total "
                   "FROM tasks t GROUP BY t.tenant_id "
                   "ORDER BY total DESC LIMIT 3");
    std::printf("busiest tenants:\n");
    for (const auto& row : top.rows) {
      std::printf("  tenant %lld: %.1f hours\n",
                  static_cast<long long>(row[0].int_value()),
                  row[1].float_value());
    }

    // Tenant placement control (§2.1): move a noisy tenant's shard group.
    const citus::CitusTable* accounts = deploy.metadata().Find("accounts");
    int noisy_idx = accounts->ShardIndexForHash(
        sql::Datum::Int8(7).PartitionHash());
    const citus::ShardInterval& shard =
        accounts->shards[static_cast<size_t>(noisy_idx)];
    std::string target = shard.placement == "worker1" ? "worker2" : "worker1";
    auto session = deploy.coordinator()->OpenSession();
    citus::Rebalancer rebalancer(deploy.extension(deploy.coordinator()));
    Status moved = rebalancer.MoveShard(
        *session, shard.shard_id, shard.placement, target);
    std::printf("moved tenant 7's shard group to %s: %s (write-blocked %.1f ms)\n",
                target.c_str(), moved.ToString().c_str(),
                static_cast<double>(rebalancer.last_move_blocked_time) / 1e6);
    auto recheck = Run(conn,
                       "SELECT count(*) FROM tasks WHERE tenant_id = 7");
    std::printf("tenant 7 tasks after move: %lld\n",
                static_cast<long long>(recheck.rows[0][0].int_value()));
  });
  sim.Run();
  sim.Shutdown();
  return 0;
}
