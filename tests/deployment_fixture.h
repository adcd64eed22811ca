// The gtest fixture of the tests that run SQL against a simulated Citus
// deployment: build the deployment, run a test body as a simulated process,
// run a statement that must succeed, and read a coordinator counter.
#ifndef CITUSX_TESTS_DEPLOYMENT_FIXTURE_H_
#define CITUSX_TESTS_DEPLOYMENT_FIXTURE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "citus/deploy.h"

namespace citusx::test {

class DeploymentTest : public ::testing::Test {
 protected:
  void Deploy(const citus::DeploymentOptions& options) {
    deploy_ = std::make_unique<citus::Deployment>(&sim_, options);
  }

  /// A coordinator and `workers` workers with default options.
  void MakeDeployment(int workers) {
    citus::DeploymentOptions options;
    options.num_workers = workers;
    Deploy(options);
  }

  /// Runs `fn` as a simulated process and drives the simulation until no
  /// event is left.
  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
  }

  engine::QueryResult MustQuery(net::Connection& conn,
                                const std::string& sql) {
    auto r = conn.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : engine::QueryResult{};
  }

  int64_t CoordCounter(const std::string& name) {
    return deploy_->coordinator()->metrics().CounterValue(name);
  }

  // The simulation stops before the deployment its processes use goes.
  void TearDown() override {
    sim_.Shutdown();
    deploy_.reset();
  }

  sim::Simulation sim_;
  std::unique_ptr<citus::Deployment> deploy_;
};

}  // namespace citusx::test

#endif  // CITUSX_TESTS_DEPLOYMENT_FIXTURE_H_
