// Cluster fault injection: the cluster timing simulator folds seeded worker
// failures into the BSP timeline, replays them deterministically, and
// validates its fault model.
#include <gtest/gtest.h>

#include "cluster/simulator.hpp"

namespace spnl {
namespace {

BspResult tiny_job(std::size_t supersteps) {
  BspResult job;
  for (std::size_t s = 0; s < supersteps; ++s) {
    job.traffic.push_back({1000, 200, 100, 0});  // 2x2 row-major
    job.compute.push_back({1200, 100});
  }
  return job;
}

TEST(ClusterFaults, FailuresExtendTheTimeline) {
  const BspResult job = tiny_job(20);
  ClusterModel model;
  ClusterFaultModel faults;
  faults.failure_prob = 0.5;
  faults.recovery_seconds = 1.0;
  const auto clean = simulate_cluster(job, 2, model);
  const auto faulty = simulate_cluster(job, 2, model, faults);
  EXPECT_GT(faulty.worker_failures, 0u);
  EXPECT_GT(faulty.recovery_seconds, 0.0);
  EXPECT_GT(faulty.total_seconds, clean.total_seconds);
  // Same seed -> same timeline.
  const auto replay = simulate_cluster(job, 2, model, faults);
  EXPECT_EQ(replay.worker_failures, faulty.worker_failures);
  EXPECT_DOUBLE_EQ(replay.total_seconds, faulty.total_seconds);
}

TEST(ClusterFaults, ZeroProbabilityMatchesCleanTimeline) {
  const BspResult job = tiny_job(5);
  const auto clean = simulate_cluster(job, 2, ClusterModel{});
  const auto zero = simulate_cluster(job, 2, ClusterModel{}, ClusterFaultModel{});
  EXPECT_DOUBLE_EQ(zero.total_seconds, clean.total_seconds);
  EXPECT_EQ(zero.worker_failures, 0u);
}

TEST(ClusterFaults, FaultModelValidated) {
  const BspResult job = tiny_job(1);
  ClusterFaultModel bad;
  bad.failure_prob = 2.0;
  EXPECT_THROW(simulate_cluster(job, 2, ClusterModel{}, bad), std::invalid_argument);
  bad.failure_prob = 0.1;
  bad.recovery_seconds = -1.0;
  EXPECT_THROW(simulate_cluster(job, 2, ClusterModel{}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace spnl
