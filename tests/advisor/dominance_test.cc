#include "advisor/dominance.h"

#include <chrono>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/resource_tracker.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

/// The fixture's problem with `extra` duplicates of existing member
/// configurations appended at the end — each duplicate is dominated by
/// its lower-id twin (identical cost vector, zero mutual transitions),
/// so pruning must eliminate exactly the appended tail.
DesignProblem WithDuplicates(const DesignProblem& problem, size_t extra) {
  DesignProblem out = problem;
  std::vector<Configuration> configs = problem.candidates.configs();
  const size_t base = configs.size();
  for (size_t i = 0; i < extra; ++i) {
    configs.push_back(configs[1 + (i % (base - 1))]);
  }
  out.candidates = configs;
  return out;
}

TEST(DominanceTest, DuplicatesArePrunedKeepingLowestId) {
  auto fixture = MakeRandomProblem(3, /*num_segments=*/6, /*block_size=*/10);
  const size_t base = fixture->problem.candidates.size();
  const DesignProblem problem = WithDuplicates(fixture->problem, 3);

  const DominanceResult result = PruneDominatedConfigs(problem);
  EXPECT_EQ(result.pruned, 3);
  ASSERT_EQ(result.survivors.size(), base);
  for (size_t i = 0; i < base; ++i) {
    EXPECT_EQ(result.survivors[i], static_cast<ConfigId>(i));
  }
}

TEST(DominanceTest, TrivialSpacesAreIdentity) {
  auto fixture = MakeRandomProblem(5, /*num_segments=*/4, /*block_size=*/10);
  DesignProblem problem = fixture->problem;
  problem.candidates = {problem.candidates[0]};
  const DominanceResult result = PruneDominatedConfigs(problem);
  EXPECT_EQ(result.pruned, 0);
  EXPECT_EQ(result.survivors, std::vector<ConfigId>{0});
}

TEST(DominanceTest, InitialConfigurationIsNeverPruned) {
  // A duplicate of the initial configuration would normally lose to
  // its lower-id twin, but the configuration equal to problem.initial
  // is exempt: with count_initial_change it is the only free start.
  auto fixture = MakeRandomProblem(7, /*num_segments=*/6, /*block_size=*/10);
  DesignProblem problem = fixture->problem;
  std::vector<Configuration> configs = problem.candidates.configs();
  const size_t base = configs.size();
  configs.push_back(configs[2]);            // Plain duplicate: pruned.
  configs.push_back(Configuration::Empty());  // Duplicate of initial: kept.
  problem.candidates = configs;
  ASSERT_EQ(problem.initial, Configuration::Empty());

  const DominanceResult result = PruneDominatedConfigs(problem);
  EXPECT_EQ(result.pruned, 1);
  ASSERT_EQ(result.survivors.size(), base + 1);
  EXPECT_EQ(result.survivors.back(), static_cast<ConfigId>(base + 1));
}

TEST(DominanceTest, ExpiredBudgetAcceptsRemainderUnpruned) {
  auto fixture = MakeRandomProblem(9, /*num_segments=*/6, /*block_size=*/10);
  const DesignProblem problem = WithDuplicates(fixture->problem, 4);
  const Budget expired(std::chrono::nanoseconds{0});
  const DominanceResult result =
      PruneDominatedConfigs(problem, nullptr, &expired);
  EXPECT_EQ(result.pruned, 0);
  EXPECT_EQ(result.survivors.size(), problem.candidates.size());
}

TEST(DominanceTest, RefusedMemoryReservationIsIdentity) {
  auto fixture = MakeRandomProblem(11, /*num_segments=*/6, /*block_size=*/10);
  const DesignProblem problem = WithDuplicates(fixture->problem, 4);
  ResourceTracker tracker(/*limit_bytes=*/1);
  const DominanceResult result =
      PruneDominatedConfigs(problem, nullptr, nullptr, nullptr, &tracker);
  EXPECT_EQ(result.pruned, 0);
  EXPECT_EQ(result.survivors.size(), problem.candidates.size());
}

TEST(DominanceTest, DeterministicForAnyThreadCount) {
  auto fixture = MakeRandomProblem(13, /*num_segments=*/8, /*block_size=*/10,
                                   /*max_indexes_per_config=*/2);
  const DesignProblem problem = WithDuplicates(fixture->problem, 5);
  const DominanceResult serial = PruneDominatedConfigs(problem);
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    const DominanceResult parallel = PruneDominatedConfigs(problem, &pool);
    EXPECT_EQ(parallel.survivors, serial.survivors) << threads << " threads";
    EXPECT_EQ(parallel.pruned, serial.pruned);
  }
}

TEST(DominanceTest, PrunedSpaceKeepsTheOptimum) {
  // The replacement argument end to end: the optimal k-aware cost over
  // the pruned subset equals the optimal cost over the full space,
  // for every change budget.
  for (uint64_t seed : {21u, 22u, 23u}) {
    auto fixture = MakeRandomProblem(seed, /*num_segments=*/8,
                                     /*block_size=*/10);
    const DesignProblem problem = WithDuplicates(fixture->problem, 4);
    const DominanceResult pruning = PruneDominatedConfigs(problem);
    ASSERT_GT(pruning.pruned, 0);
    DesignProblem pruned = problem;
    pruned.candidates = problem.candidates.Subset(pruning.survivors);
    for (int64_t k = 0; k <= 3; ++k) {
      auto full = testing_util::SolveBy(problem, OptimizerMethod::kOptimal, k);
      auto sub = testing_util::SolveBy(pruned, OptimizerMethod::kOptimal, k);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(sub.ok());
      EXPECT_NEAR(sub->schedule.total_cost, full->schedule.total_cost,
                  1e-9 * full->schedule.total_cost)
          << "seed=" << seed << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace cdpd
