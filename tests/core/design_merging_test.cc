#include "core/design_merging.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::SolveBy;

constexpr OptimizerMethod kMerging = OptimizerMethod::kMerging;
constexpr OptimizerMethod kOptimal = OptimizerMethod::kOptimal;

// Solve(kMerging) refines the unconstrained optimum; the tests that
// start from a hand-built schedule call MergeToConstraint directly.

TEST(DesignMergingTest, ReducesChangesToBound) {
  auto fixture = MakeRandomProblem(50, 8, 15);
  for (int64_t k = 0; k <= 4; ++k) {
    auto merged = SolveBy(fixture->problem, kMerging, k);
    ASSERT_TRUE(merged.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, merged->schedule.configs), k);
    EXPECT_EQ(merged->schedule.configs.size(), 8u);
  }
}

TEST(DesignMergingTest, NoOpWhenConstraintAlreadySatisfied) {
  auto fixture = MakeRandomProblem(51, 6, 15);
  auto unconstrained = SolveBy(fixture->problem, kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l =
      CountChanges(fixture->problem, unconstrained->schedule.configs);
  auto merged = SolveBy(fixture->problem, kMerging, l);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->stats.merge_steps, 0);
  EXPECT_EQ(merged->schedule.configs, unconstrained->schedule.configs);
}

TEST(DesignMergingTest, NeverBeatsOptimalConstrainedCost) {
  for (uint64_t seed = 52; seed < 56; ++seed) {
    auto fixture = MakeRandomProblem(seed, 6, 12);
    for (int64_t k = 0; k <= 3; ++k) {
      auto merged = SolveBy(fixture->problem, kMerging, k);
      auto optimal = SolveBy(fixture->problem, kOptimal, k);
      ASSERT_TRUE(merged.ok());
      ASSERT_TRUE(optimal.ok());
      EXPECT_GE(merged->schedule.total_cost,
                optimal->schedule.total_cost - 1e-9)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(DesignMergingTest, StepCountBoundedByInitialChanges) {
  auto fixture = MakeRandomProblem(57, 10, 12);
  auto unconstrained = SolveBy(fixture->problem, kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  const int64_t l =
      CountChanges(fixture->problem, unconstrained->schedule.configs);
  auto merged = SolveBy(fixture->problem, kMerging, 0);
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(merged->stats.merge_steps, std::max<int64_t>(l, 1));
  if (l > 0) {
    EXPECT_GT(merged->stats.candidate_evaluations, 0);
  }
}

TEST(DesignMergingTest, ReportedCostMatchesEvaluation) {
  auto fixture = MakeRandomProblem(58, 7, 12);
  auto merged = SolveBy(fixture->problem, kMerging, 1);
  ASSERT_TRUE(merged.ok());
  EXPECT_NEAR(
      merged->schedule.total_cost,
      EvaluateScheduleCost(fixture->problem, merged->schedule.configs), 1e-6);
}

TEST(DesignMergingTest, WorksFromAnyFeasibleStartingSchedule) {
  // Start from a deliberately bad schedule: alternate configurations.
  auto fixture = MakeRandomProblem(59, 6, 10);
  DesignSchedule bad;
  for (size_t i = 0; i < 6; ++i) {
    bad.configs.push_back(fixture->problem.candidates[i % 2]);
  }
  bad.total_cost = EvaluateScheduleCost(fixture->problem, bad.configs);
  auto merged =
      MergeToConstraint(fixture->problem, bad, 1, nullptr, SolveContext{});
  ASSERT_TRUE(merged.ok());
  EXPECT_LE(CountChanges(fixture->problem, merged->configs), 1);
}

TEST(DesignMergingTest, RejectsWrongScheduleLength) {
  auto fixture = MakeRandomProblem(60, 4, 10);
  DesignSchedule wrong;
  wrong.configs.resize(3, Configuration::Empty());
  EXPECT_EQ(MergeToConstraint(fixture->problem, wrong, 1, nullptr,
                              SolveContext{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DesignMergingTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(61, 4, 10);
  EXPECT_EQ(SolveBy(fixture->problem, kMerging, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DesignMergingTest, CountedInitialChangeWithKZeroFallsBackToC0) {
  auto fixture = MakeRandomProblem(62, 5, 10);
  fixture->problem.count_initial_change = true;
  auto merged = SolveBy(fixture->problem, kMerging, 0);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(CountChanges(fixture->problem, merged->schedule.configs), 0);
  for (const Configuration& config : merged->schedule.configs) {
    EXPECT_EQ(config, fixture->problem.initial);
  }
}

}  // namespace
}  // namespace cdpd
