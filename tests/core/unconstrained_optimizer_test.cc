#include "core/unconstrained_optimizer.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/design_problem.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

// The unconstrained optimum through the single entry point.
Result<SolveResult> SolveUnbounded(const DesignProblem& problem) {
  return testing_util::SolveBy(problem, OptimizerMethod::kOptimal,
                               std::nullopt);
}

TEST(UnconstrainedOptimizerTest, MatchesBruteForceOnSmallInstances) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                     /*block_size=*/10);
    auto dp = SolveUnbounded(fixture->problem);
    auto brute = SolveBruteForce(fixture->problem, /*k=*/-1);
    ASSERT_TRUE(dp.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(dp->schedule.total_cost, brute->total_cost, 1e-6)
        << "seed " << seed;
  }
}

TEST(UnconstrainedOptimizerTest, ReportedCostMatchesEvaluation) {
  auto fixture = MakeRandomProblem(7, 6, 25);
  auto solved = SolveUnbounded(fixture->problem);
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(
      solved->schedule.total_cost,
      EvaluateScheduleCost(fixture->problem, solved->schedule.configs), 1e-6);
  EXPECT_EQ(solved->schedule.configs.size(), 6u);
}

TEST(UnconstrainedOptimizerTest, EmptyWorkloadCostsNothing) {
  auto fixture = MakeRandomProblem(8, 0, 1);
  auto solved = SolveUnbounded(fixture->problem);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->schedule.configs.empty());
  EXPECT_DOUBLE_EQ(solved->schedule.total_cost, 0.0);
}

TEST(UnconstrainedOptimizerTest, EmptyWorkloadWithForcedFinalPaysTransition) {
  auto fixture = MakeRandomProblem(9, 0, 1);
  const Configuration ia({IndexDef({0})});
  fixture->problem.final_config = ia;
  auto solved = SolveUnbounded(fixture->problem);
  ASSERT_TRUE(solved.ok());
  EXPECT_DOUBLE_EQ(
      solved->schedule.total_cost,
      fixture->problem.what_if->TransitionCost(Configuration::Empty(), ia));
}

TEST(UnconstrainedOptimizerTest, TracksHeavilySkewedWorkload) {
  // A long all-a workload must recommend an a-index in (nearly) every
  // segment once the build cost amortizes.
  auto fixture = MakeRandomProblem(10, 8, 200, /*max_indexes_per_config=*/1,
                                   /*num_rows=*/100'000,
                                   /*update_fraction=*/0.0);
  // Overwrite statements: every query hits column a.
  for (BoundStatement& s : fixture->statements) {
    s = BoundStatement::SelectPoint(0, 0, s.where_value);
  }
  WhatIfEngine what_if(fixture->model.get(), fixture->statements,
                       fixture->segments);
  fixture->problem.what_if = &what_if;
  auto solved = SolveUnbounded(fixture->problem);
  ASSERT_TRUE(solved.ok());
  for (const Configuration& config : solved->schedule.configs) {
    EXPECT_TRUE(config.Contains(IndexDef({0})) ||
                config.Contains(IndexDef({0, 1})));
  }
}

TEST(UnconstrainedOptimizerTest, ValidatesProblem) {
  auto fixture = MakeRandomProblem(11, 2, 5);
  fixture->problem.candidates = CandidateSpace();
  EXPECT_FALSE(SolveUnbounded(fixture->problem).ok());
}

}  // namespace
}  // namespace cdpd
