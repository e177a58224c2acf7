#include "core/k_aware_graph.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::SolveBy;

constexpr OptimizerMethod kOptimal = OptimizerMethod::kOptimal;

TEST(KAwareGraphTest, GraphSizeFormulas) {
  // Figure 2's instance: n = 3 stages, 2 configurations, k = 2.
  const KAwareGraphSize size = ComputeKAwareGraphSize(3, 2, 2);
  EXPECT_EQ(size.nodes, 3 * 3 * 2 + 2);
  // Edges: source->2, per stage gap: 3 layers * 2 stay + 2 layer-gaps
  // * 2 change, dest<-3*2. Two gaps between stages.
  EXPECT_EQ(size.edges, 2 + 2 * (3 * 2 + 2 * 2) + 3 * 2);
}

TEST(KAwareGraphTest, GraphSizeGrowsLinearlyInK) {
  const int64_t n = 30;
  const int64_t m = 7;
  const int64_t nodes_k2 = ComputeKAwareGraphSize(n, m, 2).nodes;
  const int64_t nodes_k4 = ComputeKAwareGraphSize(n, m, 4).nodes;
  const int64_t nodes_k8 = ComputeKAwareGraphSize(n, m, 8).nodes;
  EXPECT_EQ(nodes_k4 - nodes_k2, 2 * n * m);
  EXPECT_EQ(nodes_k8 - nodes_k4, 4 * n * m);
}

TEST(KAwareGraphTest, GraphSizeSaturatesInsteadOfOverflowing) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // k = INT64_MAX used to compute k+1 layers with signed overflow (UB);
  // now every product/sum saturates at INT64_MAX.
  const KAwareGraphSize huge_k = ComputeKAwareGraphSize(3, 2, kMax);
  EXPECT_EQ(huge_k.nodes, kMax);
  EXPECT_EQ(huge_k.edges, kMax);
  const KAwareGraphSize huge_all =
      ComputeKAwareGraphSize(kMax, kMax, kMax);
  EXPECT_EQ(huge_all.nodes, kMax);
  EXPECT_EQ(huge_all.edges, kMax);
  // Sanity: a modest instance is still exact.
  EXPECT_EQ(ComputeKAwareGraphSize(3, 2, 2).nodes, 3 * 3 * 2 + 2);
}

TEST(KAwareGraphTest, HugeKSolvesViaLayerClamping) {
  // k beyond n-1 cannot change the answer, so the solver clamps the
  // layer count instead of allocating (or overflowing) a k+1-layer
  // table. INT64_MAX must behave exactly like k = n-1.
  auto fixture = MakeRandomProblem(48, 6, 15);
  auto unconstrained = SolveBy(fixture->problem, kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  auto huge =
      SolveBy(fixture->problem, kOptimal, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_NEAR(huge->schedule.total_cost, unconstrained->schedule.total_cost,
              1e-6);
  auto exact = SolveBy(fixture->problem, kOptimal, 5);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(huge->schedule.configs, exact->schedule.configs);
}

TEST(KAwareGraphTest, RespectsChangeBound) {
  auto fixture = MakeRandomProblem(20, 6, 15);
  for (int64_t k = 0; k <= 4; ++k) {
    auto solved = SolveBy(fixture->problem, kOptimal, k);
    ASSERT_TRUE(solved.ok()) << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, solved->schedule.configs), k);
  }
}

TEST(KAwareGraphTest, MatchesBruteForceForAllK) {
  for (uint64_t seed = 30; seed < 34; ++seed) {
    auto fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                     /*block_size=*/10);
    for (int64_t k = 0; k <= 4; ++k) {
      auto graph = SolveBy(fixture->problem, kOptimal, k);
      auto brute = SolveBruteForce(fixture->problem, k);
      ASSERT_TRUE(graph.ok());
      ASSERT_TRUE(brute.ok());
      EXPECT_NEAR(graph->schedule.total_cost, brute->total_cost, 1e-6)
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(KAwareGraphTest, CostIsMonotoneNonIncreasingInK) {
  auto fixture = MakeRandomProblem(40, 8, 20);
  double previous = std::numeric_limits<double>::infinity();
  for (int64_t k = 0; k <= 8; ++k) {
    auto solved = SolveBy(fixture->problem, kOptimal, k);
    ASSERT_TRUE(solved.ok());
    EXPECT_LE(solved->schedule.total_cost, previous + 1e-9);
    previous = solved->schedule.total_cost;
  }
}

TEST(KAwareGraphTest, LargeKEqualsUnconstrainedOptimum) {
  auto fixture = MakeRandomProblem(41, 6, 20);
  auto unconstrained = SolveBy(fixture->problem, kOptimal, std::nullopt);
  ASSERT_TRUE(unconstrained.ok());
  // k = n-1 can express any schedule of n segments.
  auto solved = SolveBy(fixture->problem, kOptimal, 5);
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved->schedule.total_cost,
              unconstrained->schedule.total_cost, 1e-6);
}

TEST(KAwareGraphTest, KZeroPicksBestStaticConfiguration) {
  auto fixture = MakeRandomProblem(42, 5, 15);
  auto solved = SolveBy(fixture->problem, kOptimal, 0);
  ASSERT_TRUE(solved.ok());
  // All segments share one configuration...
  for (const Configuration& config : solved->schedule.configs) {
    EXPECT_EQ(config, solved->schedule.configs.front());
  }
  // ...and it beats (or ties) every other static choice.
  for (const Configuration& config : fixture->problem.candidates) {
    const std::vector<Configuration> static_schedule(5, config);
    EXPECT_LE(solved->schedule.total_cost,
              EvaluateScheduleCost(fixture->problem, static_schedule) + 1e-9);
  }
}

TEST(KAwareGraphTest, CountInitialChangePolicyRestrictsFirstStage) {
  auto fixture = MakeRandomProblem(43, 5, 15);
  fixture->problem.count_initial_change = true;
  auto solved = SolveBy(fixture->problem, kOptimal, 0);
  ASSERT_TRUE(solved.ok());
  // With k = 0 and the initial change counted, the schedule must stay
  // at C0 = {} throughout.
  for (const Configuration& config : solved->schedule.configs) {
    EXPECT_TRUE(config.empty());
  }
}

TEST(KAwareGraphTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(44, 3, 10);
  EXPECT_EQ(SolveBy(fixture->problem, kOptimal, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KAwareGraphTest, ReportedCostMatchesEvaluationAndStats) {
  auto fixture = MakeRandomProblem(45, 6, 15);
  auto solved = SolveBy(fixture->problem, kOptimal, 2);
  ASSERT_TRUE(solved.ok());
  const SolveStats& stats = solved->stats;
  EXPECT_NEAR(
      solved->schedule.total_cost,
      EvaluateScheduleCost(fixture->problem, solved->schedule.configs), 1e-6);
  EXPECT_GT(stats.nodes_expanded, 0);
  EXPECT_GT(stats.relaxations, 0);
}

TEST(KAwareGraphTest, RelaxationsGrowWithK) {
  auto fixture = MakeRandomProblem(46, 10, 15);
  auto small = SolveBy(fixture->problem, kOptimal, 1);
  auto large = SolveBy(fixture->problem, kOptimal, 7);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->stats.relaxations, 2 * small->stats.relaxations);
}

TEST(KAwareGraphTest, ForcedFinalConfigurationIsHonored) {
  auto fixture = MakeRandomProblem(47, 5, 15);
  fixture->problem.final_config = Configuration::Empty();
  auto with_final = SolveBy(fixture->problem, kOptimal, 2);
  ASSERT_TRUE(with_final.ok());
  EXPECT_NEAR(
      with_final->schedule.total_cost,
      EvaluateScheduleCost(fixture->problem, with_final->schedule.configs),
      1e-6);
  fixture->problem.final_config.reset();
  auto without_final = SolveBy(fixture->problem, kOptimal, 2);
  ASSERT_TRUE(without_final.ok());
  EXPECT_LE(without_final->schedule.total_cost,
            with_final->schedule.total_cost + 1e-9);
}

}  // namespace
}  // namespace cdpd
