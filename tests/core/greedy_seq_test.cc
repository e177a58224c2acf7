#include "core/greedy_seq.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::SolveBy;

GreedySeqOptions PaperOptions(const Schema& schema,
                              int32_t max_per_config = 1) {
  GreedySeqOptions options;
  options.candidate_indexes = MakePaperCandidateIndexes(schema);
  options.max_indexes_per_config = max_per_config;
  return options;
}

// GREEDY-SEQ through the single entry point, serially.
Result<SolveResult> SolveGreedy(const DesignProblem& problem,
                                std::optional<int64_t> k,
                                const GreedySeqOptions& greedy) {
  SolveOptions options;
  options.method = OptimizerMethod::kGreedySeq;
  options.k = k;
  options.greedy = greedy;
  options.num_threads = 1;
  return Solve(problem, options);
}

TEST(GreedySeqTest, ProducesFeasibleSchedule) {
  auto fixture = MakeRandomProblem(70, 8, 20);
  auto result =
      SolveGreedy(fixture->problem, 2, PaperOptions(fixture->schema));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schedule.configs.size(), 8u);
  EXPECT_LE(CountChanges(fixture->problem, result->schedule.configs), 2);
}

TEST(GreedySeqTest, ReducedCandidateSetIsSmallAndContainsUsedConfigs) {
  auto fixture = MakeRandomProblem(71, 6, 20, /*max_indexes_per_config=*/2);
  auto result = SolveGreedy(fixture->problem, 3,
                               PaperOptions(fixture->schema, 2));
  ASSERT_TRUE(result.ok());
  // At most O(m n) + empty + initial candidates.
  EXPECT_LE(result->reduced_candidates.size(), 6u * 6u + 2u);
  for (const Configuration& config : result->schedule.configs) {
    EXPECT_NE(std::find(result->reduced_candidates.begin(),
                        result->reduced_candidates.end(), config),
              result->reduced_candidates.end());
  }
}

TEST(GreedySeqTest, NeverBeatsOptimalOnFullSpace) {
  for (uint64_t seed = 72; seed < 75; ++seed) {
    auto fixture = MakeRandomProblem(seed, 5, 12);
    auto optimal = SolveBy(fixture->problem, OptimizerMethod::kOptimal, 2);
    auto greedy =
        SolveGreedy(fixture->problem, 2, PaperOptions(fixture->schema));
    ASSERT_TRUE(optimal.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_GE(greedy->schedule.total_cost, optimal->schedule.total_cost - 1e-9)
        << "seed " << seed;
  }
}

TEST(GreedySeqTest, OftenMatchesOptimalOnSingleIndexSpace) {
  // With max one index per configuration, the greedy per-segment best
  // equals the true per-segment best, so the reduced space usually
  // retains the optimum. Verify it happens on at least one fixture.
  auto fixture = MakeRandomProblem(76, 6, 30);
  auto optimal = SolveBy(fixture->problem, OptimizerMethod::kOptimal, 2);
  auto greedy =
      SolveGreedy(fixture->problem, 2, PaperOptions(fixture->schema));
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_NEAR(greedy->schedule.total_cost, optimal->schedule.total_cost, 1e-6);
}

TEST(GreedySeqTest, UnconstrainedVariant) {
  auto fixture = MakeRandomProblem(77, 5, 15);
  auto result = SolveGreedy(fixture->problem, std::nullopt,
                               PaperOptions(fixture->schema));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schedule.configs.size(), 5u);
}

TEST(GreedySeqTest, RespectsSpaceBound) {
  auto fixture = MakeRandomProblem(78, 5, 15, /*max_indexes_per_config=*/2);
  // Bound that excludes two-column indexes entirely.
  fixture->problem.space_bound_pages =
      IndexDef({0}).SizePages(100'000) + 1;
  fixture->problem.candidates = {Configuration::Empty()};
  auto result = SolveGreedy(fixture->problem, 2,
                               PaperOptions(fixture->schema, 2));
  ASSERT_TRUE(result.ok());
  const int64_t rows = fixture->model->num_rows();
  for (const Configuration& config : result->reduced_candidates) {
    EXPECT_LE(config.SizePages(rows), fixture->problem.space_bound_pages);
  }
}

TEST(GreedySeqTest, RejectsEmptyCandidateIndexes) {
  auto fixture = MakeRandomProblem(79, 3, 10);
  GreedySeqOptions options;
  EXPECT_EQ(SolveGreedy(fixture->problem, 1, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GreedySeqTest, GrowsMultiIndexConfigurationsWhenAllowed) {
  // A workload spread over two unrelated columns rewards a two-index
  // configuration, which the greedy construction must discover.
  auto fixture = MakeRandomProblem(80, 2, 10, /*max_indexes_per_config=*/4,
                                   /*num_rows=*/200'000,
                                   /*update_fraction=*/0.0);
  for (size_t i = 0; i < fixture->statements.size(); ++i) {
    const ColumnId col = i % 2 == 0 ? 0 : 2;
    fixture->statements[i] = BoundStatement::SelectPoint(col, col, 1);
  }
  WhatIfEngine what_if(fixture->model.get(), fixture->statements,
                       fixture->segments);
  fixture->problem.what_if = &what_if;
  auto result = SolveGreedy(fixture->problem, 1,
                               PaperOptions(fixture->schema, 4));
  ASSERT_TRUE(result.ok());
  bool saw_multi_index = false;
  for (const Configuration& config : result->reduced_candidates) {
    saw_multi_index |= config.num_indexes() >= 2;
  }
  EXPECT_TRUE(saw_multi_index);
}

}  // namespace
}  // namespace cdpd
