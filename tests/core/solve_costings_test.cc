// Per-call costing accounting: Solve() counts the what-if costings its
// own probes run into a per-call tally, so stats.costings is exact for
// the call whatever else probes the same engine. The concurrent case
// runs repeatedly (and under TSan) in CI; the filter names
// SolveCostingsConcurrent.

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

SolveOptions SerialOptions(OptimizerMethod method, std::optional<int64_t> k,
                           const Schema& schema) {
  SolveOptions options;
  options.method = method;
  options.k = k;
  options.num_threads = 1;
  if (method == OptimizerMethod::kGreedySeq) {
    options.greedy.candidate_indexes = MakePaperCandidateIndexes(schema);
    options.greedy.max_indexes_per_config = 1;
  }
  return options;
}

TEST(SolveCostingsConcurrentTest, ForeignProbesOfTheEngineStayOutOfStats) {
  constexpr uint64_t kSeed = 17;
  constexpr size_t kSegments = 40;
  constexpr size_t kBlock = 10;

  // The solo reference: same problem on a fresh engine, nothing else
  // probing it.
  auto solo_fixture = MakeRandomProblem(kSeed, kSegments, kBlock);
  const SolveOptions base =
      SerialOptions(OptimizerMethod::kOptimal, 2, solo_fixture->schema);
  const SolveResult solo = Solve(solo_fixture->problem, base).value();
  ASSERT_GT(solo.stats.costings, 0);

  // Two-index configurations: never candidates of the single-index
  // problem, so the prober's memo entries are disjoint from the
  // solve's and every first probe of one runs the cost model.
  auto fixture = MakeRandomProblem(kSeed, kSegments, kBlock);
  const WhatIfEngine& engine = *fixture->what_if;
  const std::vector<IndexDef> indexes =
      MakePaperCandidateIndexes(fixture->schema);
  std::vector<Configuration> foreign;
  for (size_t i = 0; i < indexes.size(); ++i) {
    for (size_t j = i + 1; j < indexes.size(); ++j) {
      foreign.push_back(Configuration({indexes[i], indexes[j]}));
    }
  }

  // The prober starts once the solve is under way, and the solve's
  // first progress report waits until the prober has costed a few new
  // (segment, configuration) pairs. Foreign costings therefore always
  // land inside the solve, which is what a before/after delta of the
  // engine's shared counter would wrongly include.
  std::atomic<bool> solve_started{false};
  std::atomic<bool> solve_done{false};
  std::atomic<int64_t> foreign_probes{0};
  std::thread prober([&] {
    while (!solve_started.load() && !solve_done.load()) {
      std::this_thread::yield();
    }
    size_t next = 0;
    while (!solve_done.load()) {
      const size_t pair = next++ % (foreign.size() * kSegments);
      engine.SegmentCost(pair % kSegments, foreign[pair / kSegments]);
      foreign_probes.fetch_add(1);
    }
  });

  SolveOptions options = base;
  bool handshake_done = false;
  options.observability.progress = [&](const ProgressUpdate&) {
    // Serial solve: every report comes from this test's thread.
    if (handshake_done) return;
    handshake_done = true;
    const int64_t seen = foreign_probes.load();
    solve_started.store(true);
    while (foreign_probes.load() < seen + 8) std::this_thread::yield();
  };
  const int64_t engine_before = engine.costings();
  Result<SolveResult> result = Solve(fixture->problem, options);
  solve_done.store(true);
  prober.join();
  const int64_t engine_delta = engine.costings() - engine_before;

  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->schedule.configs, solo.schedule.configs);
  EXPECT_EQ(result->stats.costings, solo.stats.costings);
  // The engine saw the prober's costings on top of the solve's own.
  EXPECT_GT(engine_delta, result->stats.costings);
}

// (method, k) with k = -1 standing for unconstrained (nullopt).
using CompletenessParam = std::tuple<OptimizerMethod, int64_t>;

class SolveCostingsCompletenessTest
    : public ::testing::TestWithParam<CompletenessParam> {};

TEST_P(SolveCostingsCompletenessTest, StatsEqualTheEngineDelta) {
  // With nothing else probing a fresh engine, the per-call tally must
  // account for every costing the solve caused: a probe site that does
  // not charge the tally shows up as a shortfall here. Pruning (shape
  // probes) and the persistent cache (cached EXEC fill) each route
  // costings through their own sites.
  const auto [method, raw_k] = GetParam();
  const std::optional<int64_t> k =
      raw_k < 0 ? std::nullopt : std::optional<int64_t>(raw_k);
  for (const bool prune : {false, true}) {
    for (const bool cached : {false, true}) {
      auto fixture = MakeRandomProblem(/*seed=*/5, /*num_segments=*/5,
                                       /*block_size=*/10);
      CostCache cache;
      SolveOptions options = SerialOptions(method, k, fixture->schema);
      options.prune_dominated = prune;
      if (cached) options.cost_cache = &cache;
      const int64_t before = fixture->what_if->costings();
      auto result = Solve(fixture->problem, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_GT(result->stats.costings, 0);
      EXPECT_EQ(result->stats.costings,
                fixture->what_if->costings() - before)
          << "prune=" << prune << " cached=" << cached;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndBounds, SolveCostingsCompletenessTest,
    ::testing::Combine(
        ::testing::Values(OptimizerMethod::kOptimal,
                          OptimizerMethod::kGreedySeq,
                          OptimizerMethod::kMerging,
                          OptimizerMethod::kRanking,
                          OptimizerMethod::kHybrid),
        ::testing::Values<int64_t>(0, 2, -1)),
    [](const ::testing::TestParamInfo<CompletenessParam>& info) {
      std::string name(OptimizerMethodToString(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      const int64_t k = std::get<1>(info.param);
      return name + (k < 0 ? std::string("_unconstrained")
                           : "_k" + std::to_string(k));
    });

}  // namespace
}  // namespace cdpd
