#include "core/solver_session.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

TEST(SessionOptionsTest, Validate) {
  SessionOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_threads = -1;
  EXPECT_FALSE(options.Validate().ok());
  options.num_threads = 0;
  options.cost_cache_max_bytes = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(SolverSessionTest, MatchesFreeSolve) {
  auto fixture = MakeRandomProblem(31, /*num_segments=*/6, /*block_size=*/10);
  SolveOptions options;
  options.k = 2;
  options.num_threads = 1;

  auto direct = Solve(fixture->problem, options);
  ASSERT_TRUE(direct.ok());

  SessionOptions session_options;
  session_options.num_threads = 1;
  SolverSession session(session_options);
  auto via_session = session.Solve(fixture->problem, options);
  ASSERT_TRUE(via_session.ok());
  EXPECT_EQ(via_session->schedule.configs, direct->schedule.configs);
  EXPECT_EQ(via_session->schedule.total_cost, direct->schedule.total_cost);
}

TEST(SolverSessionTest, WarmCacheAndAccumulatedStatsAcrossSolves) {
  auto fixture = MakeRandomProblem(37, /*num_segments=*/6, /*block_size=*/10);
  SessionOptions session_options;
  session_options.num_threads = 1;
  SolverSession session(session_options);
  ASSERT_NE(session.cost_cache(), nullptr);
  SolveOptions options;
  options.k = 2;
  options.num_threads = 1;

  auto cold = session.Solve(fixture->problem, options);
  ASSERT_TRUE(cold.ok());
  auto warm = session.Solve(fixture->problem, options);
  ASSERT_TRUE(warm.ok());

  // The second solve costs the same schedule out of the session cache.
  EXPECT_EQ(warm->schedule.configs, cold->schedule.configs);
  EXPECT_GT(warm->stats.cost_cache_hits, 0);
  EXPECT_LT(warm->stats.costings, cold->stats.costings);

  EXPECT_EQ(session.solves(), 2);
  const SolveStats total = session.total_stats();
  EXPECT_EQ(total.costings, cold->stats.costings + warm->stats.costings);
  EXPECT_GE(total.cost_cache_hits, warm->stats.cost_cache_hits);
}

TEST(SolverSessionTest, SerialSessionOwnsTheOnlyThread) {
  // A serial session builds no pool, and a call that leaves
  // num_threads = 0 must not fall through to a default-size pool:
  // threads_used stays 1 whatever CDPD_THREADS requests.
  auto fixture = MakeRandomProblem(41, /*num_segments=*/6, /*block_size=*/10);
  const char* saved = std::getenv("CDPD_THREADS");
  const std::string previous = saved != nullptr ? saved : "";
  for (const char* env : {"1", "4", "16"}) {
    ASSERT_EQ(setenv("CDPD_THREADS", env, /*overwrite=*/1), 0);
    SessionOptions session_options;
    session_options.num_threads = 1;
    SolverSession session(session_options);
    EXPECT_EQ(session.pool(), nullptr);
    SolveOptions options;  // num_threads = 0: defer to the session.
    options.k = 2;
    auto solved = session.Solve(fixture->problem, options);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(solved->stats.threads_used, 1) << "CDPD_THREADS=" << env;
  }
  if (saved != nullptr) {
    ASSERT_EQ(setenv("CDPD_THREADS", previous.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CDPD_THREADS"), 0);
  }
}

TEST(SolverSessionTest, CacheCanBeDisabled) {
  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.enable_cost_cache = false;
  SolverSession session(session_options);
  EXPECT_EQ(session.cost_cache(), nullptr);

  auto fixture = MakeRandomProblem(41, /*num_segments=*/4, /*block_size=*/10);
  SolveOptions options;
  options.num_threads = 1;
  auto first = session.Solve(fixture->problem, options);
  auto second = session.Solve(fixture->problem, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cost_cache_hits, 0);
}

TEST(SolverSessionTest, SessionObservabilityIsTheFallback) {
  MetricsRegistry session_metrics;
  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.observability.metrics = &session_metrics;
  SolverSession session(session_options);

  auto fixture = MakeRandomProblem(43, /*num_segments=*/4, /*block_size=*/10);
  SolveOptions options;
  options.num_threads = 1;

  // Call sets no sinks: the session registry receives the publish.
  ASSERT_TRUE(session.Solve(fixture->problem, options).ok());
  EXPECT_EQ(session_metrics.Snapshot().CounterValue("solver.solves"), 1);

  // A per-call registry wins over the session default for that slot.
  MetricsRegistry call_metrics;
  options.observability.metrics = &call_metrics;
  ASSERT_TRUE(session.Solve(fixture->problem, options).ok());
  EXPECT_EQ(call_metrics.Snapshot().CounterValue("solver.solves"), 1);
  EXPECT_EQ(session_metrics.Snapshot().CounterValue("solver.solves"), 1);
}

TEST(SolverSessionTest, InvalidOptionsAreCorrectedToDefaults) {
  SessionOptions options;
  options.num_threads = -7;
  options.cost_cache_max_bytes = -1;
  SolverSession session(options);  // Must not crash.
  auto fixture = MakeRandomProblem(47, /*num_segments=*/4, /*block_size=*/10);
  SolveOptions solve_options;
  solve_options.num_threads = 1;
  EXPECT_TRUE(session.Solve(fixture->problem, solve_options).ok());
}

}  // namespace
}  // namespace cdpd
