#include "core/segment_solver.h"

#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"
#include "workload/workload.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;

// The optimal method through Solve() with an explicit chunk count
// (0 and 1 run the monolithic DP, >= 2 the segmented one).
Result<SolveResult> SolveChunked(const DesignProblem& problem, int64_t k,
                                 int num_chunks, int num_threads = 1) {
  SolveOptions options;
  options.k = k;
  options.num_threads = num_threads;
  options.segmented.num_chunks = num_chunks;
  return Solve(problem, options);
}

TEST(SegmentSolveOptionsTest, Validate) {
  SegmentSolveOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_chunks = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(SegmentSolveOptionsTest, ResolveNumChunks) {
  SegmentSolveOptions options;  // Auto.
  // Auto is monolithic at every length: segmenting is opt-in.
  for (size_t stages : {size_t{0}, size_t{100}, size_t{256}, size_t{1280},
                        size_t{1'000'000}}) {
    EXPECT_EQ(ResolveNumChunks(options, stages), 1u) << stages;
  }
  // Explicit monolithic.
  options.num_chunks = 1;
  EXPECT_EQ(ResolveNumChunks(options, 1'000'000), 1u);
  // Forced counts clamp to the stage count.
  options.num_chunks = 4;
  EXPECT_EQ(ResolveNumChunks(options, 100), 4u);
  EXPECT_EQ(ResolveNumChunks(options, 3), 3u);
  EXPECT_EQ(ResolveNumChunks(options, 1), 1u);
}

TEST(SplitStagesBalancedTest, CoversExactlyAndBalances) {
  const std::vector<Segment> stages = SegmentFixed(1000, 10);  // 100 stages.
  for (size_t chunks : {1u, 2u, 3u, 7u, 100u, 200u}) {
    const std::vector<Segment> split = SplitStagesBalanced(stages, chunks);
    ASSERT_EQ(split.size(), std::min<size_t>(chunks, stages.size()));
    EXPECT_EQ(split.front().begin, 0u);
    EXPECT_EQ(split.back().end, stages.size());
    for (size_t t = 1; t < split.size(); ++t) {
      EXPECT_EQ(split[t].begin, split[t - 1].end);
      EXPECT_GE(split[t].size(), 1u);
    }
  }
}

TEST(SplitStagesBalancedTest, BalancesByStatementWeight) {
  // Stages of very different statement counts: the cuts should track
  // statement weight, not stage count.
  std::vector<Segment> stages;
  size_t begin = 0;
  for (size_t len : {200u, 1u, 1u, 1u, 1u, 1u, 1u, 100u}) {
    stages.push_back(Segment{begin, begin + len});
    begin += len;
  }
  const std::vector<Segment> split = SplitStagesBalanced(stages, 2);
  ASSERT_EQ(split.size(), 2u);
  // The first heavy stage alone reaches half the total weight.
  EXPECT_EQ(split[0], (Segment{0, 1}));
  EXPECT_EQ(split[1], (Segment{1, 8}));
}

TEST(SegmentSolverTest, MatchesMonolithicCostForAllChunkCounts) {
  auto fixture = MakeRandomProblem(7, /*num_segments=*/24, /*block_size=*/10);
  for (int64_t k = 0; k <= 4; ++k) {
    auto mono = SolveChunked(fixture->problem, k, 1);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    const double mono_cost = mono->schedule.total_cost;
    for (int chunks : {2, 3, 5, 8, 24}) {
      auto seg = SolveChunked(fixture->problem, k, chunks);
      ASSERT_TRUE(seg.ok()) << "k=" << k << " chunks=" << chunks << ": "
                            << seg.status().ToString();
      EXPECT_NEAR(seg->schedule.total_cost, mono_cost, 1e-9 * mono_cost)
          << "k=" << k << " chunks=" << chunks;
      EXPECT_LE(CountChanges(fixture->problem, seg->schedule.configs), k);
      EXPECT_EQ(seg->stats.segment_chunks, chunks);
      EXPECT_GT(seg->stats.stitch_window, 0);
    }
  }
}

TEST(SegmentSolverTest, ScheduleIdenticalForAnyThreadCount) {
  auto fixture = MakeRandomProblem(11, /*num_segments=*/20, /*block_size=*/8);
  auto serial = SolveChunked(fixture->problem, 3, 4);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4}) {
    auto parallel = SolveChunked(fixture->problem, 3, 4, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->schedule.configs, serial->schedule.configs)
        << threads << " threads";
    EXPECT_EQ(parallel->schedule.total_cost, serial->schedule.total_cost);
    EXPECT_EQ(parallel->stats.relaxations, serial->stats.relaxations);
    EXPECT_EQ(parallel->stats.nodes_expanded, serial->stats.nodes_expanded);
  }
}

TEST(SegmentSolverTest, HonorsFinalConfigAndInitialChangePolicy) {
  auto fixture = MakeRandomProblem(13, /*num_segments=*/16, /*block_size=*/8);
  fixture->problem.final_config = Configuration::Empty();
  fixture->problem.count_initial_change = true;
  for (int64_t k : {0, 1, 3}) {
    auto mono = SolveChunked(fixture->problem, k, 1);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    auto seg = SolveChunked(fixture->problem, k, 4);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    EXPECT_NEAR(seg->schedule.total_cost, mono->schedule.total_cost,
                1e-9 * (1.0 + mono->schedule.total_cost))
        << "k=" << k;
    EXPECT_LE(CountChanges(fixture->problem, seg->schedule.configs), k);
  }
}

TEST(SegmentSolverTest, DegenerateChunkCountsDelegateToMonolithic) {
  auto fixture = MakeRandomProblem(17, /*num_segments=*/6, /*block_size=*/10);
  SolveOptions options;
  options.k = 2;
  options.num_threads = 1;
  auto mono = Solve(fixture->problem, options);
  ASSERT_TRUE(mono.ok());
  for (int chunks : {0, 1}) {
    auto seg = SolveChunked(fixture->problem, 2, chunks);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg->schedule.configs, mono->schedule.configs);
    EXPECT_EQ(seg->stats.segment_chunks, 0);
  }
}

TEST(SegmentSolverTest, RejectsNegativeK) {
  auto fixture = MakeRandomProblem(19, /*num_segments=*/6, /*block_size=*/10);
  auto seg = SolveChunked(fixture->problem, -1, 2);
  EXPECT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentSolverTest, SolveDispatchesSegmentedPath) {
  // Through the unified Solve(): forcing chunks >= 2 must produce the
  // same cost as the monolithic default and report the decomposition
  // in method_detail and stats.
  auto fixture = MakeRandomProblem(23, /*num_segments=*/18, /*block_size=*/8);
  SolveOptions mono_options;
  mono_options.k = 2;
  mono_options.num_threads = 1;
  mono_options.segmented.num_chunks = 1;
  auto mono = Solve(fixture->problem, mono_options);
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(mono->stats.segment_chunks, 0);

  SolveOptions seg_options;
  seg_options.k = 2;
  seg_options.num_threads = 1;
  seg_options.segmented.num_chunks = 6;
  auto seg = Solve(fixture->problem, seg_options);
  ASSERT_TRUE(seg.ok());
  EXPECT_NEAR(seg->schedule.total_cost, mono->schedule.total_cost,
              1e-9 * mono->schedule.total_cost);
  EXPECT_EQ(seg->stats.segment_chunks, 6);
  EXPECT_NE(seg->method_detail.find("segment-parallel"), std::string::npos);
}

TEST(SegmentSolverTest, DefaultSolveOfLongWindowIsMonolithic) {
  // Property over random long windows (>= 256 stages, where the old
  // auto mode chunked): the default Solve() runs the plain DP and
  // returns the explicit num_chunks = 1 schedule bit for bit, at one
  // thread and on a pool, with and without pruning.
  for (uint64_t seed : {29u, 31u, 37u}) {
    auto fixture =
        MakeRandomProblem(seed, /*num_segments=*/300, /*block_size=*/4,
                          /*max_indexes_per_config=*/2);
    for (bool prune : {false, true}) {
      SolveOptions mono_options;
      mono_options.k = 3;
      mono_options.num_threads = 1;
      mono_options.prune_dominated = prune;
      mono_options.segmented.num_chunks = 1;
      auto mono = Solve(fixture->problem, mono_options);
      ASSERT_TRUE(mono.ok()) << mono.status().ToString();
      for (int threads : {1, 4}) {
        SolveOptions auto_options;
        auto_options.k = 3;
        auto_options.num_threads = threads;
        auto_options.prune_dominated = prune;
        auto automatic = Solve(fixture->problem, auto_options);
        ASSERT_TRUE(automatic.ok()) << automatic.status().ToString();
        EXPECT_EQ(automatic->stats.segment_chunks, 0)
            << "seed " << seed << ", " << threads << " threads";
        EXPECT_EQ(automatic->method_detail, "k-aware sequence graph");
        EXPECT_EQ(automatic->schedule.configs, mono->schedule.configs)
            << "seed " << seed << ", " << threads << " threads";
        EXPECT_EQ(automatic->schedule.total_cost, mono->schedule.total_cost);
        EXPECT_EQ(automatic->stats.relaxations, mono->stats.relaxations);
      }
    }
  }
}

}  // namespace
}  // namespace cdpd
