// The what-if cost memo: unit behavior of the (statement shape,
// configuration) table and its counters, then the cache through the
// Solve() API — a warm second solve answers >= 90% of probes from the
// cache with an identical schedule, a cost-model change (table stats
// attached) invalidates rather than serving stale costs, the cache's
// own byte cap evicts, a solve-level memory budget refuses inserts and
// degrades through the anytime machinery, concurrent solves may share
// one cache (run under TSan in CI), a universe past 64 indexes and a
// pruned candidate subset reuse it like any other, and every probe
// answers the same bits whichever memo serves it.

#include "cost/cost_cache.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/solver.h"
#include "core/solver_session.h"
#include "core/validator.h"
#include "cost/table_stats.h"
#include "server/advisor_service.h"
#include "workload/trace_io.h"
#include "../test_util.h"

namespace cdpd {
namespace {

using testing_util::MakeRandomProblem;
using testing_util::ProblemFixture;

// Key `(i, j)`: the i-th test shape under the j-th test configuration.
StatementShape TestShape(uint64_t i) {
  StatementShape shape;
  shape.type = StatementType::kSelectRange;
  shape.where_hi = static_cast<Value>(i);
  return shape;
}

Configuration TestConfig(uint64_t j) {
  return Configuration({IndexDef({static_cast<ColumnId>(j)})});
}

// Probes key (i, j); a miss prices it at `cost`.
double Probe(CostCache& cache, uint64_t i, uint64_t j, double cost,
             ResourceTracker* tracker = nullptr, ProbeTally* tally = nullptr) {
  return cache.GetOrCompute(
      TestShape(i), TestConfig(j), [cost] { return cost; }, tracker, tally);
}

TEST(CostCacheTest, LookupInsertAndCounters) {
  CostCache cache;
  cache.EnsureValid(42);
  ProbeTally tally;
  EXPECT_EQ(Probe(cache, 1, 2, 3.5, nullptr, &tally), 3.5);  // Miss.
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(tally.misses.load(), 1);

  // A hit returns the cached price; compute does not run again.
  EXPECT_EQ(Probe(cache, 1, 2, 9.0, nullptr, &tally), 3.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(tally.hits.load(), 1);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.ApproxBytes(), CostCache::kEntryBytes);

  // The same shape under another configuration, and another shape
  // under the same configuration, are distinct entries.
  EXPECT_EQ(Probe(cache, 1, 4, 9.0), 9.0);
  EXPECT_EQ(Probe(cache, 2, 2, 1.0), 1.0);
  EXPECT_EQ(cache.entries(), 3);
}

TEST(CostCacheTest, KeysAreExactOnBothHalves) {
  // Shapes that differ in one field, and configurations that differ
  // only in index column order, never share an entry.
  CostCache cache;
  cache.EnsureValid(1);
  StatementShape point;
  point.where_column = 1;
  StatementShape wider = point;
  wider.insert_arity = 4;
  const Configuration ab({IndexDef({0, 1})});
  const Configuration ba({IndexDef({1, 0})});
  EXPECT_EQ(cache.GetOrCompute(point, ab, [] { return 1.0; }), 1.0);
  EXPECT_EQ(cache.GetOrCompute(point, ba, [] { return 2.0; }), 2.0);
  EXPECT_EQ(cache.GetOrCompute(wider, ab, [] { return 3.0; }), 3.0);
  EXPECT_EQ(cache.entries(), 3);
  EXPECT_EQ(cache.GetOrCompute(point, ab, [] { return 9.0; }), 1.0);
}

TEST(CostCacheTest, GetOrComputePricesEachKeyOnceUnderContention) {
  // Concurrent probes of the same keys: each key is priced exactly
  // once (the first probe misses, the rest wait and hit), so a
  // caller's miss count never exceeds the distinct keys it probed.
  CostCache cache;
  cache.EnsureValid(1);
  constexpr int kThreads = 8;
  constexpr uint64_t kKeys = 64;
  std::atomic<int64_t> computed{0};
  ProbeTally tally;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t key = 0; key < kKeys; ++key) {
        const double cost = cache.GetOrCompute(
            TestShape(key), TestConfig(key + 1),
            [&] {
              computed.fetch_add(1);
              return static_cast<double>(key) * 0.5;
            },
            /*tracker=*/nullptr, &tally);
        EXPECT_EQ(cost, static_cast<double>(key) * 0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computed.load(), static_cast<int64_t>(kKeys));
  EXPECT_EQ(tally.misses.load(), static_cast<int64_t>(kKeys));
  EXPECT_EQ(tally.hits.load(), static_cast<int64_t>((kThreads - 1) * kKeys));
  EXPECT_EQ(cache.misses(), static_cast<int64_t>(kKeys));
  EXPECT_EQ(cache.entries(), static_cast<int64_t>(kKeys));
}

TEST(CostCacheTest, TallyCountsTheEvictionsItsCallerCaused) {
  CostCache cache(4 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  ProbeTally filler;
  for (uint64_t i = 0; i < 64; ++i) {
    Probe(cache, i * 2654435761u + 1, i + 1, 1.0, nullptr, &filler);
  }
  EXPECT_EQ(filler.evictions.load(), cache.evictions());
  // A token change charges the dropped entries to the validating
  // caller only.
  const int64_t before = cache.evictions();
  const int64_t resident = cache.entries();
  ProbeTally validator;
  EXPECT_TRUE(cache.EnsureValid(2, nullptr, &validator));
  EXPECT_EQ(validator.evictions.load(), resident);
  EXPECT_EQ(cache.evictions() - before, resident);
  EXPECT_EQ(filler.evictions.load(), before);
}

TEST(CostCacheTest, EnsureValidClearsOnTokenChangeOnly) {
  CostCache cache;
  EXPECT_TRUE(cache.EnsureValid(7));  // First validation.
  Probe(cache, 1, 1, 1.0);
  Probe(cache, 2, 2, 2.0);

  EXPECT_FALSE(cache.EnsureValid(7));  // Already valid: keeps entries.
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_EQ(cache.invalidations(), 0);

  EXPECT_TRUE(cache.EnsureValid(8));  // Token changed: drop everything.
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.evictions(), 2);  // The dropped entries.
  EXPECT_EQ(cache.validity_token(), 8u);
  EXPECT_EQ(Probe(cache, 1, 1, 5.0), 5.0);  // Priced afresh.
}

TEST(CostCacheTest, OwnByteCapEvictsShards) {
  // Room for four accounted entries; insert far more.
  CostCache cache(4 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  for (uint64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(Probe(cache, i, i * 31 + 1, static_cast<double>(i)),
              static_cast<double>(i));
  }
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_GT(cache.entries(), 0);  // The newest entry always fits.
}

TEST(CostCacheTest, TrackerRefusalSkipsInsertAndTripsLimit) {
  CostCache cache;
  cache.EnsureValid(1);
  ResourceTracker tracker(CostCache::kEntryBytes);  // Budget: one entry.
  Probe(cache, 1, 1, 1.0, &tracker);
  EXPECT_FALSE(tracker.limit_exceeded());
  EXPECT_EQ(Probe(cache, 2, 2, 2.0, &tracker), 2.0);  // Over budget.
  EXPECT_TRUE(tracker.limit_exceeded());
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache),
            CostCache::kEntryBytes);
  // Reads keep working after a refusal.
  EXPECT_EQ(Probe(cache, 1, 1, 9.0, &tracker), 1.0);
}

TEST(CostCacheTest, EvictionReleasesTrackerChargeExactlyOnce) {
  // Regression: EvictForSpace used to clear shards without releasing
  // the entries' ResourceTracker reservation, so under cap pressure
  // the mem.cost_cache gauge grew monotonically with churn and
  // eventually tripped a limit that the live entries were nowhere
  // near. The tracker's current bytes must equal the *resident*
  // entries exactly, after any amount of eviction.
  CostCache cache(4 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  // Budget for 16 entries: far above the 4-entry cap, so with correct
  // release accounting the limit can never trip.
  ResourceTracker tracker(16 * CostCache::kEntryBytes);
  for (uint64_t i = 0; i < 512; ++i) {
    Probe(cache, i * 2654435761u + 1, i + 1, static_cast<double>(i),
          &tracker);
    EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache),
              cache.entries() * CostCache::kEntryBytes);
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_FALSE(tracker.limit_exceeded());
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
}

TEST(CostCacheTest, InvalidationReleasesTrackerCharge) {
  CostCache cache;
  cache.EnsureValid(1);
  ResourceTracker tracker(64 * CostCache::kEntryBytes);
  for (uint64_t i = 0; i < 8; ++i) Probe(cache, i + 1, i + 1, 1.0, &tracker);
  ASSERT_EQ(cache.entries(), 8);
  ASSERT_EQ(tracker.current_bytes(MemComponent::kCostCache),
            8 * CostCache::kEntryBytes);
  // A token change drops every entry; the charge must go with them.
  EXPECT_TRUE(cache.EnsureValid(2, &tracker));
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(tracker.current_bytes(MemComponent::kCostCache), 0);
}

TEST(CostCacheTest, EvictionSweepDoesNotStarveShards) {
  // Regression: the eviction sweep used to start at a deterministic
  // shard, so an entry whose shard sat "behind" the usual start could
  // survive unboundedly many eviction episodes while the cache stayed
  // at its cap. The rotating cursor guarantees every shard is reached;
  // a marker entry must not outlive heavy churn.
  CostCache cache(2 * CostCache::kEntryBytes);
  cache.EnsureValid(1);
  Probe(cache, 1, 1, 1.0);
  ASSERT_EQ(Probe(cache, 1, 1, 7.0), 1.0);  // Resident.
  for (uint64_t i = 0; i < 512; ++i) {
    Probe(cache, (i + 2) * 2654435761u, i + 2, static_cast<double>(i));
  }
  EXPECT_EQ(Probe(cache, 1, 1, 7.0), 7.0);  // Evicted: priced afresh.
  EXPECT_LE(cache.ApproxBytes(), cache.max_bytes());
}

TEST(CostCacheTest, PublishToMirrorsResidentState) {
  CostCache cache;
  cache.EnsureValid(5);
  Probe(cache, 1, 1, 1.0);
  Probe(cache, 2, 2, 2.0);
  cache.EnsureValid(6);
  Probe(cache, 3, 3, 3.0);
  MetricsRegistry registry;
  cache.PublishTo(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.entries"), 1);
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.bytes"), CostCache::kEntryBytes);
  EXPECT_EQ(snapshot.GaugeValue("cost_cache.invalidations"), 1);
}

// ---------------------------------------------------------------------
// Through the Solve() API.

SolveOptions CachedOptions(CostCache* cache) {
  SolveOptions options;
  options.method = OptimizerMethod::kOptimal;
  options.k = 2;
  options.num_threads = 1;
  options.cost_cache = cache;
  return options;
}

TEST(CostCacheSolveTest, WarmSecondSolveHitsAtLeastNinetyPercent) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  const SolveOptions options = CachedOptions(&cache);

  const SolveResult cold = Solve(fixture->problem, options).value();
  EXPECT_GT(cold.stats.cost_cache_misses, 0);
  EXPECT_GT(cache.entries(), 0);

  // A *fresh* engine over the same workload: every probe answered
  // without recosting came from the persistent cache.
  auto warm_fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                        /*block_size=*/10);
  const SolveResult warm = Solve(warm_fixture->problem, options).value();
  const int64_t probes =
      warm.stats.cost_cache_hits + warm.stats.cost_cache_misses;
  ASSERT_GT(probes, 0);
  EXPECT_GE(static_cast<double>(warm.stats.cost_cache_hits),
            0.9 * static_cast<double>(probes));
  EXPECT_EQ(cache.invalidations(), 0);

  // Cached costs are bit-identical to computed ones (both sum the
  // per-statement profile in the same order), so the schedule is too.
  EXPECT_EQ(warm.schedule.configs, cold.schedule.configs);
  EXPECT_EQ(warm.schedule.total_cost, cold.schedule.total_cost);
}

TEST(CostCacheSolveTest, CachedSolveMatchesUncachedExactly) {
  // Over seeds and methods, at 1 and 4 threads: a solve through a
  // shared warm cache, or through one capped at two entries (which
  // evicts on nearly every insert), reports the exact schedule and
  // cost of a serial solve on the engine's own memo.
  CostCache shared;
  for (const uint64_t seed : {9u, 10u, 11u, 12u}) {
    for (const OptimizerMethod method :
         {OptimizerMethod::kOptimal, OptimizerMethod::kGreedySeq,
          OptimizerMethod::kMerging, OptimizerMethod::kHybrid}) {
      SolveOptions plain = CachedOptions(nullptr);
      plain.method = method;
      plain.prune_dominated = true;
      plain.greedy.candidate_indexes =
          MakePaperCandidateIndexes(MakePaperSchema());
      auto fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                       /*block_size=*/10);
      const SolveResult uncached = Solve(fixture->problem, plain).value();
      // Without a cache the stats report zero traffic.
      EXPECT_EQ(uncached.stats.cost_cache_hits, 0);
      EXPECT_EQ(uncached.stats.cost_cache_misses, 0);
      for (const int threads : {1, 4}) {
        CostCache capped(2 * CostCache::kEntryBytes);
        for (CostCache* cache : {&shared, &capped}) {
          auto cached_fixture = MakeRandomProblem(seed, /*num_segments=*/4,
                                                  /*block_size=*/10);
          SolveOptions options = plain;
          options.cost_cache = cache;
          options.num_threads = threads;
          const SolveResult cached =
              Solve(cached_fixture->problem, options).value();
          EXPECT_EQ(cached.schedule.configs, uncached.schedule.configs)
              << "seed " << seed << " threads " << threads;
          EXPECT_EQ(cached.schedule.total_cost, uncached.schedule.total_cost)
              << "seed " << seed << " threads " << threads;
        }
      }
    }
  }
}

TEST(CostCacheSolveTest, TableStatsChangeInvalidatesInsteadOfServingStale) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  const SolveOptions options = CachedOptions(&cache);
  const SolveResult cold = Solve(fixture->problem, options).value();
  ASSERT_EQ(cache.invalidations(), 0);

  // Attaching table stats changes CostModel::Fingerprint(), hence the
  // validity token: the next solve must drop the cache and recost
  // every distinct key — never mix costs from two model states.
  Table table(fixture->schema);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({rng.UniformInt(0, 9),
                                rng.UniformInt(0, 99'999), 7,
                                rng.UniformInt(1000, 1999)})
                    .ok());
  }
  const TableStats stats = TableStats::FromTable(table);
  fixture->model->SetTableStats(&stats);

  const SolveResult refreshed = Solve(fixture->problem, options).value();
  EXPECT_EQ(cache.invalidations(), 1);
  // Misses match the cold solve exactly: the same distinct
  // (shape, config) keys were all recosted. (Hits may be non-zero —
  // duplicate shapes inside the solve reuse the fresh entries.)
  EXPECT_EQ(refreshed.stats.cost_cache_misses, cold.stats.cost_cache_misses);

  // Detaching restores the original fingerprint: invalidate again.
  fixture->model->SetTableStats(nullptr);
  const SolveResult detached = Solve(fixture->problem, options).value();
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_GT(detached.stats.cost_cache_misses, 0);
}

TEST(CostCacheSolveTest, CacheByteCapEvictsDuringSolve) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  // Far smaller than the workload's shape x config product.
  CostCache tiny(2 * CostCache::kEntryBytes);
  const SolveResult result =
      Solve(fixture->problem, CachedOptions(&tiny)).value();
  EXPECT_GT(result.stats.cost_cache_evictions, 0);
  EXPECT_LE(tiny.ApproxBytes(), tiny.max_bytes());
  // Eviction never changes answers, only reuse.
  auto plain = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                 /*block_size=*/10);
  const SolveResult reference =
      Solve(plain->problem, CachedOptions(nullptr)).value();
  EXPECT_EQ(result.schedule.configs, reference.schedule.configs);
  EXPECT_EQ(result.schedule.total_cost, reference.schedule.total_cost);
}

TEST(CostCacheSolveTest, SolveMemoryBudgetRefusesInsertsAndDegrades) {
  auto fixture = MakeRandomProblem(/*seed=*/3, /*num_segments=*/4,
                                   /*block_size=*/10);
  CostCache cache;
  SolveOptions options = CachedOptions(&cache);
  options.memory_limit_bytes = 512;  // Below even this tiny problem.
  const Result<SolveResult> solved = Solve(fixture->problem, options);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  // Cache inserts charged to the solve tracker were refused, the limit
  // flag tripped, and the solve degraded through the same anytime
  // machinery as a deadline — still a valid best-effort schedule.
  EXPECT_TRUE(solved->stats.memory_limit_hit);
  EXPECT_TRUE(solved->stats.best_effort);
  EXPECT_TRUE(ValidateSchedule(fixture->problem, solved->schedule, options.k)
                  .ok());
  // The refused inserts bounded the cache's growth under the budget.
  EXPECT_LE(cache.ApproxBytes(), int64_t{512} + CostCache::kEntryBytes);
}

TEST(CostCacheSolveTest, ConcurrentSolvesMayShareOneCache) {
  // Four threads, each with its own engine over the same workload,
  // all funneling through one cache. Under TSan this exercises the
  // sharded Lookup/Insert and EnsureValid against concurrent solves;
  // everywhere it proves sharing cannot change any schedule.
  auto reference_fixture = MakeRandomProblem(/*seed=*/11, /*num_segments=*/4,
                                             /*block_size=*/10);
  const SolveResult reference =
      Solve(reference_fixture->problem, CachedOptions(nullptr)).value();

  CostCache cache;
  constexpr int kThreads = 4;
  std::vector<SolveResult> results(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fixture = MakeRandomProblem(/*seed=*/11, /*num_segments=*/4,
                                       /*block_size=*/10);
      for (int round = 0; round < 2; ++round) {
        const Result<SolveResult> solved =
            Solve(fixture->problem, CachedOptions(&cache));
        if (!solved.ok()) {
          failures.fetch_add(1);
          return;
        }
        results[t] = *solved;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t].schedule.configs, reference.schedule.configs);
    EXPECT_EQ(results[t].schedule.total_cost, reference.schedule.total_cost);
  }
  EXPECT_EQ(cache.invalidations(), 0);  // One shared validity token.
  EXPECT_GT(cache.hits(), 0);
}

TEST(CostCacheSolveTest, UniversePast64IndexesIsServedFromTheCache) {
  // Ten columns: 10 one-column and 90 two-column candidate indexes, a
  // universe far past the 64 bits of an exact configuration mask. The
  // cache keys on the configuration itself, so a session's second
  // solve is answered from it like any other.
  std::vector<std::string> columns;
  for (char name = 'a'; name < 'a' + 10; ++name) {
    columns.emplace_back(1, name);
  }
  const Schema schema("t", columns);
  const CostModel model(schema, 100'000, 1000);
  std::vector<BoundStatement> statements;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const auto column = static_cast<ColumnId>(rng.NextBounded(10));
    statements.push_back(BoundStatement::SelectPoint(
        column, column, static_cast<Value>(rng.NextBounded(1000))));
  }
  const WhatIfEngine engine(&model, statements,
                            SegmentFixed(statements.size(), 10));
  std::vector<Configuration> candidates = {Configuration()};
  for (ColumnId x = 0; x < 10; ++x) {
    candidates.push_back(Configuration({IndexDef({x})}));
    for (ColumnId y = 0; y < 10; ++y) {
      if (y != x) candidates.push_back(Configuration({IndexDef({x, y})}));
    }
  }
  DesignProblem problem;
  problem.what_if = &engine;
  problem.candidates = candidates;
  problem.initial = Configuration();
  ASSERT_FALSE(problem.candidates.exact_masks());

  SessionOptions session_options;
  session_options.num_threads = 1;
  SolverSession session(session_options);
  const SolveOptions options = CachedOptions(nullptr);
  const SolveResult cold = session.Solve(problem, options).value();
  EXPECT_GT(cold.stats.cost_cache_misses, 0);
  const SolveResult warm = session.Solve(problem, options).value();
  EXPECT_GT(warm.stats.cost_cache_hits, 0);
  EXPECT_EQ(warm.stats.cost_cache_misses, 0);
  EXPECT_EQ(warm.stats.costings, 0);
  EXPECT_EQ(warm.schedule.configs, cold.schedule.configs);
  EXPECT_EQ(warm.schedule.total_cost, cold.schedule.total_cost);
}

TEST(CostCacheSolveTest, PrunedSubsetsShareTheCacheWithTheFullSpace) {
  // Queries on a and b only: {I(d)} helps no statement, so dominance
  // pruning drops it — and with it the only configuration holding
  // I(d), which shrinks the candidate universe. Switching pruning on,
  // off and on again must neither clear the cache nor recost a pair.
  const Schema schema = MakePaperSchema();
  const CostModel model(schema, 100'000, 1000);
  std::vector<BoundStatement> statements;
  for (int i = 0; i < 40; ++i) {
    const ColumnId column = i % 2;
    statements.push_back(BoundStatement::SelectPoint(column, column, i));
  }
  const WhatIfEngine engine(&model, statements,
                            SegmentFixed(statements.size(), 10));
  DesignProblem problem;
  problem.what_if = &engine;
  problem.candidates = std::vector<Configuration>{
      Configuration(), Configuration({IndexDef({0})}),
      Configuration({IndexDef({1})}), Configuration({IndexDef({3})})};
  problem.initial = Configuration();

  SessionOptions session_options;
  session_options.num_threads = 1;
  SolverSession session(session_options);
  SolveOptions options = CachedOptions(nullptr);
  std::vector<SolveResult> results;
  for (const bool prune : {true, false, true}) {
    options.prune_dominated = prune;
    results.push_back(session.Solve(problem, options).value());
  }
  EXPECT_GT(results[0].stats.pruned_configs, 0);
  EXPECT_EQ(session.cost_cache()->invalidations(), 0);
  EXPECT_EQ(results[2].stats.cost_cache_misses, 0);
  EXPECT_EQ(results[2].stats.costings, 0);
  for (const SolveResult& result : results) {
    EXPECT_EQ(result.schedule.configs, results[1].schedule.configs);
    EXPECT_EQ(result.schedule.total_cost, results[1].schedule.total_cost);
  }
}

// ---------------------------------------------------------------------
// Every probe, whichever memo answers it.

// Everything the engine's probes answer for one fixture.
struct ProbeValues {
  std::vector<double> exec;      // PrecomputeCostMatrix cells.
  std::vector<double> segment;   // SegmentCost, every (segment, config).
  std::vector<double> range;     // RangeCost over two ranges per config.
  std::vector<double> shape;     // ShapeCost, every (shape, config).
  std::vector<double> schedule;  // EvaluateScheduleCost of four schedules.
};

// Probes `fixture` through `tally` (null: the engine's own memo) on
// `threads` threads.
ProbeValues ProbeAll(const ProblemFixture& fixture, ProbeTally* tally,
                     int threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const WhatIfEngine& engine = *fixture.what_if;
  const CandidateSpace& space = fixture.problem.candidates;
  const size_t n = engine.num_segments();
  const size_t m = space.size();
  const std::vector<WorkloadShape>& shapes = engine.workload_profile();
  ProbeValues values;
  const CostMatrix matrix =
      engine
          .PrecomputeCostMatrix(space, pool.get(), nullptr, nullptr, nullptr,
                                nullptr, tally)
          .value();
  for (size_t i = 0; i < n * m; ++i) {
    values.exec.push_back(matrix.Exec(i / m, i % m));
  }
  values.segment.resize(n * m);
  ParallelFor(pool.get(), 0, n * m, [&](size_t i) {
    values.segment[i] = engine.SegmentCost(i / m, space[i % m], tally);
  });
  values.range.resize(2 * m);
  ParallelFor(pool.get(), 0, m, [&](size_t c) {
    values.range[2 * c] = engine.RangeCost(0, n, space[c], tally);
    values.range[2 * c + 1] = engine.RangeCost(1, n - 1, space[c], tally);
  });
  values.shape.resize(shapes.size() * m);
  ParallelFor(pool.get(), 0, shapes.size() * m, [&](size_t i) {
    values.shape[i] = engine.ShapeCost(shapes[i / m], space[i % m], tally);
  });
  for (size_t stride = 1; stride <= 4; ++stride) {
    std::vector<Configuration> configs;
    for (size_t i = 0; i < n; ++i) configs.push_back(space[(i * stride) % m]);
    values.schedule.push_back(
        EvaluateScheduleCost(fixture.problem, configs, tally));
  }
  return values;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << what << " #" << i << ": " << got[i] << " vs " << want[i];
  }
}

// Σ_i SegmentCost(i, config), summed in segment order.
double SumOfSegments(const WhatIfEngine& engine, const Configuration& config) {
  double cost = 0.0;
  for (size_t i = 0; i < engine.num_segments(); ++i) {
    cost += engine.SegmentCost(i, config);
  }
  return cost;
}

TEST(CostCacheProbeTest, EveryProbeIsBitIdenticalAcrossMemosAndThreads) {
  CostCache shared;  // Warmed by every earlier seed and variant.
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    auto reference = MakeRandomProblem(seed, /*num_segments=*/6,
                                       /*block_size=*/12);
    const ProbeValues want = ProbeAll(*reference, nullptr, 1);
    // The matrix cells are the probes' own sums.
    ExpectSameBits(want.exec, want.segment, "exec vs SegmentCost");
    const size_t m = reference->problem.candidates.size();
    for (size_t c = 0; c < m; ++c) {
      EXPECT_EQ(want.range[2 * c],
                SumOfSegments(*reference->what_if,
                              reference->problem.candidates[c]));
    }
    for (const int threads : {1, 4}) {
      CostCache capped(2 * CostCache::kEntryBytes);
      for (CostCache* cache : {static_cast<CostCache*>(nullptr), &shared,
                               &capped}) {
        auto fixture = MakeRandomProblem(seed, /*num_segments=*/6,
                                         /*block_size=*/12);
        ProbeTally tally{.cache = cache};
        const ProbeValues got = ProbeAll(*fixture, &tally, threads);
        const std::string label = "seed " + std::to_string(seed) + ", " +
                                  std::to_string(threads) + " threads, " +
                                  (cache == nullptr   ? "own memo"
                                   : cache == &shared ? "shared cache"
                                                      : "capped cache");
        ExpectSameBits(got.exec, want.exec, label + ": exec");
        ExpectSameBits(got.segment, want.segment, label + ": SegmentCost");
        ExpectSameBits(got.range, want.range, label + ": RangeCost");
        ExpectSameBits(got.shape, want.shape, label + ": ShapeCost");
        ExpectSameBits(got.schedule, want.schedule,
                       label + ": EvaluateScheduleCost");
      }
    }

    // WHATIF over the same statements: the service's answer is the
    // segment-order sum of EXEC, at 1 and 4 concurrent callers.
    ServiceOptions options;
    options.rows = 100'000;
    options.domain_size = testing_util::kTestDomain;
    options.block_size = 12;
    options.window_statements = 0;
    options.num_threads = 1;
    AdvisorService service(options);
    Workload workload;
    workload.statements = reference->statements;
    ASSERT_TRUE(service.IngestSql(WriteTrace(options.schema, workload)).ok());
    std::vector<std::vector<double>> answers(4, std::vector<double>(2 * m));
    std::vector<std::thread> callers;
    for (size_t t = 0; t < answers.size(); ++t) {
      callers.emplace_back([&, t] {
        for (size_t c = 0; c < m; ++c) {
          const Result<WhatIfAnswer> answer =
              service.WhatIfConfig(reference->problem.candidates[c]);
          ASSERT_TRUE(answer.ok()) << answer.status();
          answers[t][2 * c] = answer->exec_cost;
          answers[t][2 * c + 1] = answer->base_exec_cost;
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    std::vector<double> whatif_want;
    for (size_t c = 0; c < m; ++c) {
      whatif_want.push_back(SumOfSegments(*reference->what_if,
                                          reference->problem.candidates[c]));
      whatif_want.push_back(
          SumOfSegments(*reference->what_if, Configuration::Empty()));
    }
    for (const std::vector<double>& got : answers) {
      ExpectSameBits(got, whatif_want, "seed " + std::to_string(seed) +
                                           ": WHATIF");
    }
  }
}

}  // namespace
}  // namespace cdpd
