#ifndef CDPD_CORE_SOLVER_SESSION_H_
#define CDPD_CORE_SOLVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/observability.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/solver.h"
#include "cost/cost_cache.h"

namespace cdpd {

/// Long-lived resources a SolverSession owns across Solve() calls.
struct SessionOptions {
  /// Worker threads of the session-owned pool. 0 =
  /// ThreadPool::DefaultThreadCount(); 1 = serial (no pool is built).
  int num_threads = 0;
  /// Own a persistent what-if CostCache and thread it into every
  /// solve, so repeated solves over an unchanged cost model are nearly
  /// costing-free. The cache self-invalidates on a model change (see
  /// cost/cost_cache.h); disable when statements never repeat.
  bool enable_cost_cache = true;
  /// Byte cap of the owned cache; <= 0 = unbounded.
  int64_t cost_cache_max_bytes = 0;
  /// Session-default observability sinks (borrowed — must outlive the
  /// session). Merged under each call's SolveOptions::observability:
  /// a sink the call sets wins, an unset slot falls back to these.
  Observability observability;

  Status Validate() const;
};

/// A long-lived solving context for the repeated-solve pattern
/// (re-optimize after every workload window, scenario sweeps,
/// interactive advisors): one thread pool spin-up, one warm what-if
/// cache, and one set of observability sinks amortized across every
/// Solve() call, instead of per-call setup.
///
///   SolverSession session(SessionOptions{.num_threads = 8});
///   for (const auto& window : windows) {
///     auto result = session.Solve(ProblemFor(window), options);
///   }
///
/// Solve() forwards to the free Solve() with the session's pool and
/// cache injected: a per-call SolveOptions::pool / cost_cache wins
/// over the session's (a serial session, which has no pool, runs every
/// call serially unless the call lends one), per-call observability
/// sinks win slot-by-slot over the session defaults
/// (Observability::OrElse), and every other knob (method, k,
/// deadlines, pruning, segmenting) stays strictly per-call in
/// SolveOptions. Results are identical to calling the
/// free Solve() with the same effective options — the session only
/// amortizes; it never changes schedules or costs.
///
/// Thread safety: Solve() may be called from multiple threads (the
/// cache is internally synchronized and the pool is shared), but the
/// solves then contend for the same workers; total_stats() and
/// solves() are safe to read concurrently.
class SolverSession {
 public:
  /// Spins up the pool (when num_threads != 1) and the cache.
  /// `options` must Validate(); an invalid value is corrected to the
  /// default (construction cannot fail — call Validate() first when
  /// the values come from user input).
  explicit SolverSession(SessionOptions options = {});
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// One solve through the session's long-lived resources.
  Result<SolveResult> Solve(const DesignProblem& problem,
                            const SolveOptions& options);

  /// The session-owned pool (null when the session is serial).
  ThreadPool* pool() { return pool_.get(); }
  /// The session-owned cache (null when enable_cost_cache is false).
  CostCache* cost_cache() { return cost_cache_.get(); }

  /// Accumulated stats over every completed Solve() (counter fields
  /// add; shape fields like threads_used keep the max — see
  /// SolveStats::Accumulate).
  SolveStats total_stats() const;
  /// Completed Solve() calls.
  int64_t solves() const;

 private:
  SessionOptions options_;
  int threads_ = 1;  // Resolved options_.num_threads.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<CostCache> cost_cache_;
  mutable std::mutex mu_;
  SolveStats total_stats_;
  int64_t solves_ = 0;
};

}  // namespace cdpd

#endif  // CDPD_CORE_SOLVER_SESSION_H_
