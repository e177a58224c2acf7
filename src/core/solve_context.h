#ifndef CDPD_CORE_SOLVE_CONTEXT_H_
#define CDPD_CORE_SOLVE_CONTEXT_H_

#include "common/budget.h"
#include "common/log.h"
#include "common/progress.h"
#include "common/resource_tracker.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "cost/probe_tally.h"

namespace cdpd {

/// The per-call state of one Solve(), resolved once from its
/// SolveOptions and handed to every sub-solver it dispatches
/// (SolveKAware, SolveUnconstrained, SolveGreedySeq, SolveHybrid,
/// SolveByRanking, SolveKAwareSegmented, MergeToConstraint). Those
/// sub-solvers are internal: callers go through Solve() (core/solver.h),
/// which alone builds a populated context. Every member is borrowed and
/// may be null; a default-constructed context runs serially with no
/// budget and no sinks.
///
/// None of the members changes a result. Schedules and costs are
/// byte-identical with or without them, for any thread count:
///  * `pool` fans out the coarse-grained phases (what-if precompute,
///    pruning, greedy growth steps, merging sweeps, segment chunks);
///    DP stages always relax serially.
///  * `tracer` records the per-phase solver spans; `logger` gets phase
///    start/end, fallback and deadline events; `progress` is invoked
///    at the budget poll sites and must be thread-safe (precompute
///    shards report from worker threads — see common/progress.h).
///  * `budget` bounds the solve. Expiry is polled between phases,
///    precompute blocks and DP stages, and each sub-solver degrades to
///    its documented anytime fallback (DESIGN.md §6d); a budget that
///    never expires leaves the result byte-identical.
///  * `tracker` accounts the big allocations (cost matrix, DP tables,
///    graph, ranking queue, candidate set, merging tables). A
///    reservation its soft limit refuses degrades through the same
///    anytime machinery as a deadline instead of allocating past
///    budget.
///  * `tally` lends every what-if probe of the call the caller's cost
///    cache, if any (SolveOptions::cost_cache; cost/cost_cache.h),
///    which changes probe counts, never costs. It receives this call's
///    own probe traffic — costings and memo hits/misses/evictions —
///    exact even while other callers share the engine or the cache.
struct SolveContext {
  ThreadPool* pool = nullptr;
  Tracer* tracer = nullptr;
  const Budget* budget = nullptr;
  const ProgressFn* progress = nullptr;
  Logger* logger = nullptr;
  ResourceTracker* tracker = nullptr;
  ProbeTally* tally = nullptr;

  /// Worker count the phases run on (1 without a pool).
  int threads() const { return pool != nullptr ? pool->num_threads() : 1; }
};

}  // namespace cdpd

#endif  // CDPD_CORE_SOLVE_CONTEXT_H_
