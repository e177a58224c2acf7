#ifndef CDPD_CORE_SEGMENT_SOLVER_H_
#define CDPD_CORE_SEGMENT_SOLVER_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "core/design_problem.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Knobs of the segment-parallel k-aware solver (SolveOptions embeds
/// one; only read for OptimizerMethod::kOptimal with a finite k).
///
/// Segmenting is opt-in. It performs (m + 1)x the monolithic DP's
/// relaxations (one chunk DP per (chunk, entry config) pair plus a
/// rebuild pass) to buy chunk-granularity parallelism, which only pays
/// once the worker count passes ~m. On a 2001-stage, m = 24, k = 4
/// sliding-window re-solve (4-vCPU host) it costs 1.086e8 relaxations
/// against the monolithic 4.656e6, and ~130 ms per solve against
/// ~20 ms at one thread (63-112 ms against 37 ms at four).
struct SegmentSolveOptions {
  /// How many consecutive chunks to split the stage sequence into.
  /// 0 (auto) and 1 = monolithic: the plain SolveKAware DP runs;
  /// >= 2 = segmented (clamped to the stage count). The schedule and
  /// cost are exact for every value, and the chunk count never depends
  /// on the thread count, so results stay identical for any number of
  /// workers.
  int num_chunks = 0;

  Status Validate() const;
};

/// The chunk count SolveKAwareSegmented will use for `num_stages` DP
/// stages under `options` (after clamping); <= 1 means the monolithic
/// SolveKAware runs instead. Auto (0) always resolves to 1.
/// Deterministic and thread-count-free.
size_t ResolveNumChunks(const SegmentSolveOptions& options,
                        size_t num_stages);

/// Exact segment-parallel variant of SolveKAware for long stage
/// sequences: the n stages are split into `num_chunks` consecutive
/// chunks (balanced by statement weight via SplitStagesBalanced, so
/// boundaries respect adaptive segmentation), each chunk is solved as
/// an independent layered DP *per entry configuration* in parallel on
/// ctx.pool, and a small boundary DP stitches the per-chunk tables back
/// together, apportioning the change budget k across chunks.
///
/// Why this is exact: any schedule decomposes at the chunk boundaries
/// into (entry config e_t, changes-used c_t, exit config x_t) per
/// chunk, where e_t = x_{t-1} and the boundary transition is charged
/// to chunk t (its first stage enters at layer 1 unless it keeps e_t).
/// Phase A computes, for every chunk and every entry, the exact
/// minimum chunk cost per (changes, exit) cell — the same ascending
/// argmin sweeps as SolveKAware, serial within a chunk task. Phase B's
/// stitch DP minimizes over all (e_t, c_t) splits with Σ c_t <= k.
/// Phase C re-solves each chunk for its chosen entry with a parent
/// table and extracts the optimal path. Every phase scans in fixed
/// ascending order, so the schedule is identical for any thread count;
/// the cost equals the monolithic DP optimum (the reported total is
/// re-evaluated through EvaluateScheduleCost, like every solver).
///
/// Compared to the monolithic DP this performs (m + 1)x the relax
/// work (one chunk DP per entry config, then the rebuild) but
/// parallelizes at chunk granularity, so it only wins with more
/// workers than candidate configurations. Solve() runs it only for an
/// explicit num_chunks >= 2; its chunk tables are also the natural
/// checkpoints for an incremental re-solve of a sliding window.
///
/// Anytime/memory semantics mirror SolveKAware coarsely: a budget
/// expiry or a refused table reservation degrades to
/// BestStaticSchedule flagged deadline_hit/best_effort (the chunk
/// tables do not admit the monolithic prefix freeze). Stats adds
/// segment_chunks and stitch_window. num_chunks must be >= 2 and
/// <= the stage count (callers resolve via ResolveNumChunks and
/// dispatch to SolveKAware otherwise). Internal: reached through
/// Solve() (method kOptimal with k set and segmented.num_chunks >= 2);
/// `ctx` carries the per-call state (core/solve_context.h).
Result<DesignSchedule> SolveKAwareSegmented(const DesignProblem& problem,
                                            int64_t k, size_t num_chunks,
                                            SolveStats* stats,
                                            const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_SEGMENT_SOLVER_H_
