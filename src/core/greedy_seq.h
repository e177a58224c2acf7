#ifndef CDPD_CORE_GREEDY_SEQ_H_
#define CDPD_CORE_GREEDY_SEQ_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/design_problem.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Options of the GREEDY-SEQ candidate reduction.
struct GreedySeqOptions {
  /// The m candidate *indexes* (not configurations) the greedy
  /// construction composes.
  std::vector<IndexDef> candidate_indexes;
  /// Cap on indexes per configuration (the paper's experiments use 1).
  int32_t max_indexes_per_config = 1 << 20;
};

/// Outcome of a GREEDY-SEQ solve.
struct GreedySeqResult {
  DesignSchedule schedule;
  /// The reduced configuration set the shortest-path search ran on —
  /// O(m n) configurations instead of 2^m.
  std::vector<Configuration> reduced_candidates;
};

/// GREEDY-SEQ adapted to the constrained problem (§4.1): instead of
/// searching all 2^m index subsets, build a small candidate set — for
/// each segment, grow a configuration greedily (always adding the
/// index with the largest EXEC improvement, subject to the space bound
/// and max_indexes_per_config), keeping every intermediate
/// configuration — then run the k-aware shortest-path search over that
/// reduced set. `problem.candidates` is ignored and replaced by the
/// reduced set; pass nullopt k for the unconstrained variant (Agrawal
/// et al.'s original GREEDY-SEQ).
///
/// Internal: reached through Solve() (method kGreedySeq, which
/// validates that candidate indexes are given); `ctx` carries the
/// per-call state (core/solve_context.h). `stats` receives the counters
/// of the whole solve (greedy growth + graph search).
///
/// Each greedy growth step prices all candidate indexes in parallel
/// across ctx.pool (the argmin is a serial scan in index order, so the
/// reduced set is identical for any thread count), and the graph
/// search inherits the pool. With a tracer the solve records a
/// "greedyseq.grow" span per segment and a "greedyseq.graph" span
/// around the reduced-set graph search.
///
/// Anytime semantics: budget expiry is polled between greedy growth
/// steps and segments (a growth step always completes, so the reduced
/// set is a deterministic prefix of the un-budgeted one). When the
/// growth is cut short, the graph search still runs — un-budgeted,
/// over the partial reduced set, which always contains the empty and
/// initial configurations, so a feasible schedule is guaranteed — and
/// the result carries stats.deadline_hit and stats.best_effort. When
/// the growth completes, the graph search runs under the remaining
/// budget and inherits the k-aware/unconstrained anytime semantics.
/// The tracker meters the growing reduced candidate set (kCandidates)
/// as it is built — a limit tripped mid-growth stops the growth at the
/// next poll, exactly like a deadline — and the graph search charges
/// its own tables.
Result<GreedySeqResult> SolveGreedySeq(const DesignProblem& problem,
                                       std::optional<int64_t> k,
                                       const GreedySeqOptions& options,
                                       SolveStats* stats,
                                       const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_GREEDY_SEQ_H_
