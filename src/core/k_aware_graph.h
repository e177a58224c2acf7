#ifndef CDPD_CORE_K_AWARE_GRAPH_H_
#define CDPD_CORE_K_AWARE_GRAPH_H_

#include <cstdint>

#include "common/result.h"
#include "core/design_problem.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Size of a k-aware sequence graph (reported by the Figure 2 bench;
/// the solver itself runs the DP without materializing nodes).
struct KAwareGraphSize {
  int64_t nodes = 0;  // Stage/layer states plus source and destination.
  int64_t edges = 0;  // Stay-in-layer + change-to-next-layer edges.
};

/// Exact node/edge counts of the k-aware sequence graph with k+1
/// layers over n stages and `num_configs` candidate configurations
/// (Figure 2's object): each stage has a node per (layer, config);
/// a node at layer l has one stay edge per layer-l successor and
/// (num_configs - 1) change edges into layer l+1.
///
/// Counts saturate at INT64_MAX instead of overflowing — the product
/// n * (k+1) * |C|^2 exceeds int64 for plausible inputs (e.g.
/// k = INT64_MAX), and a reporting function must not wrap to a
/// nonsense (possibly negative) size. Inputs must be >= 0.
KAwareGraphSize ComputeKAwareGraphSize(int64_t num_stages,
                                       int64_t num_configs, int64_t k);

/// Predicted bytes of SolveKAware's DP working set — the dist/next
/// arrays (2 x layers x m doubles), the parent table (n x layers x m
/// predecessor-config cells: 2 bytes while m <= 65535, else 4), and
/// the boundary transition vectors — using the same
/// layer clamp the solver applies (layers = min(k, n - 1 +
/// count_initial_change) + 1). This is the model the explain report
/// quotes against the measured MemComponent::kKAwareTable peak, and
/// the figure a caller should budget when sizing
/// SolveOptions::memory_limit_bytes; saturates at INT64_MAX. The
/// O(k n 2^{2m}) space bound of §3 is this quantity with m = 2^{2m'}
/// candidate configurations.
int64_t PredictKAwareTableBytes(int64_t num_stages, int64_t num_configs,
                                int64_t k, bool count_initial_change);

/// Optimal *constrained* dynamic physical design (§3, the paper's
/// contribution): shortest path through the k-aware sequence graph,
/// whose layers 0..k record the number of design changes used so far.
/// Staying in the same configuration keeps the layer; switching
/// configurations moves one layer down. Runs in O(k * n * |C|^2) time
/// (= O(k n 2^{2m})), and returns a schedule with at most k changes
/// under the problem's change-counting policy. Internal: reached
/// through Solve() (method kOptimal with k set); `ctx` carries the
/// per-call state (core/solve_context.h).
///
/// The solve first precomputes the dense EXEC/TRANS cost matrices
/// (WhatIfEngine::PrecomputeCostMatrix, fanned out across ctx.pool)
/// and then relaxes each stage's (layer, config) cells serially — a
/// stage is too little work to pay for a pool barrier. With a tracer
/// it records "kaware.precompute", "kaware.dp", and a "kaware.stage"
/// span per DP stage.
///
/// k >= 0 (SolveOptions::Validate checks). A bound larger than the
/// most changes any schedule can make (n - 1 interior changes, plus
/// the initial build when it counts) is clamped to that maximum, so
/// huge k costs no extra layers and cannot overflow the DP table
/// sizing; a table that would still not fit in int64 cells is rejected
/// with InvalidArgument *before* any allocation.
///
/// Anytime semantics: budget expiry is polled between precompute
/// blocks and DP stages. On expiry mid-DP the cheapest completed
/// prefix is frozen (its best end-of-prefix (layer, config) cell is
/// held for the remaining stages, which adds no changes, so the k
/// bound still holds) and returned with stats->deadline_hit set;
/// DeadlineExceeded when the budget expires before any feasible
/// schedule can be priced. The tracker is charged the cost matrix
/// (kCostMatrix) and the DP tables (kKAwareTable); a refused
/// reservation returns BestStaticSchedule (flagged
/// best_effort/deadline_hit) rather than building tables it has no
/// budget for.
Result<DesignSchedule> SolveKAware(const DesignProblem& problem, int64_t k,
                                   SolveStats* stats,
                                   const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_K_AWARE_GRAPH_H_
