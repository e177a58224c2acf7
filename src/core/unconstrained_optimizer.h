#ifndef CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_
#define CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_

#include "common/result.h"
#include "core/design_problem.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Optimal *unconstrained* dynamic physical design (Agrawal, Chu &
/// Narasayya's formulation, §3 of the paper): the weighted shortest
/// path through the sequence graph, computed as a stage-by-stage
/// dynamic program over the candidate configurations —
///
///   dist_1(c) = TRANS(C0, c) + EXEC(S_1, c)
///   dist_i(c) = min_{c'} [ dist_{i-1}(c') + TRANS(c', c) ] + EXEC(S_i, c)
///
/// which is exactly the O(|V| + |E|) DAG shortest path on the graph of
/// Figure 1, in O(n * |candidates|^2) time (= O(n * 2^{2m}) when the
/// candidate space is all subsets of m indexes).
///
/// Internal: reached through Solve() whenever k is unset (and by the
/// merging and hybrid methods); `ctx` carries the per-call state
/// (core/solve_context.h). Precomputes the dense EXEC/TRANS matrices
/// (in parallel across ctx.pool), then relaxes each stage's
/// configurations serially. With a tracer the solve records
/// "unconstrained.precompute", "unconstrained.dp", and a
/// "unconstrained.stage" span per DP stage.
///
/// Anytime semantics: budget expiry is polled between precompute
/// blocks and DP stages. On expiry mid-DP the best completed prefix is
/// frozen (its cheapest end-of-prefix configuration is held for the
/// remaining stages) and returned with stats->deadline_hit set;
/// DeadlineExceeded only when the budget expires before the precompute
/// finishes, i.e. before any feasible schedule can be priced. The
/// tracker is charged the dense cost matrix (kCostMatrix) and the DP
/// arrays (kSequenceGraph); when its soft limit refuses either
/// reservation the solve returns BestStaticSchedule flagged
/// best_effort/deadline_hit instead of allocating past budget.
Result<DesignSchedule> SolveUnconstrained(const DesignProblem& problem,
                                          SolveStats* stats,
                                          const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_UNCONSTRAINED_OPTIMIZER_H_
