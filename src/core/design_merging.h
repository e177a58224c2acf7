#ifndef CDPD_CORE_DESIGN_MERGING_H_
#define CDPD_CORE_DESIGN_MERGING_H_

#include <cstdint>

#include "common/result.h"
#include "core/design_problem.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// Sequential design merging (§4.2): refines a solution of the
/// unconstrained problem until it satisfies the change bound k. Each
/// step picks the pair of consecutive distinct configurations
/// (C_i, C_{i+1}) and the replacement C' minimizing the penalty
///
///   p =   TRANS(C_{i-1}, C') + EXEC(S_i ∪ S_{i+1}, C') + TRANS(C', C_{i+2})
///       - (TRANS(C_{i-1}, C_i) + EXEC(S_i, C_i) + TRANS(C_i, C_{i+1})
///          + EXEC(S_{i+1}, C_{i+1}) + TRANS(C_{i+1}, C_{i+2}))
///
/// and replaces the pair with C'. If C' equals a neighbouring
/// configuration the step removes two changes, otherwise one. The
/// result is heuristic: it satisfies the constraint but is not
/// guaranteed optimal, even when the input schedule is the
/// unconstrained optimum.
///
/// Internal: Solve() runs it on the unconstrained optimum (method
/// kMerging, and the hybrid's merging branch); `ctx` carries the
/// per-call state (core/solve_context.h). `initial_schedule.configs`
/// must have one entry per problem segment (checked here), and k >= 0
/// (SolveOptions::Validate checks).
///
/// Each step's (pair, replacement) penalty sweep is evaluated in
/// parallel across ctx.pool; the winning replacement is selected by a
/// serial scan in the serial iteration order, so the result is
/// identical for any thread count. With a tracer each merging step
/// records a "merging.step" span (arg = remaining change count before
/// the step); progress reports the share of excess changes merged away
/// so far.
///
/// Anytime semantics: budget expiry is polled between merging rounds
/// (a started round always completes). A mid-refinement schedule still
/// violates k — the partial refinement is NOT a feasible answer — so
/// on expiry the solve degrades to the cheapest feasible static
/// schedule with stats->deadline_hit and stats->best_effort set, and
/// returns DeadlineExceeded only when not even a static design
/// satisfies the bound. The tracker is charged each round's penalty
/// tables (kMergingTable), released when the round ends; a round whose
/// tables the soft limit refuses degrades immediately to the same
/// static fallback.
Result<DesignSchedule> MergeToConstraint(const DesignProblem& problem,
                                         const DesignSchedule& initial_schedule,
                                         int64_t k, SolveStats* stats,
                                         const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_DESIGN_MERGING_H_
