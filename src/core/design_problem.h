#ifndef CDPD_CORE_DESIGN_PROBLEM_H_
#define CDPD_CORE_DESIGN_PROBLEM_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "advisor/candidate_space.h"
#include "catalog/configuration.h"
#include "common/result.h"
#include "cost/what_if.h"

namespace cdpd {

/// An instance of the (constrained) dynamic physical design problem of
/// Definition 1: a segmented workload (behind the what-if oracle), a
/// candidate configuration space, an initial design C0, a space bound
/// b, and — supplied separately to each optimizer — a change bound k.
struct DesignProblem {
  /// EXEC/TRANS oracle over the workload's segments. Not owned; must
  /// outlive the problem.
  const WhatIfEngine* what_if = nullptr;

  /// The pinned configuration space the C_i are drawn from, addressed
  /// by ConfigId inside every solver (a std::vector<Configuration> or
  /// braced list assigned here promotes implicitly). Every entry must
  /// satisfy SIZE <= space_bound_pages (Validate checks).
  CandidateSpace candidates;

  /// C0: the design in effect before S_1. Need not be in `candidates`.
  Configuration initial;

  /// Optional destination constraint ("the rightmost node... can serve
  /// to constrain the final configuration"). When set, the transition
  /// TRANS(C_n, final) is added to every schedule's cost; per the
  /// paper's experiments the final transition happens after the last
  /// statement and does not count against k.
  std::optional<Configuration> final_config;

  /// Space bound b in pages.
  int64_t space_bound_pages = std::numeric_limits<int64_t>::max();

  /// Whether C0 != C1 counts against the change bound k. The paper's
  /// Definition 1 reads as if it does, but its experiments clearly do
  /// not charge the initial index build as one of the k changes (the
  /// k=2 design of Table 2 changes design at both major shifts *and*
  /// builds an initial index); the default matches the experiments.
  bool count_initial_change = false;

  size_t num_segments() const { return what_if->num_segments(); }

  /// Structural sanity: oracle present, non-empty candidate set, every
  /// candidate (and the initial/final designs) within the space bound.
  Status Validate() const;
};

/// A solution: one configuration per workload segment, plus its
/// sequence execution cost Σ EXEC(S_i, C_i) + TRANS(C_{i-1}, C_i)
/// (including TRANS(C_n, final) when the destination is constrained).
struct DesignSchedule {
  std::vector<Configuration> configs;
  double total_cost = 0.0;
};

/// Number of design changes of `configs` under the problem's counting
/// policy: |{i in [2, n] : C_{i-1} != C_i}|, plus 1 if
/// count_initial_change and C0 != C1.
int64_t CountChanges(const DesignProblem& problem,
                     const std::vector<Configuration>& configs);

/// The cheapest feasible *static* schedule: one candidate held across
/// every segment (at most one change — the initial build — so any
/// k >= 1 is satisfied, as is k = 0 unless the initial change counts).
/// This is the solvers' last-resort anytime fallback when a deadline
/// expires before they have a better feasible answer; the serial scan
/// over candidates is deterministic (first minimum wins).
/// FailedPrecondition when no candidate satisfies the bound (only
/// possible for k = 0 with count_initial_change and C0 absent from
/// the candidate set). `tally` (optional) is charged the what-if
/// costings the scan runs.
Result<DesignSchedule> BestStaticSchedule(const DesignProblem& problem,
                                          std::optional<int64_t> k,
                                          ProbeTally* tally = nullptr);

/// Recomputes the sequence execution cost of `configs` from the
/// oracle. Every optimizer's reported total_cost must agree with this
/// (the tests enforce it). `tally` (optional) is charged the what-if
/// costings the evaluation runs (memo hits add nothing).
double EvaluateScheduleCost(const DesignProblem& problem,
                            const std::vector<Configuration>& configs,
                            ProbeTally* tally = nullptr);

}  // namespace cdpd

#endif  // CDPD_CORE_DESIGN_PROBLEM_H_
