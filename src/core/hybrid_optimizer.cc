#include "core/hybrid_optimizer.h"

#include "core/design_merging.h"
#include "core/k_aware_graph.h"
#include "core/unconstrained_optimizer.h"

namespace cdpd {

std::string_view HybridChoiceToString(HybridChoice choice) {
  switch (choice) {
    case HybridChoice::kUnconstrainedSufficed:
      return "unconstrained";
    case HybridChoice::kKAwareGraph:
      return "k-aware-graph";
    case HybridChoice::kMerging:
      return "merging";
  }
  return "unknown";
}

Result<HybridResult> SolveHybrid(const DesignProblem& problem, int64_t k,
                                 SolveStats* stats, const SolveContext& ctx) {
  HybridResult result;
  SolveStats local_stats;
  DesignSchedule unconstrained;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "hybrid.probe", "solver");
    CDPD_ASSIGN_OR_RETURN(unconstrained,
                          SolveUnconstrained(problem, &local_stats, ctx));
  }
  const int64_t l = CountChanges(problem, unconstrained.configs);
  result.unconstrained_changes = l;
  result.unconstrained_cost = unconstrained.total_cost;
  if (l <= k) {
    CDPD_LOG(ctx.logger, LogLevel::kInfo, "hybrid.choice",
             LogField("choice", "unconstrained"),
             LogField("unconstrained_changes", l), LogField("k", k));
    result.schedule = std::move(unconstrained);
    result.choice = HybridChoice::kUnconstrainedSufficed;
    if (stats != nullptr) *stats = local_stats;
    return result;
  }

  const auto n = static_cast<double>(problem.num_segments());
  const auto c = static_cast<double>(problem.candidates.size());
  // l > k here, so k < l <= n + 1 and the int64 arithmetic is safe.
  const double graph_work = static_cast<double>(k + 1) * n * c * c;
  const double merging_work =
      c * (static_cast<double>(l * l - k * k)) / 2.0;

  // An already-spent budget forces the merging branch: its static
  // fallback answers immediately, whereas the k-aware DP would pay a
  // precompute only to return DeadlineExceeded.
  const bool prefer_kaware =
      graph_work <= merging_work && !BudgetExpired(ctx.budget);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "hybrid.choice",
           LogField("choice", prefer_kaware ? "k-aware-graph" : "merging"),
           LogField("unconstrained_changes", l), LogField("k", k),
           LogField("graph_work", graph_work),
           LogField("merging_work", merging_work));

  // Whichever branch is chosen, a failure there must not hide an
  // answer the other branch can give — retry the other one and only
  // surface the original error when both come up empty.
  Status first_error = Status::OK();
  for (const bool kaware : {prefer_kaware, !prefer_kaware}) {
    SolveStats phase_stats;
    Result<DesignSchedule> attempt = [&]() -> Result<DesignSchedule> {
      if (kaware) {
        CDPD_TRACE_SPAN(ctx.tracer, "hybrid.kaware", "solver", k);
        return SolveKAware(problem, k, &phase_stats, ctx);
      }
      CDPD_TRACE_SPAN(ctx.tracer, "hybrid.merge", "solver", l - k);
      return MergeToConstraint(problem, unconstrained, k, &phase_stats, ctx);
    }();
    if (attempt.ok()) {
      result.schedule = std::move(attempt).value();
      result.choice =
          kaware ? HybridChoice::kKAwareGraph : HybridChoice::kMerging;
      local_stats.Accumulate(phase_stats);
      if (stats != nullptr) *stats = local_stats;
      return result;
    }
    if (first_error.ok()) first_error = attempt.status();
  }
  return first_error;
}

}  // namespace cdpd
