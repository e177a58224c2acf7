#include "core/unconstrained_optimizer.h"

#include <limits>

#include "common/stopwatch.h"

namespace cdpd {

Result<DesignSchedule> SolveUnconstrained(const DesignProblem& problem,
                                          SolveStats* stats,
                                          const SolveContext& ctx) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  const WhatIfEngine& what_if = *problem.what_if;
  const Stopwatch watch;
  const size_t n = problem.num_segments();
  const CandidateSpace& configs = problem.candidates;
  const size_t m = configs.size();

  SolveStats local_stats;
  local_stats.threads_used = ctx.threads();
  DesignSchedule schedule;
  if (n == 0) {
    if (problem.final_config.has_value()) {
      schedule.total_cost =
          what_if.TransitionCost(problem.initial, *problem.final_config);
    }
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  CDPD_LOG(ctx.logger, LogLevel::kInfo, "unconstrained.start",
           LogField("segments", n), LogField("candidates", m));

  // Charge the matrix and the DP arrays (dist/next doubles plus the
  // n x m parent table) before allocating either; a refusal degrades
  // to the cheapest static schedule instead of blowing the budget.
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      ctx.tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation dp_reservation;
  if (matrix_reservation.ok()) {
    dp_reservation = ScopedReservation::Try(
        ctx.tracker, MemComponent::kSequenceGraph,
        static_cast<int64_t>((2 * m) * sizeof(double) +
                             n * m * sizeof(size_t)));
  }
  if (!matrix_reservation.ok() || !dp_reservation.ok()) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "unconstrained.memory_limit",
             LogField("limit_bytes", ctx.tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    CDPD_ASSIGN_OR_RETURN(
        schedule, BestStaticSchedule(problem, std::nullopt, ctx.tally));
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  // Parallel precompute; the DP below is pure table lookups.
  CostMatrix matrix;
  {
    CDPD_TRACE_SPAN(ctx.tracer, "unconstrained.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(
                    configs, ctx.pool, ctx.tracer, ctx.budget, ctx.progress,
                    ctx.logger, ctx.tally));
  }
  if (!matrix.complete()) {
    return Status::DeadlineExceeded(
        "budget expired during the what-if precompute, before any "
        "feasible schedule could be priced");
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(m);
  std::vector<std::vector<size_t>> parent(n, std::vector<size_t>(m, 0));

  CDPD_TRACE_SPAN(ctx.tracer, "unconstrained.dp", "solver",
                  static_cast<int64_t>(n));
  ParallelFor(ctx.pool, 0, m, [&](size_t c) {
    dist[c] = what_if.TransitionCost(problem.initial, configs[c]) +
              matrix.Exec(0, c);
  });
  std::vector<double> next(m, kInf);

  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return done;
  };
  // Anytime fallback: the budget expired with the DP `last_stage`
  // stages deep — freeze the cheapest completed prefix by holding its
  // final configuration for the remaining stages. dist holds the
  // stage-`last_stage` values and parent rows 1..last_stage are
  // filled, so the frozen schedule is exactly a DP prefix plus a
  // no-change tail (always feasible: the unconstrained problem has no
  // change bound).
  const auto freeze_prefix = [&](size_t last_stage) -> DesignSchedule {
    double best = kInf;
    size_t best_c = 0;
    for (size_t c = 0; c < m; ++c) {
      double cost = dist[c] + matrix.ExecRange(last_stage + 1, n, c);
      if (problem.final_config.has_value()) {
        cost += what_if.TransitionCost(configs[c], *problem.final_config);
      }
      if (cost < best) {
        best = cost;
        best_c = c;
      }
    }
    DesignSchedule frozen;
    frozen.configs.assign(n, configs[best_c]);
    size_t c = best_c;
    for (size_t s = last_stage + 1; s-- > 0;) {
      frozen.configs[s] = configs[c];
      c = parent[s][c];
    }
    frozen.total_cost =
        EvaluateScheduleCost(problem, frozen.configs, ctx.tally);
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    return frozen;
  };

  for (size_t stage = 1; stage < n; ++stage) {
    if (BudgetExpired(ctx.budget)) {
      local_stats.nodes_expanded = static_cast<int64_t>(stage * m);
      local_stats.relaxations =
          static_cast<int64_t>(stage - 1) * static_cast<int64_t>(m * m);
      CDPD_LOG(ctx.logger, LogLevel::kWarn, "unconstrained.deadline",
               LogField("stage", stage), LogField("stages", n));
      return finish(freeze_prefix(stage - 1));
    }
    ReportProgress(ctx.progress, "unconstrained.dp",
                   static_cast<double>(stage) / static_cast<double>(n));
    CDPD_TRACE_SPAN(ctx.tracer, "unconstrained.stage", "solver",
                    static_cast<int64_t>(stage));
    // Serial: a stage's m cells are too little work to pay for a pool
    // round trip and barrier; the pool serves the precompute above.
    std::vector<size_t>& stage_parent = parent[stage];
    for (size_t c = 0; c < m; ++c) {
      // Unit-stride sweep over the transposed TRANS row: for the fixed
      // destination c, trans_into[p] == Trans(p, c).
      const double* trans_into = matrix.TransInto(c);
      double best = kInf;
      size_t best_prev = 0;
      for (size_t p = 0; p < m; ++p) {
        const double cost = dist[p] + trans_into[p];
        if (cost < best) {
          best = cost;
          best_prev = p;
        }
      }
      next[c] = best + matrix.Exec(stage, c);
      stage_parent[c] = best_prev;
    }
    std::swap(dist, next);
  }
  local_stats.nodes_expanded = static_cast<int64_t>(n * m);
  local_stats.relaxations =
      static_cast<int64_t>(n - 1) * static_cast<int64_t>(m * m);

  // Destination: unconstrained, or a forced final transition.
  double best = kInf;
  size_t best_last = 0;
  for (size_t c = 0; c < m; ++c) {
    double cost = dist[c];
    if (problem.final_config.has_value()) {
      cost += what_if.TransitionCost(configs[c], *problem.final_config);
    }
    if (cost < best) {
      best = cost;
      best_last = c;
    }
  }

  schedule.total_cost = best;
  schedule.configs.resize(n);
  size_t c = best_last;
  for (size_t stage = n; stage-- > 0;) {
    schedule.configs[stage] = configs[c];
    c = parent[stage][c];
  }
  ReportProgress(ctx.progress, "unconstrained.dp", 1.0, schedule.total_cost);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "unconstrained.end",
           LogField("cost", schedule.total_cost),
           LogField("nodes_expanded", local_stats.nodes_expanded),
           LogField("relaxations", local_stats.relaxations));
  local_stats.wall_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return schedule;
}

}  // namespace cdpd
