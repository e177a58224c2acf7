#include "core/design_merging.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/stopwatch.h"

namespace cdpd {

namespace {

/// A maximal run of consecutive segments executed under one
/// configuration.
struct Run {
  Configuration config;
  size_t begin = 0;  // First segment index.
  size_t end = 0;    // One past the last segment index.
};

std::vector<Run> BuildRuns(const std::vector<Configuration>& configs) {
  std::vector<Run> runs;
  for (size_t i = 0; i < configs.size(); ++i) {
    if (!runs.empty() && runs.back().config == configs[i]) {
      runs.back().end = i + 1;
    } else {
      runs.push_back(Run{configs[i], i, i + 1});
    }
  }
  return runs;
}

int64_t RunChanges(const DesignProblem& problem, const std::vector<Run>& runs) {
  if (runs.empty()) return 0;
  int64_t changes = static_cast<int64_t>(runs.size()) - 1;
  if (problem.count_initial_change &&
      !(runs.front().config == problem.initial)) {
    ++changes;
  }
  return changes;
}

/// Cost of the transition leaving the last run (forced final design),
/// or 0 when the destination is unconstrained.
double ExitCost(const DesignProblem& problem, const Configuration& last) {
  if (!problem.final_config.has_value()) return 0.0;
  return problem.what_if->TransitionCost(last, *problem.final_config);
}

}  // namespace

Result<DesignSchedule> MergeToConstraint(const DesignProblem& problem,
                                         const DesignSchedule& initial_schedule,
                                         int64_t k, SolveStats* stats,
                                         const SolveContext& ctx) {
  CDPD_RETURN_IF_ERROR(problem.Validate());
  if (initial_schedule.configs.size() != problem.num_segments()) {
    return Status::InvalidArgument(
        "initial schedule has " +
        std::to_string(initial_schedule.configs.size()) + " segments, problem has " +
        std::to_string(problem.num_segments()));
  }

  SolveStats local_stats;
  local_stats.threads_used = ctx.threads();
  const Stopwatch watch;
  const WhatIfEngine& what_if = *problem.what_if;
  std::vector<Run> runs = BuildRuns(initial_schedule.configs);
  const int64_t initial_changes = RunChanges(problem, runs);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "merging.start",
           LogField("initial_changes", initial_changes), LogField("k", k),
           LogField("candidates", problem.candidates.size()));

  // The mid-refinement runs still violate k, so they are never a
  // feasible answer — on a budget expiry or a refused memory
  // reservation the solve degrades to the cheapest static design
  // instead. Shared by both exits.
  const auto static_fallback =
      [&](int64_t changes, const char* cause) -> Result<DesignSchedule> {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "merging.fallback",
             LogField("changes", changes), LogField("k", k),
             LogField("cause", cause));
    Result<DesignSchedule> fallback =
        BestStaticSchedule(problem, k, ctx.tally);
    if (!fallback.ok()) {
      return Status::DeadlineExceeded(
          "budget expired with " + std::to_string(changes) +
          " changes still above k = " + std::to_string(k) +
          ", and no static design satisfies the bound");
    }
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return std::move(fallback).value();
  };

  // Every candidate's EXEC cells, priced once: a run's cost is then a
  // forward sum of cells — the very doubles, in the very order,
  // WhatIfEngine::RangeCost adds. A configuration outside the
  // candidate space (a hand-built schedule's) goes through RangeCost.
  ScopedReservation matrix_reservation;
  CostMatrix exec;
  if (initial_changes > k) {
    matrix_reservation = ScopedReservation::Try(
        ctx.tracker, MemComponent::kCostMatrix,
        CostMatrix::EstimateBytes(problem.num_segments(),
                                  problem.candidates.size()));
    if (!matrix_reservation.ok()) {
      return static_fallback(initial_changes, "memory-limit");
    }
    CDPD_ASSIGN_OR_RETURN(
        exec, what_if.PrecomputeCostMatrix(problem.candidates, ctx.pool,
                                           ctx.tracer, ctx.budget,
                                           ctx.progress, ctx.logger,
                                           ctx.tally));
    if (!exec.complete()) return static_fallback(initial_changes, "deadline");
  }
  const auto exec_sum = [&](size_t begin, size_t end, ConfigId config) {
    double cost = 0.0;
    for (size_t s = begin; s < end; ++s) cost += exec.Exec(s, config);
    return cost;
  };
  const auto run_cost = [&](const Run& run) {
    const std::optional<ConfigId> id = problem.candidates.IdOf(run.config);
    return id.has_value()
               ? exec_sum(run.begin, run.end, *id)
               : what_if.RangeCost(run.begin, run.end, run.config, ctx.tally);
  };

  for (;;) {
    const int64_t changes = RunChanges(problem, runs);
    // Fraction of the excess changes merged away so far.
    if (initial_changes > k) {
      ReportProgress(ctx.progress, "merging",
                     static_cast<double>(initial_changes - changes) /
                         static_cast<double>(initial_changes - k));
    }
    if (changes <= k) break;
    if (BudgetExpired(ctx.budget)) {
      return static_fallback(changes, "deadline");
    }
    CDPD_TRACE_SPAN(ctx.tracer, "merging.step", "solver", changes);
    if (runs.size() == 1) {
      // Only possible when the initial change counts and k == 0: the
      // single remaining run must be C0 itself.
      const bool c0_available =
          std::find(problem.candidates.begin(), problem.candidates.end(),
                    problem.initial) != problem.candidates.end();
      if (!c0_available) {
        return Status::FailedPrecondition(
            "k = 0 with a counted initial change requires the initial "
            "configuration to be a candidate");
      }
      runs.front().config = problem.initial;
      ++local_stats.merge_steps;
      break;
    }

    // Parallel phase: evaluate every (pair, replacement) penalty into
    // a dense table (disjoint writes; the cost matrix is read-only and
    // the what-if memo thread-safe). The winning cell is then picked
    // by a serial scan in the serial iteration order, so ties break
    // identically for any thread count.
    const size_t num_pairs = runs.size() - 1;
    const size_t num_cands = problem.candidates.size();
    // This round's penalty tables, released when the round ends. A
    // refusal degrades now rather than waiting for the next budget
    // poll — the tables are exactly what there is no budget for.
    const ScopedReservation round_reservation = ScopedReservation::Try(
        ctx.tracker, MemComponent::kMergingTable,
        static_cast<int64_t>((num_pairs + num_pairs * num_cands) *
                             sizeof(double)));
    if (!round_reservation.ok()) {
      return static_fallback(changes, "memory-limit");
    }
    std::vector<double> old_costs(num_pairs);
    ParallelFor(ctx.pool, 0, num_pairs, [&](size_t i) {
      const Run& left = runs[i];
      const Run& right = runs[i + 1];
      const Configuration& prev =
          i == 0 ? problem.initial : runs[i - 1].config;
      const bool has_next = i + 2 < runs.size();
      double old_cost = what_if.TransitionCost(prev, left.config) +
                        run_cost(left) +
                        what_if.TransitionCost(left.config, right.config) +
                        run_cost(right);
      old_cost += has_next
                      ? what_if.TransitionCost(right.config, runs[i + 2].config)
                      : ExitCost(problem, right.config);
      old_costs[i] = old_cost;
    });
    std::vector<double> penalties(num_pairs * num_cands);
    ParallelFor(ctx.pool, 0, num_pairs * num_cands, [&](size_t cell) {
      const size_t i = cell / num_cands;
      const Run& left = runs[i];
      const Run& right = runs[i + 1];
      const Configuration& prev =
          i == 0 ? problem.initial : runs[i - 1].config;
      const bool has_next = i + 2 < runs.size();
      const auto replacement_id = static_cast<ConfigId>(cell % num_cands);
      const Configuration& replacement = problem.candidates[replacement_id];
      double new_cost = what_if.TransitionCost(prev, replacement) +
                        exec_sum(left.begin, right.end, replacement_id);
      new_cost += has_next
                      ? what_if.TransitionCost(replacement, runs[i + 2].config)
                      : ExitCost(problem, replacement);
      penalties[cell] = new_cost - old_costs[i];
    });
    local_stats.candidate_evaluations +=
        static_cast<int64_t>(num_pairs * num_cands);

    double best_penalty = std::numeric_limits<double>::infinity();
    size_t best_pair = 0;
    Configuration best_replacement;
    for (size_t cell = 0; cell < penalties.size(); ++cell) {
      if (penalties[cell] < best_penalty) {
        best_penalty = penalties[cell];
        best_pair = cell / num_cands;
        best_replacement = problem.candidates[cell % num_cands];
      }
    }

    // Replace the chosen pair, then coalesce equal neighbours (this is
    // how a step can remove two changes when C' equals C_{i-1} or
    // C_{i+2}).
    runs[best_pair].config = best_replacement;
    runs[best_pair].end = runs[best_pair + 1].end;
    runs.erase(runs.begin() + static_cast<int64_t>(best_pair) + 1);
    ++local_stats.merge_steps;
    std::vector<Run> coalesced;
    for (Run& run : runs) {
      if (!coalesced.empty() && coalesced.back().config == run.config) {
        coalesced.back().end = run.end;
      } else {
        coalesced.push_back(run);
      }
    }
    runs = std::move(coalesced);
  }

  DesignSchedule schedule;
  schedule.configs.resize(problem.num_segments());
  for (const Run& run : runs) {
    for (size_t i = run.begin; i < run.end; ++i) {
      schedule.configs[i] = run.config;
    }
  }
  schedule.total_cost =
      EvaluateScheduleCost(problem, schedule.configs, ctx.tally);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "merging.end",
           LogField("cost", schedule.total_cost),
           LogField("merge_steps", local_stats.merge_steps),
           LogField("candidate_evaluations",
                    local_stats.candidate_evaluations));
  local_stats.wall_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return schedule;
}

}  // namespace cdpd
