#include "core/k_aware_graph.h"

#include <cstdint>
#include <limits>

#include "common/math_util.h"
#include "common/stopwatch.h"

namespace cdpd {
namespace {

/// Candidate counts up to which the parent table stores predecessor
/// config ids in 2-byte cells (ids 0..65534 fit uint16_t).
constexpr size_t kNarrowParentConfigs = 65535;

int64_t ParentCellBytes(int64_t num_configs) {
  return num_configs <= static_cast<int64_t>(kNarrowParentConfigs)
             ? int64_t{sizeof(uint16_t)}
             : int64_t{sizeof(int32_t)};
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relaxes every (layer, config) cell of one DP stage from the previous
/// stage's `dist` into `next`, recording each reached cell's
/// predecessor config in `stage_parent` (the predecessor layer is
/// implied: a stay edge keeps (l, c), a change edge comes from l - 1
/// with a config != c). Serial ascending sweeps: every cell's argmin
/// scans its predecessors in fixed order, so the tie-breaks are those
/// of the textbook p = 0..m-1 loop. Returns the reachable cells.
template <typename Pred>
int64_t RelaxStage(const CostMatrix& matrix, size_t stage, size_t layers,
                   size_t m, const double* dist, double* next,
                   Pred* stage_parent) {
  int64_t reached = 0;
  for (size_t c = 0; c < m; ++c) {
    // One transposed TRANS row per destination config, reused across
    // every layer of this stage: the row stays cache-hot while the
    // layer loop sweeps it, and each sweep is a unit-stride read
    // (trans_into[p] == Trans(p, c)) instead of a stride-m gather.
    const double* trans_into = matrix.TransInto(c);
    const double exec = matrix.Exec(stage, c);
    for (size_t l = 0; l < layers; ++l) {
      const size_t cell = l * m + c;
      // Stay edge: same configuration, same layer. An unreachable
      // cell carries +inf through unchanged — no guard needed.
      double best = dist[cell];
      size_t best_prev = c;
      // Change edges: arrive from a different configuration one layer
      // up. The p == c exclusion becomes two contiguous ranges [0, c)
      // and (c, m); both sweep ascending, so the argmin tie-break
      // matches the p = 0..m-1 scan. Unreachable predecessors need no
      // kInf guard either: inf + finite = inf never wins `cost < best`.
      if (l > 0) {
        const double* prev_layer = dist + (l - 1) * m;
        for (size_t p = 0; p < c; ++p) {
          const double cost = prev_layer[p] + trans_into[p];
          if (cost < best) {
            best = cost;
            best_prev = p;
          }
        }
        for (size_t p = c + 1; p < m; ++p) {
          const double cost = prev_layer[p] + trans_into[p];
          if (cost < best) {
            best = cost;
            best_prev = p;
          }
        }
      }
      if (best < kInf) {
        next[cell] = best + exec;
        stage_parent[cell] = static_cast<Pred>(best_prev);
        ++reached;
      } else {
        next[cell] = kInf;
      }
    }
  }
  return reached;
}

}  // namespace

KAwareGraphSize ComputeKAwareGraphSize(int64_t num_stages, int64_t num_configs,
                                       int64_t k) {
  KAwareGraphSize size;
  // Saturating throughout: k + 1 alone overflows for k = INT64_MAX,
  // and the node/edge products overflow long before that.
  const int64_t layers = SaturatingAdd(k, 1);
  size.nodes = SaturatingAdd(
      SaturatingMul(SaturatingMul(num_stages, layers), num_configs), 2);
  if (num_stages == 0) {
    size.edges = 0;
    return size;
  }
  // Source edges: into every stage-1 node of layer 0 (the initial
  // design choice; see DesignProblem::count_initial_change for why the
  // first transition does not consume a layer by default).
  int64_t edges = num_configs;
  // Between consecutive stages, per layer: num_configs stay edges, and
  // num_configs * (num_configs - 1) change edges into the next layer
  // (absent from the last layer).
  const int64_t change_edges =
      SaturatingMul(num_configs, num_configs > 0 ? num_configs - 1 : 0);
  const int64_t per_gap =
      SaturatingAdd(SaturatingMul(layers, num_configs),
                    SaturatingMul(layers - 1, change_edges));
  edges = SaturatingAdd(edges, SaturatingMul(num_stages - 1, per_gap));
  // Destination edges: from every node of the last stage.
  edges = SaturatingAdd(edges, SaturatingMul(layers, num_configs));
  size.edges = edges;
  return size;
}

int64_t PredictKAwareTableBytes(int64_t num_stages, int64_t num_configs,
                                int64_t k, bool count_initial_change) {
  if (num_stages <= 0 || num_configs <= 0) return 0;
  if (k < 0) k = 0;
  // The same layer clamp SolveKAware applies before sizing its tables.
  const int64_t max_changes = num_stages - 1 + (count_initial_change ? 1 : 0);
  const int64_t layers =
      SaturatingAdd(k >= max_changes ? max_changes : k, 1);
  const int64_t layer_cells = SaturatingMul(layers, num_configs);
  // dist + next: two layers x m double arrays.
  int64_t bytes = SaturatingMul(
      SaturatingMul(int64_t{2}, layer_cells),
      static_cast<int64_t>(sizeof(double)));
  // parent: n x layers x m predecessor-config cells.
  bytes = SaturatingAdd(
      bytes, SaturatingMul(SaturatingMul(num_stages, layer_cells),
                           ParentCellBytes(num_configs)));
  // init_trans + final_trans boundary vectors.
  bytes = SaturatingAdd(
      bytes, SaturatingMul(SaturatingMul(int64_t{2}, num_configs),
                           static_cast<int64_t>(sizeof(double))));
  return bytes;
}

Result<DesignSchedule> SolveKAware(const DesignProblem& problem, int64_t k,
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

  // No schedule over n segments can make more changes than n - 1
  // interior switches plus (when it counts) the initial build, so a
  // larger k buys nothing — clamp before sizing the DP table. The
  // clamp also makes k = INT64_MAX safe: layers is computed from the
  // clamped value, never from k + 1 directly.
  const int64_t max_changes =
      static_cast<int64_t>(n) - 1 + (problem.count_initial_change ? 1 : 0);
  const size_t layers =
      static_cast<size_t>(k >= max_changes ? max_changes : k) + 1;
  // The parent table holds n * layers * m cells; reject sizes that
  // overflow int64 before allocating (the allocation itself would
  // otherwise wrap size_t arithmetic or bad_alloc unpredictably).
  int64_t table_cells = 0;
  if (!CheckedMul(static_cast<int64_t>(n), static_cast<int64_t>(layers),
                  &table_cells) ||
      !CheckedMul(table_cells, static_cast<int64_t>(m), &table_cells)) {
    return Status::InvalidArgument(
        "k-aware DP table of " + std::to_string(n) + " stages x " +
        std::to_string(layers) + " layers x " + std::to_string(m) +
        " candidate configurations overflows the addressable size");
  }

  // Charge the two big allocation classes before making either. A
  // refusal (the tracker's soft limit would be passed) degrades to the
  // cheapest static schedule instead of allocating past budget — the
  // same anytime contract as a deadline, reached before any table
  // exists.
  ScopedReservation matrix_reservation = ScopedReservation::Try(
      ctx.tracker, MemComponent::kCostMatrix, CostMatrix::EstimateBytes(n, m));
  ScopedReservation table_reservation;
  if (matrix_reservation.ok()) {
    table_reservation = ScopedReservation::Try(
        ctx.tracker, MemComponent::kKAwareTable,
        PredictKAwareTableBytes(static_cast<int64_t>(n),
                                static_cast<int64_t>(m), k,
                                problem.count_initial_change));
  }
  if (!matrix_reservation.ok() || !table_reservation.ok()) {
    CDPD_LOG(ctx.logger, LogLevel::kWarn, "kaware.memory_limit",
             LogField("limit_bytes", ctx.tracker->limit_bytes()),
             LogField("fallback", "best-static"));
    CDPD_ASSIGN_OR_RETURN(schedule, BestStaticSchedule(problem, k, ctx.tally));
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return schedule;
  }

  // Phase 1 (parallel): dense EXEC/TRANS matrices plus the boundary
  // transition vectors. After this, the DP touches no shared mutable
  // state — every probe is a read-only table lookup.
  CostMatrix matrix;
  std::vector<double> init_trans(m, 0.0);
  std::vector<double> final_trans(m, 0.0);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "kaware.start", LogField("segments", n),
           LogField("candidates", m), LogField("k", k),
           LogField("layers", layers));
  {
    CDPD_TRACE_SPAN(ctx.tracer, "kaware.precompute", "solver");
    CDPD_ASSIGN_OR_RETURN(
        matrix, what_if.PrecomputeCostMatrix(
                    configs, ctx.pool, ctx.tracer, ctx.budget, ctx.progress,
                    ctx.logger, ctx.tally));
    if (!matrix.complete()) {
      return Status::DeadlineExceeded(
          "budget expired during the what-if precompute, before any "
          "feasible schedule could be priced");
    }
    ParallelFor(ctx.pool, 0, m, [&](size_t c) {
      init_trans[c] = what_if.TransitionCost(problem.initial, configs[c]);
      if (problem.final_config.has_value()) {
        final_trans[c] =
            what_if.TransitionCost(configs[c], *problem.final_config);
      }
    });
  }

  // dist[l * m + c]: cheapest way to execute S_1..S_i with
  // C_i = configs[c] using exactly layer l (number of changes
  // consumed).
  std::vector<double> dist(layers * m, kInf);
  // Predecessor config of cell (stage, l, c) at index
  // (stage * layers + l) * m + c, for path reconstruction: 2-byte
  // cells while config ids fit, 4-byte otherwise (one table is empty).
  const bool narrow_parent = m <= kNarrowParentConfigs;
  std::vector<uint16_t> parent16(narrow_parent ? n * layers * m : 0);
  std::vector<int32_t> parent32(narrow_parent ? 0 : n * layers * m);
  // One backtrack step from cell (stage, *l, *c) to its predecessor at
  // stage - 1: a different config means a change edge from layer l - 1.
  const auto step_back = [&](size_t stage, size_t* l, size_t* c) {
    const size_t cell = (stage * layers + *l) * m + *c;
    const auto prev = static_cast<size_t>(narrow_parent ? parent16[cell]
                                                        : parent32[cell]);
    if (prev != *c) --*l;
    *c = prev;
  };

  for (size_t c = 0; c < m; ++c) {
    const bool is_initial = configs[c] == problem.initial;
    const size_t layer =
        (problem.count_initial_change && !is_initial) ? 1 : 0;
    if (layer >= layers) continue;
    const double cost = init_trans[c] + matrix.Exec(0, c);
    if (cost < dist[layer * m + c]) {
      dist[layer * m + c] = cost;
      ++local_stats.nodes_expanded;
    }
  }

  // Phase 2: the layered DP, one serial sweep over the (layer, config)
  // cells per stage. A stage holds only layers x m cells, too little
  // work to amortize a pool round trip and barrier per stage; the pool
  // is kept for the coarse-grained precompute above.
  std::vector<double> next(layers * m, kInf);

  const auto finish = [&](DesignSchedule done) -> DesignSchedule {
    local_stats.wall_seconds = watch.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return done;
  };
  // Anytime fallback: freeze the cheapest completed DP prefix. Holding
  // the chosen cell's configuration for the remaining stages adds zero
  // design changes, so whatever layer the prefix ended in, the frozen
  // schedule still makes at most k changes. dist holds the
  // stage-`last_stage` values; parent rows 1..last_stage are filled.
  const auto freeze_prefix =
      [&](size_t last_stage) -> Result<DesignSchedule> {
    double best = kInf;
    size_t best_l = 0;
    size_t best_c = 0;
    for (size_t l = 0; l < layers; ++l) {
      for (size_t c = 0; c < m; ++c) {
        if (dist[l * m + c] == kInf) continue;
        double cost =
            dist[l * m + c] + matrix.ExecRange(last_stage + 1, n, c);
        if (problem.final_config.has_value()) cost += final_trans[c];
        if (cost < best) {
          best = cost;
          best_l = l;
          best_c = c;
        }
      }
    }
    if (best == kInf) {
      return Status::DeadlineExceeded(
          "budget expired before any feasible schedule was found (the "
          "completed k-aware DP prefix has no reachable state)");
    }
    DesignSchedule frozen;
    frozen.configs.assign(n, configs[best_c]);
    size_t l = best_l;
    size_t c = best_c;
    for (size_t stage = last_stage; stage-- > 0;) {
      step_back(stage + 1, &l, &c);
      frozen.configs[stage] = configs[c];
    }
    frozen.total_cost =
        EvaluateScheduleCost(problem, frozen.configs, ctx.tally);
    local_stats.deadline_hit = true;
    local_stats.best_effort = true;
    return frozen;
  };

  CDPD_TRACE_SPAN(ctx.tracer, "kaware.dp", "solver",
                  static_cast<int64_t>(n - 1));
  for (size_t stage = 1; stage < n; ++stage) {
    if (BudgetExpired(ctx.budget)) {
      local_stats.relaxations =
          static_cast<int64_t>(stage - 1) *
          (static_cast<int64_t>(layers * m) +
           static_cast<int64_t>((layers - 1) * m) *
               static_cast<int64_t>(m - 1));
      CDPD_LOG(ctx.logger, LogLevel::kWarn, "kaware.deadline",
               LogField("stage", stage), LogField("stages", n));
      CDPD_ASSIGN_OR_RETURN(DesignSchedule frozen, freeze_prefix(stage - 1));
      return finish(std::move(frozen));
    }
    ReportProgress(ctx.progress, "kaware.dp",
                   static_cast<double>(stage) / static_cast<double>(n));
    CDPD_TRACE_SPAN(ctx.tracer, "kaware.stage", "solver",
                    static_cast<int64_t>(stage));
    const size_t stage_offset = stage * layers * m;
    local_stats.nodes_expanded +=
        narrow_parent
            ? RelaxStage(matrix, stage, layers, m, dist.data(), next.data(),
                         parent16.data() + stage_offset)
            : RelaxStage(matrix, stage, layers, m, dist.data(), next.data(),
                         parent32.data() + stage_offset);
    std::swap(dist, next);
  }
  // Relaxation count (closed form, matching the serial edge counting:
  // one stay relaxation per cell plus m-1 change relaxations per cell
  // above layer 0, per interior stage).
  local_stats.relaxations =
      static_cast<int64_t>(n - 1) *
      (static_cast<int64_t>(layers * m) +
       static_cast<int64_t>((layers - 1) * m) * static_cast<int64_t>(m - 1));

  double best = kInf;
  size_t best_layer = 0;
  size_t best_config = 0;
  for (size_t l = 0; l < layers; ++l) {
    for (size_t c = 0; c < m; ++c) {
      if (dist[l * m + c] == kInf) continue;
      double cost = dist[l * m + c];
      if (problem.final_config.has_value()) {
        cost += final_trans[c];
      }
      if (cost < best) {
        best = cost;
        best_layer = l;
        best_config = c;
      }
    }
  }
  if (best == kInf) {
    return Status::Internal("k-aware graph has no feasible path");
  }

  schedule.total_cost = best;
  schedule.configs.resize(n);
  size_t l = best_layer;
  size_t c = best_config;
  for (size_t stage = n; stage-- > 0;) {
    schedule.configs[stage] = configs[c];
    if (stage == 0) break;
    step_back(stage, &l, &c);
  }
  ReportProgress(ctx.progress, "kaware.dp", 1.0, schedule.total_cost);
  CDPD_LOG(ctx.logger, LogLevel::kInfo, "kaware.end",
           LogField("cost", schedule.total_cost),
           LogField("nodes_expanded", local_stats.nodes_expanded),
           LogField("relaxations", local_stats.relaxations));
  local_stats.wall_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return schedule;
}

}  // namespace cdpd
