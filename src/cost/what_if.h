#ifndef CDPD_COST_WHAT_IF_H_
#define CDPD_COST_WHAT_IF_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "advisor/candidate_space.h"
#include "catalog/configuration.h"
#include "common/budget.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "workload/workload.h"

namespace cdpd {

/// One literal-erased statement shape aggregated over the *whole*
/// workload: the shape and its total multiplicity across every
/// segment. Because every segment's EXEC cost is a nonnegative-weighted
/// sum of per-shape costs, any pointwise inequality over these shapes
/// transfers to every segment — the fact dominance pruning
/// (advisor/dominance.h) is built on.
struct WorkloadShape {
  StatementShape shape;
  int64_t count = 0;
};

/// Dense EXEC/TRANS lookup tables over a pinned CandidateSpace —
/// the read-only phase the graph solvers consume after
/// WhatIfEngine::PrecomputeCostMatrix. Once built, every cost probe of
/// a solver inner loop is a plain array read: no hashing, no locks, no
/// shared mutable state. Configurations are addressed by ConfigId
/// only; the solvers materialize Configuration objects from the space
/// at the API boundary (the returned schedule), never inside the DP.
///
/// The tables are stored structure-of-arrays: the EXEC matrix row-major
/// by segment, a per-config prefix-sum table for O(1) range sums, and
/// the TRANS matrix in both orientations so a relaxation sweep over
/// predecessors reads one contiguous row (TransInto) instead of a
/// stride-m column.
class CostMatrix {
 public:
  CostMatrix() = default;
  CostMatrix(size_t num_segments, size_t num_configs)
      : num_segments_(num_segments),
        num_configs_(num_configs),
        exec_(num_segments * num_configs, 0.0),
        trans_(num_configs * num_configs, 0.0) {}

  size_t num_segments() const { return num_segments_; }
  size_t num_configs() const { return num_configs_; }

  /// Bytes the EXEC + prefix + TRANS (both orientations) tables of an
  /// (n x m) matrix occupy — what a solver charges to
  /// MemComponent::kCostMatrix before the precompute.
  static int64_t EstimateBytes(size_t num_segments, size_t num_configs) {
    return static_cast<int64_t>(
        (num_segments * num_configs +              // EXEC
         (num_segments + 1) * num_configs +        // prefix sums
         2 * num_configs * num_configs) *          // TRANS + transposed
        sizeof(double));
  }

  /// EXEC(S_segment, candidates[config]).
  double Exec(size_t segment, size_t config) const {
    return exec_[segment * num_configs_ + config];
  }
  /// EXEC(S_begin ∪ ... ∪ S_{end-1}, candidates[config]), computed as
  /// a difference of two precomputed per-config prefix sums (built by
  /// Finalize()) — O(1) whatever the range width. Equal to the
  /// segment-order forward sum up to floating-point re-association;
  /// every caller that reports a schedule cost recomputes the total
  /// through EvaluateScheduleCost, so the rounding difference never
  /// reaches a reported cost.
  double ExecRange(size_t begin, size_t end, size_t config) const {
    return exec_prefix_[end * num_configs_ + config] -
           exec_prefix_[begin * num_configs_ + config];
  }
  /// TRANS(candidates[from], candidates[to]).
  double Trans(size_t from, size_t to) const {
    return trans_[from * num_configs_ + to];
  }
  /// Contiguous row of transition costs *into* `to`: TransInto(to)[p]
  /// == Trans(p, to). This is the orientation the relaxation inner
  /// loops sweep (for a fixed destination, scan all predecessors), so
  /// the scan is a unit-stride read instead of a stride-m gather.
  const double* TransInto(size_t to) const {
    return trans_transposed_.data() + to * num_configs_;
  }

  double& MutableExec(size_t segment, size_t config) {
    return exec_[segment * num_configs_ + config];
  }
  double& MutableTrans(size_t from, size_t to) {
    return trans_[from * num_configs_ + to];
  }

  /// Builds the derived SoA tables (per-config EXEC prefix sums and
  /// the transposed TRANS matrix) from the raw cells. Must be called
  /// after the fill and before ExecRange/TransInto; PrecomputeCostMatrix
  /// does this, so only hand-built matrices (tests) call it directly.
  void Finalize();

  /// False when a budget expired mid-precompute, leaving some cells
  /// unwritten. An incomplete matrix must not be read — the solvers
  /// check this and report DeadlineExceeded instead of consuming
  /// garbage costs.
  bool complete() const { return complete_; }
  void set_complete(bool complete) { complete_ = complete; }

 private:
  size_t num_segments_ = 0;
  size_t num_configs_ = 0;
  bool complete_ = true;
  std::vector<double> exec_;   // [segment * num_configs + config]
  std::vector<double> trans_;  // [from * num_configs + to]
  // Derived by Finalize():
  // exec_prefix_[(s) * m + c] = sum of exec over segments [0, s).
  std::vector<double> exec_prefix_;
  std::vector<double> trans_transposed_;  // [to * num_configs + from]
};

/// The what-if oracle the design optimizers query: EXEC(S_i, C) for
/// workload segments S_i and hypothetical configurations C, plus
/// TRANS(C, C').
///
/// A statement's estimated cost depends only on its shape (type,
/// columns, range width), not on its literals, so the constructor
/// profiles each segment once into (workload shape, count) terms: a
/// segment of 500 queries collapses into a handful. EXEC(S_i, C) is the
/// count-weighted sum, in profile order, of the per-statement prices of
/// (shape, C). Those prices are the only thing memoized, in a
/// CostCache: the one the caller's ProbeTally lends, or else the
/// engine's own, which dies with the engine. Every probe below prices
/// each (shape, configuration) pair it needs through the memo at most
/// once, and a cost is the same double whichever memo answers it.
///
/// Thread-safe: the memo prices each pair once however many threads
/// probe it, so costings() matches a serial run whatever the thread
/// count. For the hot solver loops, prefer PrecomputeCostMatrix(): it
/// fills the full n × |candidates| EXEC matrix (and the |candidates|²
/// TRANS matrix) up front, after which the solvers touch only the dense
/// read-only tables.
class WhatIfEngine {
 public:
  /// `model` must outlive the engine. `statements` are profiled, not
  /// kept; `segments` define the stages S_1..S_n.
  ///
  /// Two statements share a profile term only when their shapes are
  /// equal field for field (StatementShape::operator==); a hash only
  /// picks where the construction-time index starts looking. The
  /// workload slots are numbered in first-appearance order over the
  /// segments in order, and a segment's terms follow first appearance
  /// within that segment. Both orders are a function of the statement
  /// sequence alone, so every profile, and every EXEC sum over one, is
  /// the same for the same input.
  WhatIfEngine(const CostModel* model,
               std::span<const BoundStatement> statements,
               std::vector<Segment> segments);

  const CostModel& model() const { return *model_; }
  size_t num_segments() const { return segments_.size(); }
  const std::vector<Segment>& segments() const { return segments_; }

  /// The workload-wide shape profile: every distinct literal-erased
  /// statement shape with its total multiplicity, in first-appearance
  /// (= statement) order. EXEC(S_i, C) is, for every segment i, a
  /// nonnegative-weighted sum of StatementCost over a subset of these
  /// shapes — dominance pruning probes them instead of the full n x m
  /// EXEC matrix, so its cost is |shapes| x m prices however long the
  /// statement sequence is.
  const std::vector<WorkloadShape>& workload_profile() const {
    return workload_profile_;
  }

  /// StatementCost of `shape` under `config`, through the memo.
  ///
  /// On every probe below, `tally` (optional) lends the memo (its
  /// `cache`, charged to its `tracker`; the engine's own when null)
  /// and is charged the probe traffic: the costings this call ran the
  /// cost model for — a memo hit adds nothing — and the memo's hits,
  /// misses and evictions, so a caller's share stays exact while
  /// others probe the same engine or cache.
  double ShapeCost(const WorkloadShape& shape, const Configuration& config,
                   ProbeTally* tally = nullptr) const;

  /// EXEC(S_i, config). Safe to call concurrently.
  double SegmentCost(size_t segment, const Configuration& config,
                     ProbeTally* tally = nullptr) const;

  /// EXEC(S_begin ∪ ... ∪ S_{end-1}, config) — the merged-segment cost
  /// WHATIF and the merging heuristic need: the per-segment sums added
  /// in segment order, each shape priced once for the whole range.
  double RangeCost(size_t begin, size_t end, const Configuration& config,
                   ProbeTally* tally = nullptr) const;

  /// TRANS(from, to), forwarded to the cost model.
  double TransitionCost(const Configuration& from,
                        const Configuration& to) const {
    return model_->TransitionCost(from, to);
  }

  /// Fills the dense EXEC matrix over all (segment, ConfigId) pairs
  /// and the TRANS matrix over all ConfigId pairs of the pinned
  /// `candidates` space, fanning the work out across `pool` (serial
  /// when pool is null), then finalizes the SoA tables (prefix sums,
  /// transposed TRANS). This is the single enumeration entry point: the
  /// solvers never cost materialized Configuration vectors.
  ///
  /// EXEC is filled in two steps: every (workload shape, candidate)
  /// pair is priced once through the memo, then each cell is the
  /// count-weighted sum of its segment's profile over that table — the
  /// same sum SegmentCost computes, with no hashing or locks. Results
  /// are identical for any thread count, for any memo, with or without
  /// `tracer`: tracing only changes the fan-out granularity (one span
  /// per work shard) and observes timestamps, never values.
  ///
  /// With exact masks (candidates.exact_masks()), the TRANS matrix is
  /// computed additively from per-universe-index build/drop costs via
  /// mask arithmetic — O(popcount) per pair, no Configuration diffs —
  /// summing the per-index terms in universe (= sorted) order, which is
  /// the exact summation order of CostModel::TransitionCost, so the
  /// cells are bit-identical to the materialized path.
  ///
  /// Every cell is validated with std::isfinite as it is written: a
  /// NaN or infinite cost would silently corrupt the solvers'
  /// shortest-path ordering (their reachability checks only compare
  /// against +inf), so a non-finite probe fails the whole precompute
  /// with an Internal status naming the offending segment/transition
  /// and configuration (the lowest flattened cell index wins, so the
  /// error is deterministic for any thread count).
  ///
  /// `budget` (optional) makes the fill cooperatively interruptible:
  /// on expiry the remaining cells are skipped and the returned matrix
  /// has complete() == false. Cancellation is polled between work
  /// chunks, so mid-precompute Cancel() from another thread is safe.
  ///
  /// `progress` (optional) receives "whatif.precompute" updates as
  /// work shards complete — invoked from worker threads, so the
  /// callback must be thread-safe (see common/progress.h). `logger`
  /// (optional) records precompute start/end events. Like the tracer,
  /// neither perturbs values; attaching progress only switches the
  /// fill to the coarser sharded fan-out tracing already uses.
  ///
  /// `tally` (optional) lends the memo and receives this fill's probe
  /// traffic, as for the probes above. A refused tracker reservation
  /// skips a memo insert and trips the solve's memory limit (see
  /// cost/cost_cache.h).
  Result<CostMatrix> PrecomputeCostMatrix(
      const CandidateSpace& candidates, ThreadPool* pool = nullptr,
      Tracer* tracer = nullptr, const Budget* budget = nullptr,
      const ProgressFn* progress = nullptr, Logger* logger = nullptr,
      ProbeTally* tally = nullptr) const;

  /// Mirrors the engine's costings into the registry's
  /// "whatif.costings" counter. Pass nullptr to detach. Safe to call
  /// concurrently with probes and with other SetMetrics calls (the
  /// sink pointer is atomic): an engine shared by concurrent Solve()
  /// calls over the same registry — the serving path — is race-free.
  /// Const because it only touches observational state; no-op when
  /// metrics are compiled out.
  void SetMetrics(MetricsRegistry* registry) const;

  /// Number of what-if statement costings performed so far, by every
  /// caller (for the optimizer-cost experiments: the dominant work
  /// unit). One caller's own share is its ProbeTally::costings.
  int64_t costings() const {
    return costings_.load(std::memory_order_relaxed);
  }

 private:
  /// One profile term: workload_profile_[shape] occurs `count` times
  /// in the segment.
  struct ProfileTerm {
    size_t shape = 0;
    int64_t count = 0;
  };

  /// The memo one call prices through, with the tracker its growth is
  /// charged to (null for the engine's own).
  struct Memo {
    CostCache* cache = nullptr;
    ResourceTracker* tracker = nullptr;
  };

  /// The memo `tally` lends, or the engine's own, validated against
  /// the cost model's current fingerprint.
  Memo MemoFor(ProbeTally* tally) const;

  /// StatementCost of (shape, config) through `memo`; a miss counts
  /// one costing.
  double Price(const Memo& memo, const StatementShape& shape,
               const Configuration& config, ProbeTally* tally) const;

  /// EXEC of `segment`: the count-weighted sum of `price(shape index)`
  /// over its profile, in profile order. Every EXEC value is this sum,
  /// so costs agree bit for bit whichever way the prices were found.
  template <typename PriceOf>
  double ProfileSum(size_t segment, PriceOf&& price) const {
    double cost = 0.0;
    for (const ProfileTerm& term : profiles_[segment]) {
      cost += static_cast<double>(term.count) * price(term.shape);
    }
    return cost;
  }

  const CostModel* model_;
  std::vector<Segment> segments_;
  std::vector<std::vector<ProfileTerm>> profiles_;  // Per segment.
  // Every distinct shape, first appearance first (built once in the
  // constructor; immutable afterwards).
  std::vector<WorkloadShape> workload_profile_;
  mutable CostCache memo_;
  mutable std::atomic<int64_t> costings_{0};
  // Optional metric sink (null until SetMetrics). Atomic because every
  // concurrent Solve() over a shared engine re-attaches it while other
  // solves' probes read it; the registry hands out stable pointers, so
  // concurrent attaches of the same registry are idempotent.
  mutable std::atomic<Counter*> metrics_costings_{nullptr};
};

}  // namespace cdpd

#endif  // CDPD_COST_WHAT_IF_H_
