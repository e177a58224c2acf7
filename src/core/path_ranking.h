#ifndef CDPD_CORE_PATH_RANKING_H_
#define CDPD_CORE_PATH_RANKING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "core/design_problem.h"
#include "core/sequence_graph.h"
#include "core/solve_context.h"
#include "core/solve_stats.h"

namespace cdpd {

/// One enumerated source-to-destination path.
struct RankedPath {
  double cost = 0.0;
  std::vector<SequenceGraph::NodeId> nodes;
};

/// Lazy shortest-path ranking over a sequence graph: Next() yields the
/// 1st, 2nd, 3rd, ... shortest source-to-destination paths in
/// non-decreasing cost order (a Recursive Enumeration Algorithm in the
/// spirit of the path-deletion ranking the paper cites: each ranked
/// path of a node spawns one new candidate at that node, plus the
/// one-time alternative-predecessor candidates).
class PathRanker {
 public:
  /// `graph` (and `budget` / `tracker`, when given) must outlive the
  /// ranker. With a budget, Next() returns nullopt as soon as the
  /// budget expires — callers distinguish expiry from true exhaustion
  /// by checking the budget afterwards. With a tracker, every growth
  /// of the per-node path/candidate state is charged to
  /// MemComponent::kRankingQueue through a counting allocator (the
  /// enumeration state is worst-case exponential, so a priori
  /// reservation is impossible — the allocator meters it as it
  /// grows, and a tracker limit trips the attached Budget at the next
  /// poll).
  explicit PathRanker(const SequenceGraph& graph,
                      const Budget* budget = nullptr,
                      ResourceTracker* tracker = nullptr);

  /// The next path in the ranking, or nullopt when exhausted (or the
  /// budget expired).
  std::optional<RankedPath> Next();

  /// Paths yielded so far.
  int64_t paths_yielded() const { return paths_yielded_; }

 private:
  /// A ranked path to a node, represented by its last edge and the
  /// rank of the predecessor path it extends. The rank is 64-bit: the
  /// ranking is worst-case exponential and a long enumeration pushes
  /// per-node ranks past INT32_MAX, where a 32-bit field silently
  /// truncates and corrupts the backtrack.
  struct PathRef {
    double cost = 0.0;
    int32_t pred_edge = -1;   // Edge id into the node; -1 at the source.
    int64_t pred_index = -1;  // Rank (0-based) of the predecessor path.
  };
  /// Counting vectors: the enumeration state grows unpredictably, so
  /// its true allocated size is metered through the allocator rather
  /// than reserved up front. A default-constructed allocator (no
  /// tracker) counts nothing.
  using PathRefVec = std::vector<PathRef, TrackingAllocator<PathRef>>;
  struct NodeState {
    PathRefVec paths;       // Ranked paths found so far.
    PathRefVec candidates;  // Min-heap by cost.
    bool initialized_alternatives = false;
    NodeState() = default;
    explicit NodeState(const TrackingAllocator<PathRef>& alloc)
        : paths(alloc), candidates(alloc) {}
  };

  /// Ensures π^{rank}(node) exists (0-based). Returns false when the
  /// node has fewer than rank+1 paths, or when the budget expires
  /// mid-derivation.
  bool EnsurePath(SequenceGraph::NodeId node, size_t rank);
  void PushCandidate(NodeState* state, PathRef ref);

  const SequenceGraph* graph_;
  const Budget* budget_;
  DagShortestPaths tree_;
  std::vector<NodeState> nodes_;
  /// Fixed footprint of nodes_ itself (the growing vectors inside are
  /// metered by the allocator).
  ScopedReservation state_reservation_;
  int64_t paths_yielded_ = 0;
};

/// Constrained optimum via shortest-path ranking (§5): enumerate paths
/// of the *plain* sequence graph in cost order and return the first
/// whose design sequence has at most k changes — optimal because every
/// path not yet seen is at least as long. Worst-case exponential;
/// `max_paths` bounds the enumeration.
///
/// When the enumeration ends without an answer — the `max_paths` cap
/// tripped, the ranking ran dry, or the `budget` expired — the solve
/// degrades to the cheapest feasible *static* schedule
/// (BestStaticSchedule) with stats->best_effort set, plus
/// stats->deadline_hit when a budget expiry caused it. Error statuses
/// are reserved for genuinely empty-handed exits: DeadlineExceeded
/// when the budget expired and not even the static fallback is
/// feasible, ResourceExhausted when the cap/exhaustion hit and the
/// fallback is infeasible.
///
/// Internal: reached through Solve() (method kRanking with k set;
/// `max_paths` is SolveOptions::ranking_max_paths); `ctx` carries the
/// per-call state (core/solve_context.h). The EXEC/TRANS cost matrices
/// are precomputed in parallel across ctx.pool before the graph is
/// materialized; the enumeration itself is inherently sequential (each
/// ranked path conditions the next). With a tracer the solve records
/// "ranking.precompute" and "ranking.enumerate" spans (arg = paths
/// enumerated); progress reports the enumeration fraction as paths
/// yielded over `max_paths`.
///
/// The tracker is charged the cost matrix (kCostMatrix), the
/// materialized graph (kSequenceGraph), and — through PathRanker's
/// counting allocator — the enumeration state (kRankingQueue). A limit
/// refusal before the graph exists degrades straight to the static
/// fallback; a limit tripped mid-enumeration winds down at the next
/// poll via the attached Budget.
Result<DesignSchedule> SolveByRanking(const DesignProblem& problem, int64_t k,
                                      int64_t max_paths, SolveStats* stats,
                                      const SolveContext& ctx);

}  // namespace cdpd

#endif  // CDPD_CORE_PATH_RANKING_H_
