#ifndef CDPD_COST_COST_MODEL_H_
#define CDPD_COST_COST_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/configuration.h"
#include "cost/table_stats.h"
#include "storage/access_stats.h"
#include "storage/schema.h"
#include "workload/statement.h"

namespace cdpd {

/// Tunable unit costs of the analytic cost model. The defaults mirror
/// the classic disk-based ratios (random I/O ~4x sequential I/O); the
/// calibration helper (cost/calibration.h) can re-derive them from
/// measured engine timings.
struct CostParams {
  /// Cost of reading one page sequentially.
  double seq_page_cost = 1.0;
  /// Cost of reading one page at a random position.
  double random_page_cost = 4.0;
  /// Cost of writing one page.
  double write_page_cost = 1.0;
  /// CPU cost of examining one tuple.
  double cpu_tuple_cost = 0.001;
  /// CPU cost per row * log2(rows) during an index-build sort.
  double sort_cpu_factor = 0.001;
  /// Pages written when an index is dropped (catalog + free-space).
  double drop_pages = 8.0;

  bool operator==(const CostParams&) const = default;
};

/// How a point predicate is evaluated under a configuration.
enum class AccessPathKind {
  /// Sequential scan of the heap.
  kTableScan,
  /// B+-tree descent on an index whose first key column is the
  /// predicate column; the selected column is in the key (covering).
  kIndexSeek,
  /// B+-tree descent, then random heap fetches for the selected column.
  kIndexSeekWithFetch,
  /// Sequential scan of an index leaf level that contains both the
  /// predicate and the selected column (covering, but no seek).
  kCoveringScan,
};

std::string_view AccessPathKindToString(AccessPathKind kind);

/// The access path the optimizer picked for a statement, with its
/// estimated cost. `index` is empty for kTableScan.
struct AccessPathChoice {
  AccessPathKind kind = AccessPathKind::kTableScan;
  std::optional<IndexDef> index;
  double cost = 0.0;
};

/// The analytic what-if cost model: prices statements (EXEC), design
/// transitions (TRANS) and configurations (SIZE) over a table described
/// by row count and value-domain statistics — without touching physical
/// structures, exactly like the hypothetical-index interface of a
/// design advisor.
///
/// The executor (engine/executor.h) uses ChooseAccessPath() so the plan
/// that is actually run is the plan that was priced.
class CostModel {
 public:
  /// `domain_size`: number of distinct values a column draws from
  /// (uniform); the paper uses [0, 500000). Drives match estimates.
  CostModel(Schema schema, int64_t num_rows, int64_t domain_size,
            CostParams params = CostParams());

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t domain_size() const { return domain_size_; }
  const CostParams& params() const { return params_; }

  /// Attaches measured per-column statistics (not owned; may be
  /// nullptr to detach). When set, selectivity estimates use column
  /// densities and histograms instead of the uniform-domain
  /// assumption. The stats' content at attach time is what
  /// Fingerprint() covers.
  void SetTableStats(const TableStats* stats);
  const TableStats* table_stats() const { return stats_; }

  /// Expected matching rows of a point predicate (uniform assumption).
  double ExpectedMatches() const;

  /// Expected matching rows of an inclusive range predicate
  /// [lo, hi] (uniform assumption, clamped to the table size).
  double ExpectedRangeMatches(Value lo, Value hi) const;

  /// Column-aware variants: use attached TableStats when present,
  /// falling back to the uniform estimates above.
  double ExpectedMatchesFor(ColumnId column) const;
  double ExpectedRangeMatchesFor(ColumnId column, Value lo, Value hi) const;

  /// Pages of the heap.
  int64_t HeapPagesCount() const;

  /// EXEC(S, C): estimated cost of one statement under `config`.
  double StatementCost(const BoundStatement& statement,
                       const Configuration& config) const;

  /// The cheapest access path for the point predicate of `statement`
  /// (SELECT or UPDATE row location) under `config`.
  AccessPathChoice ChooseAccessPath(const BoundStatement& statement,
                                    const Configuration& config) const;

  /// TRANS(from, to): cost of creating to\from and dropping from\to.
  double TransitionCost(const Configuration& from,
                        const Configuration& to) const;

  /// Cost of materializing one index (scan + sort + write).
  double BuildCost(const IndexDef& def) const;

  /// Cost of dropping one index.
  double DropCost(const IndexDef& def) const;

  /// SIZE(C) in pages, checked against the space bound b.
  int64_t ConfigurationSizePages(const Configuration& config) const;

  /// Converts measured engine counters to the model's cost units, so
  /// measured and estimated workload costs are directly comparable.
  double StatsToCost(const AccessStats& stats) const;

  /// 64-bit identity of everything a cached what-if cost depends on:
  /// the schema, the row count, the value domain, the cost parameters,
  /// and the content of any attached TableStats. The persistent
  /// CostCache (cost/cost_cache.h) uses this as its validity token, so
  /// a catalog or table-stats change invalidates cached costs instead
  /// of serving stale ones. Computed at construction and on every
  /// SetTableStats, so reading it costs nothing.
  uint64_t Fingerprint() const { return fingerprint_; }

 private:
  double SelectCost(ColumnId select_column, ColumnId where_column,
                    double matches, const Configuration& config,
                    AccessPathChoice* choice) const;
  uint64_t ComputeFingerprint() const;
  double PathCost(AccessPathKind kind, const IndexDef& index,
                  double matches) const;
  double MaintenanceCost(const BoundStatement& statement,
                         const Configuration& config) const;

  Schema schema_;
  int64_t num_rows_;
  int64_t domain_size_;
  CostParams params_;
  const TableStats* stats_ = nullptr;  // Optional, not owned.
  uint64_t fingerprint_ = 0;
};

}  // namespace cdpd

#endif  // CDPD_COST_COST_MODEL_H_
