#ifndef CDPD_COST_COST_CACHE_H_
#define CDPD_COST_COST_CACHE_H_

#include <array>
#include <atomic>
#include <compare>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "catalog/configuration.h"
#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "cost/probe_tally.h"
#include "workload/statement.h"

namespace cdpd {

/// A statement with its literals erased: exactly the fields its
/// estimated cost depends on. Point and SET values are dropped, a range
/// keeps only its width (where_lo = 0, where_hi = width), an INSERT
/// only its arity. Statements of equal shape cost the same under every
/// configuration, so the what-if profiles collapse a segment into
/// (shape, count) pairs and the cost cache keys on the shape.
struct StatementShape {
  StatementType type = StatementType::kSelectPoint;
  ColumnId select_column = 0;
  ColumnId where_column = 0;
  ColumnId set_column = 0;
  Value where_lo = 0;
  Value where_hi = 0;
  size_t insert_arity = 0;

  static StatementShape Of(const BoundStatement& statement) {
    StatementShape shape;
    shape.type = statement.type;
    shape.select_column = statement.select_column;
    shape.where_column = statement.where_column;
    shape.set_column = statement.set_column;
    shape.where_lo = statement.where_lo;
    shape.where_hi = statement.where_hi;
    if (statement.type == StatementType::kSelectRange) {
      // Range cost depends only on the width; normalize the position.
      shape.where_hi = statement.where_hi - statement.where_lo;
      shape.where_lo = 0;
    }
    shape.insert_arity = statement.insert_values.size();
    return shape;
  }
  /// The literal-free statement the cost model prices for this shape.
  BoundStatement Representative() const;

  auto operator<=>(const StatementShape&) const = default;
};

/// The what-if cost memo: (statement shape, configuration) -> the
/// per-statement estimated cost. It is the only place a what-if cost
/// is memoized. Every WhatIfEngine probe (ShapeCost, SegmentCost,
/// RangeCost, PrecomputeCostMatrix) prices each pair it needs through
/// GetOrCompute once and builds EXEC(S_i, C) as a count-weighted sum
/// of those prices. A call uses the cache its ProbeTally lends (a
/// caller-owned one passed via SolveOptions::cost_cache or a
/// SolverSession, which outlives the engine, so a warm re-solve of an
/// unchanged workload answers essentially every probe from it) or else
/// the engine's own, which dies with the engine.
///
/// Keys are exact on both halves — the shape's fields and the
/// Configuration by value — so any configuration can be priced: a
/// candidate, the initial design, a WHATIF spec or a design
/// GREEDY-SEQ grows, whatever candidate space it belongs to.
///
/// Invalidation. Cached costs are valid for exactly one cost-model
/// state. EnsureValid(token) compares the caller's validity token —
/// the WhatIfEngine passes CostModel::Fingerprint(), which covers the
/// schema, the row count, the cost parameters, and any attached
/// TableStats — and clears the cache (counting the dropped entries as
/// evictions and bumping invalidations()) when it changed: a catalog
/// or table-stats change silently refreshes rather than serving stale
/// costs.
///
/// Memory. Entries are accounted at kEntryBytes apiece. Two budgets
/// apply:
///  * the cache's own `max_bytes` (constructor; 0 = unbounded): an
///    insert that would pass it evicts whole shards (coarse,
///    deterministic sweep order) until the new entry fits;
///  * the *solve's* SolveOptions::memory_limit_bytes: inserts
///    performed during a solve are charged to the solve's
///    ResourceTracker under MemComponent::kCostCache; a refused
///    reservation skips the insert (reads still work) and trips the
///    tracker's limit flag, so the solve degrades through the same
///    anytime machinery as a deadline.
///
/// Thread-safe: the table is sharded, each shard behind its own mutex,
/// and every counter is a relaxed atomic — concurrent solves may share
/// one cache. The cache's own hits()/misses()/evictions() then
/// aggregate every sharer's traffic; a solve reads its own share from
/// the ProbeTally it threads through its probes.
class CostCache {
 public:
  /// `max_bytes` caps the cache's own footprint; <= 0 = unbounded.
  explicit CostCache(int64_t max_bytes = 0)
      : max_bytes_(max_bytes > 0 ? max_bytes : 0) {}
  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  /// Accounted bytes per entry: the key (shape + configuration) and
  /// value, the node and bucket overhead of the unordered_map shards,
  /// and the configuration's index vectors (estimated for a
  /// configuration of two single- or two-column indexes).
  static constexpr int64_t kEntryBytes = 256;

  /// Drops every entry unless the cache is already valid for `token`.
  /// Returns true when the cache was (re)validated by clearing, false
  /// when it was already valid. Call before a batch of probes against
  /// one cost-model state. `tracker` (optional) is the calling solve's
  /// ResourceTracker: the dropped entries' accounted bytes are
  /// returned to it under MemComponent::kCostCache, clamped to what
  /// that tracker is actually carrying (entries charged by an earlier,
  /// possibly dead tracker release nothing — see
  /// ResourceTracker::ReleaseUpTo). `tally` (optional) is charged the
  /// dropped entries as evictions.
  bool EnsureValid(uint64_t token, ResourceTracker* tracker = nullptr,
                   ProbeTally* tally = nullptr);

  /// The cost of `shape` under `config`: the cached value, or on a
  /// miss `compute()`'s result, inserted under the budget rules above.
  /// The key's shard stays locked across the computation (`compute`
  /// must not touch the cache), so concurrent probes of one key price
  /// it once: the first misses, the rest wait and hit. A key therefore
  /// misses at most once while resident, however many solves and
  /// workers share the cache. The hit or miss is counted here and in
  /// `tally` (optional); `tracker` (optional) is charged the insert, and
  /// `tally` the entries evicted to make room for it.
  template <typename Compute>
  double GetOrCompute(const StatementShape& shape, const Configuration& config,
                      Compute&& compute, ResourceTracker* tracker = nullptr,
                      ProbeTally* tally = nullptr) {
    const KeyView key{&shape, &config};
    Shard& shard = shards_[KeyHash()(key) % kShards];
    std::unique_lock<std::mutex> lock(shard.mu);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (tally != nullptr) {
        tally->hits.fetch_add(1, std::memory_order_relaxed);
      }
      return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (tally != nullptr) {
      tally->misses.fetch_add(1, std::memory_order_relaxed);
    }
    const double cost = compute();
    if (max_bytes_ > 0 && ApproxBytes() + kEntryBytes > max_bytes_) {
      // Eviction sweeps other shards' locks: drop ours first.
      lock.unlock();
      EvictForSpace(kEntryBytes, tracker, tally);
      if (ApproxBytes() + kEntryBytes > max_bytes_) return cost;
      lock.lock();
    }
    // Charge the solve's budget before growing; a refusal trips the
    // tracker's limit flag (anytime degradation) and skips the insert.
    if (tracker != nullptr &&
        !tracker->TryReserve(MemComponent::kCostCache, kEntryBytes)) {
      return cost;
    }
    if (shard.map.try_emplace(Key{shape, config}, cost).second) {
      entries_.fetch_add(1, std::memory_order_relaxed);
    } else if (tracker != nullptr) {
      // Another prober inserted the key while the eviction sweep had
      // the shard unlocked; return this call's reservation.
      tracker->Release(MemComponent::kCostCache, kEntryBytes);
    }
    return cost;
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Times EnsureValid dropped a stale cache (token change).
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  int64_t entries() const { return entries_.load(std::memory_order_relaxed); }
  /// Accounted footprint (entries() * kEntryBytes).
  int64_t ApproxBytes() const { return entries() * kEntryBytes; }
  int64_t max_bytes() const { return max_bytes_; }

  /// The validity token the cache currently holds (0 = never
  /// validated).
  uint64_t validity_token() const {
    return token_.load(std::memory_order_relaxed);
  }

  /// Mirrors the cache's *resident state* into `registry`: the
  /// "cost_cache.entries" and "cost_cache.bytes" gauges plus the
  /// "cost_cache.invalidations" gauge. The per-solve hit/miss/evict
  /// traffic is published as "cost_cache.hits" / "cost_cache.misses" /
  /// "cost_cache.evictions" counters by SolveStats::PublishTo (one
  /// solve's ProbeTally, so the registry accumulates exactly the
  /// traffic it observed). No-op when `registry` is null.
  void PublishTo(MetricsRegistry* registry) const;

 private:
  struct Key {
    StatementShape shape;
    Configuration config;
  };
  // Probes look keys up through a view, so a hit copies no
  // Configuration; only an insert materializes a Key.
  struct KeyView {
    KeyView(const StatementShape* shape, const Configuration* config)
        : shape(shape), config(config) {}
    KeyView(const Key& key)  // NOLINT(runtime/explicit)
        : shape(&key.shape), config(&key.config) {}
    const StatementShape* shape;
    const Configuration* config;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(KeyView key) const;
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(KeyView a, KeyView b) const {
      return *a.shape == *b.shape && *a.config == *b.config;
    }
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<Key, double, KeyHash, KeyEqual> map;
  };
  static constexpr size_t kShards = 32;

  /// Evicts whole shards — resuming from where the previous sweep
  /// stopped (a rotating cursor, so repeated cap-pressure episodes
  /// visit every shard instead of starving the ones far from a hot
  /// insert shard) — until at least `needed` accounted bytes are free
  /// under max_bytes_. The dropped entries' bytes are returned to
  /// `tracker` (clamped; see ReleaseUpTo) so the inserting solve's
  /// kCostCache gauge tracks resident entries, not historical inserts.
  /// The dropped entries are also charged to `tally` (optional).
  /// Caller must not hold any shard lock.
  void EvictForSpace(int64_t needed, ResourceTracker* tracker,
                     ProbeTally* tally);

  const int64_t max_bytes_;
  std::atomic<size_t> sweep_cursor_{0};
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> token_{0};
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidations_{0};
  std::mutex validate_mu_;
};

}  // namespace cdpd

#endif  // CDPD_COST_COST_CACHE_H_
