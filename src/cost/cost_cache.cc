#include "cost/cost_cache.h"

namespace cdpd {

BoundStatement StatementShape::Representative() const {
  BoundStatement statement;
  statement.type = type;
  statement.select_column = select_column;
  statement.where_column = where_column;
  statement.set_column = set_column;
  statement.where_lo = where_lo;
  statement.where_hi = where_hi;
  statement.insert_values.assign(insert_arity, 0);
  return statement;
}

size_t CostCache::KeyHash::operator()(KeyView key) const {
  const StatementShape& shape = *key.shape;
  uint64_t h = ConfigurationHash()(*key.config);
  for (const uint64_t field :
       {static_cast<uint64_t>(shape.type),
        static_cast<uint64_t>(shape.select_column),
        static_cast<uint64_t>(shape.where_column),
        static_cast<uint64_t>(shape.set_column),
        static_cast<uint64_t>(shape.where_lo),
        static_cast<uint64_t>(shape.where_hi),
        static_cast<uint64_t>(shape.insert_arity)}) {
    h = (h ^ field) * 0x100000001b3ULL;
  }
  // splitmix64 finalizer: spread the folded words over the shard index.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

bool CostCache::EnsureValid(uint64_t token, ResourceTracker* tracker,
                            ProbeTally* tally) {
  if (token_.load(std::memory_order_acquire) == token) return false;
  // One validator at a time: concurrent EnsureValid calls with the
  // same new token clear once, and a mid-solve token change (two
  // engines over different models sharing one cache) serializes on the
  // sweep rather than interleaving clears with inserts shard by shard.
  std::lock_guard<std::mutex> lock(validate_mu_);
  const uint64_t previous = token_.load(std::memory_order_acquire);
  if (previous == token) return false;
  int64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    dropped += static_cast<int64_t>(shard.map.size());
    shard.map.clear();
  }
  entries_.fetch_sub(dropped, std::memory_order_relaxed);
  if (dropped > 0) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    if (tally != nullptr) tally->AddEvictions(dropped);
    if (tracker != nullptr) {
      tracker->ReleaseUpTo(MemComponent::kCostCache, dropped * kEntryBytes);
    }
  }
  // The first validation of a never-validated cache (token 0 is
  // reserved for that state) starts empty — nothing stale was dropped.
  if (previous != 0) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  token_.store(token, std::memory_order_release);
  return true;
}

void CostCache::EvictForSpace(int64_t needed, ResourceTracker* tracker,
                              ProbeTally* tally) {
  // Coarse shard-granularity eviction: sweep shards in a deterministic
  // rotating order — each episode resumes where the last one stopped,
  // so sustained cap pressure cycles through all shards instead of
  // repeatedly clearing the neighbours of whichever shard the hot keys
  // hash to (the old key-derived start starved distant shards, letting
  // their entries sit forever while near ones churned). Statement
  // costs are cheap to recompute, so over-eviction only costs future
  // misses.
  int64_t dropped_total = 0;
  for (size_t step = 0; step < kShards; ++step) {
    if (ApproxBytes() + needed <= max_bytes_) break;
    Shard& shard =
        shards_[sweep_cursor_.fetch_add(1, std::memory_order_relaxed) %
                kShards];
    int64_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      dropped = static_cast<int64_t>(shard.map.size());
      shard.map.clear();
    }
    if (dropped > 0) {
      entries_.fetch_sub(dropped, std::memory_order_relaxed);
      evictions_.fetch_add(dropped, std::memory_order_relaxed);
      dropped_total += dropped;
    }
  }
  // Return the evicted entries' reservation to the inserting solve —
  // exactly once, at the end of the sweep, clamped to what this
  // tracker is actually carrying (entries charged by earlier trackers
  // must not drive the gauge negative).
  if (tally != nullptr) tally->AddEvictions(dropped_total);
  if (dropped_total > 0 && tracker != nullptr) {
    tracker->ReleaseUpTo(MemComponent::kCostCache,
                         dropped_total * kEntryBytes);
  }
}

void CostCache::PublishTo(MetricsRegistry* registry) const {
  if constexpr (!kMetricsCompiledIn) return;
  if (registry == nullptr) return;
  registry->gauge("cost_cache.entries")->Set(entries());
  registry->gauge("cost_cache.bytes")->Set(ApproxBytes());
  registry->gauge("cost_cache.invalidations")->Set(invalidations());
}

}  // namespace cdpd
