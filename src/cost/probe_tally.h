#ifndef CDPD_COST_PROBE_TALLY_H_
#define CDPD_COST_PROBE_TALLY_H_

#include <atomic>
#include <cstdint>

namespace cdpd {

class CostCache;
class ResourceTracker;

/// One caller's what-if probe state, threaded to every WhatIfEngine
/// probe it makes (ShapeCost/SegmentCost/RangeCost and the precompute
/// fill).
///
/// `cache` is the memo the caller lends its probes: they price each
/// (statement shape, configuration) pair through it, and its growth is
/// charged to `tracker`. With no cache lent (or no tally at all) the
/// probes use the engine's own, uncharged memo.
///
/// The counters are the caller's share of the probe traffic, counted
/// where it happens: costings where the cost model runs, memo hits and
/// misses at CostCache::GetOrCompute, evictions at the
/// GetOrCompute/EnsureValid that caused them. Solve() owns one per
/// call, so concurrent callers sharing an engine or a cache still
/// report exactly their own traffic. Relaxed atomics: one solve's pool
/// workers add to it concurrently.
struct ProbeTally {
  CostCache* cache = nullptr;
  ResourceTracker* tracker = nullptr;
  std::atomic<int64_t> costings{0};
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> evictions{0};

  void AddEvictions(int64_t dropped) {
    if (dropped > 0) evictions.fetch_add(dropped, std::memory_order_relaxed);
  }
};

}  // namespace cdpd

#endif  // CDPD_COST_PROBE_TALLY_H_
