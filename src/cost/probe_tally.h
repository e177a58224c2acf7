#ifndef CDPD_COST_PROBE_TALLY_H_
#define CDPD_COST_PROBE_TALLY_H_

#include <atomic>
#include <cstdint>

namespace cdpd {

/// One caller's share of the what-if probe traffic, counted where it
/// happens: costings at the WhatIfEngine probe that runs the cost model
/// (SegmentCost/RangeCost/ShapeCost and the precompute fill), cost-cache
/// hits and misses at the cached EXEC fill, evictions at the
/// CostCache::Insert/EnsureValid that caused them. Solve() owns one per
/// call, so concurrent callers sharing an engine or a cache still
/// report exactly their own traffic. Relaxed atomics: one solve's pool
/// workers add to it concurrently.
struct ProbeTally {
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
