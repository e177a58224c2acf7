#include "cost/what_if.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

namespace cdpd {

void CostMatrix::Finalize() {
  const size_t n = num_segments_;
  const size_t m = num_configs_;
  exec_prefix_.assign((n + 1) * m, 0.0);
  for (size_t s = 0; s < n; ++s) {
    const double* row = exec_.data() + s * m;
    const double* prefix = exec_prefix_.data() + s * m;
    double* next = exec_prefix_.data() + (s + 1) * m;
    for (size_t c = 0; c < m; ++c) next[c] = prefix[c] + row[c];
  }
  trans_transposed_.assign(m * m, 0.0);
  for (size_t from = 0; from < m; ++from) {
    const double* row = trans_.data() + from * m;
    for (size_t to = 0; to < m; ++to) {
      trans_transposed_[to * m + from] = row[to];
    }
  }
}

namespace {

/// Multiplicative hash of a shape's fields; the constructor's slot
/// index probes from its top bits. It only picks the bucket: a match
/// always compares the whole shape.
uint64_t ShapeHash(const StatementShape& shape) {
  uint64_t h = static_cast<uint64_t>(shape.type);
  for (const uint64_t field :
       {static_cast<uint64_t>(shape.select_column),
        static_cast<uint64_t>(shape.where_column),
        static_cast<uint64_t>(shape.set_column),
        static_cast<uint64_t>(shape.where_lo),
        static_cast<uint64_t>(shape.where_hi),
        static_cast<uint64_t>(shape.insert_arity)}) {
    h = (h ^ field) * 0x9e3779b97f4a7c15ULL;
  }
  return h;
}

}  // namespace

WhatIfEngine::WhatIfEngine(const CostModel* model,
                           std::span<const BoundStatement> statements,
                           std::vector<Segment> segments)
    : model_(model), segments_(std::move(segments)) {
  // Built into locals and moved into the members at the end, so the
  // hot loop reaches them without going through `this`.
  std::vector<std::vector<ProfileTerm>> profiles(segments_.size());
  std::vector<WorkloadShape> shapes;
  // Construction-time index from an exact shape to its `shapes` slot:
  // open addressing, power-of-two capacity, linear probing, grown past
  // load 1/2. Slots are numbered in first-appearance order — segment
  // order, then statement order — so the profiles are deterministic
  // for a given statement sequence.
  constexpr size_t kNone = SIZE_MAX;
  struct Entry {
    StatementShape shape;
    size_t slot = kNone;
  };
  std::vector<Entry> table(16);
  // A bucket is the top log2(capacity) bits of the hash.
  int shift = 64 - std::countr_zero(table.size());
  // The bucket holding `shape`, or the empty one it would go in.
  const auto bucket_of = [&](const StatementShape& shape) {
    size_t bucket = static_cast<size_t>(ShapeHash(shape) >> shift);
    while (table[bucket].slot != kNone && !(table[bucket].shape == shape)) {
      bucket = (bucket + 1) & (table.size() - 1);
    }
    return bucket;
  };
  // Per slot: the last segment it occurred in, and its term there.
  struct LastSeen {
    size_t segment = kNone;
    size_t term = 0;
  };
  std::vector<LastSeen> last_seen;
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = segments_[s];
    assert(segment.begin <= segment.end && segment.end <= statements.size());
    std::vector<ProfileTerm>& profile = profiles[s];
    for (size_t i = segment.begin; i < segment.end; ++i) {
      const StatementShape shape = StatementShape::Of(statements[i]);
      Entry& entry = table[bucket_of(shape)];
      size_t slot = entry.slot;
      if (slot == kNone) {
        slot = shapes.size();
        entry = Entry{shape, slot};
        shapes.push_back(WorkloadShape{shape, 0});
        last_seen.emplace_back();
        if (2 * shapes.size() > table.size()) {
          table.assign(2 * table.size(), Entry{});
          --shift;
          for (size_t k = 0; k < shapes.size(); ++k) {
            table[bucket_of(shapes[k].shape)] = Entry{shapes[k].shape, k};
          }
        }
      }
      LastSeen& seen = last_seen[slot];
      if (seen.segment == s) {
        ++profile[seen.term].count;
      } else {
        seen = LastSeen{s, profile.size()};
        profile.push_back(ProfileTerm{slot, 1});
      }
    }
    for (const ProfileTerm& term : profile) {
      shapes[term.shape].count += term.count;
    }
  }
  profiles_ = std::move(profiles);
  workload_profile_ = std::move(shapes);
}

WhatIfEngine::Memo WhatIfEngine::MemoFor(ProbeTally* tally) const {
  Memo memo{&memo_, nullptr};
  if (tally != nullptr && tally->cache != nullptr) {
    memo = Memo{tally->cache, tally->tracker};
  }
  // The token covers everything a statement cost depends on: the
  // schema, rows, parameters and table stats.
  const uint64_t token = model_->Fingerprint();
  // 0 is CostCache's never-validated state.
  memo.cache->EnsureValid(token == 0 ? 1 : token, memo.tracker, tally);
  return memo;
}

double WhatIfEngine::Price(const Memo& memo, const StatementShape& shape,
                           const Configuration& config,
                           ProbeTally* tally) const {
  return memo.cache->GetOrCompute(
      shape, config,
      [&] {
        costings_.fetch_add(1, std::memory_order_relaxed);
        if (Counter* sink = metrics_costings_.load(std::memory_order_relaxed)) {
          sink->Add(1);
        }
        if (tally != nullptr) {
          tally->costings.fetch_add(1, std::memory_order_relaxed);
        }
        return model_->StatementCost(shape.Representative(), config);
      },
      memo.tracker, tally);
}

double WhatIfEngine::ShapeCost(const WorkloadShape& shape,
                               const Configuration& config,
                               ProbeTally* tally) const {
  return Price(MemoFor(tally), shape.shape, config, tally);
}

double WhatIfEngine::SegmentCost(size_t segment, const Configuration& config,
                                 ProbeTally* tally) const {
  assert(segment < segments_.size());
  const Memo memo = MemoFor(tally);
  // A shape occurs once per profile, so each is priced once.
  return ProfileSum(segment, [&](size_t shape) {
    return Price(memo, workload_profile_[shape].shape, config, tally);
  });
}

double WhatIfEngine::RangeCost(size_t begin, size_t end,
                               const Configuration& config,
                               ProbeTally* tally) const {
  assert(begin <= end && end <= segments_.size());
  const Memo memo = MemoFor(tally);
  // Each shape is priced on first use and reused across the range.
  std::vector<std::optional<double>> prices(workload_profile_.size());
  double cost = 0.0;
  for (size_t s = begin; s < end; ++s) {
    cost += ProfileSum(s, [&](size_t shape) {
      std::optional<double>& price = prices[shape];
      if (!price.has_value()) {
        price = Price(memo, workload_profile_[shape].shape, config, tally);
      }
      return *price;
    });
  }
  return cost;
}

namespace {

/// Lowest-cell-index-wins record of a non-finite cost, so the error a
/// parallel fill reports is the one the serial fill would hit first.
class NonFiniteCell {
 public:
  void Record(size_t cell) {
    int64_t seen = cell_.load(std::memory_order_relaxed);
    const auto mine = static_cast<int64_t>(cell);
    while (seen < 0 || mine < seen) {
      if (cell_.compare_exchange_weak(seen, mine,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }
  /// The offending flattened cell index, or nullopt when all finite.
  std::optional<size_t> cell() const {
    const int64_t cell = cell_.load(std::memory_order_relaxed);
    return cell < 0 ? std::nullopt
                    : std::optional<size_t>(static_cast<size_t>(cell));
  }

 private:
  std::atomic<int64_t> cell_{-1};
};

}  // namespace

Result<CostMatrix> WhatIfEngine::PrecomputeCostMatrix(
    const CandidateSpace& candidates, ThreadPool* pool, Tracer* tracer,
    const Budget* budget, const ProgressFn* progress, Logger* logger,
    ProbeTally* tally) const {
  const size_t n = segments_.size();
  const size_t m = candidates.size();
  const size_t num_shapes = workload_profile_.size();
  CostMatrix matrix(n, m);
  const Memo memo = MemoFor(tally);
  CDPD_LOG(logger, LogLevel::kInfo, "whatif.precompute.start",
           LogField("segments", n), LogField("configs", m),
           LogField("shapes", num_shapes),
           LogField("exec_cells", n * m), LogField("trans_cells", m * m),
           LogField("cost_cache", memo.cache != &memo_));
  NonFiniteCell bad_exec;
  NonFiniteCell bad_trans;
  bool complete = true;
  {
    CDPD_TRACE_SPAN(tracer, "whatif.exec_matrix", "whatif",
                    static_cast<int64_t>(n * m));
    // Every (shape, candidate) pair priced once through the memo: the
    // |shapes| x m table each EXEC cell is a weighted sum over.
    std::vector<double> prices(m * num_shapes);  // [config * shapes + shape]
    complete = ParallelFor(
        pool, 0, m,
        [&](size_t config) {
          for (size_t shape = 0; shape < num_shapes; ++shape) {
            prices[config * num_shapes + shape] =
                Price(memo, workload_profile_[shape].shape,
                      candidates[config], tally);
          }
        },
        budget);
    const auto fill_exec = [&](size_t i) {
      const size_t segment = i / m;
      const size_t config = i % m;
      const double* row = prices.data() + config * num_shapes;
      const double cost =
          ProfileSum(segment, [row](size_t shape) { return row[shape]; });
      if (!std::isfinite(cost)) bad_exec.Record(i);
      matrix.MutableExec(segment, config) = cost;
    };
    // EXEC over all (segment, config) pairs: each flattened index
    // writes one disjoint matrix cell, so the fill is race-free and the
    // values are identical for any thread count. With a tracer or
    // progress callback attached the same cells are filled through
    // coarser work shards (one span / one progress update each);
    // either way every cell computes the same value.
    const bool sharded = tracer != nullptr || progress != nullptr;
    if (complete && !sharded) {
      complete = ParallelFor(pool, 0, n * m, fill_exec, budget);
    } else if (complete) {
      const size_t threads = static_cast<size_t>(
          std::max(1, pool == nullptr ? 1 : pool->num_threads()));
      const size_t num_shards =
          std::min(n * m, std::max<size_t>(1, threads * 4));
      const size_t per_shard = (n * m + num_shards - 1) / num_shards;
      std::atomic<size_t> shards_done{0};
      complete = ParallelFor(
          pool, 0, num_shards,
          [&](size_t shard) {
            CDPD_TRACE_SPAN(tracer, "whatif.exec_shard", "whatif",
                            static_cast<int64_t>(shard));
            const size_t lo = shard * per_shard;
            const size_t hi = std::min(n * m, lo + per_shard);
            for (size_t i = lo; i < hi; ++i) fill_exec(i);
            // Reported from whichever worker finishes the shard — the
            // callback contract requires thread safety.
            const size_t done =
                shards_done.fetch_add(1, std::memory_order_relaxed) + 1;
            ReportProgress(progress, "whatif.precompute",
                           static_cast<double>(done) /
                               static_cast<double>(num_shards));
          },
          budget);
    }
  }
  // TRANS over all candidate pairs (pure model arithmetic; no memo).
  {
    CDPD_TRACE_SPAN(tracer, "whatif.trans_matrix", "whatif",
                    static_cast<int64_t>(m * m));
    bool trans_complete = true;
    if (candidates.exact_masks()) {
      // Mask path: TRANS is additive over the created/dropped index
      // sets, so per-universe-index build/drop costs turn each pair
      // into two mask differences summed over set bits. Bits are
      // consumed in ascending (= universe = sorted-index) order — the
      // exact order CostModel::TransitionCost sums the materialized
      // delta in — so the cells are bit-identical to the slow path.
      const size_t u = candidates.num_indexes();
      std::vector<double> build_cost(u, 0.0);
      std::vector<double> drop_cost(u, 0.0);
      for (size_t i = 0; i < u; ++i) {
        build_cost[i] = model_->BuildCost(candidates.universe()[i]);
        drop_cost[i] = model_->DropCost(candidates.universe()[i]);
      }
      const std::vector<uint64_t>& masks = candidates.masks();
      trans_complete = ParallelFor(
          pool, 0, m,
          [&](size_t from) {
            const uint64_t from_mask = masks[from];
            for (size_t to = 0; to < m; ++to) {
              double cost = 0.0;
              if (to != from) {
                const uint64_t to_mask = masks[to];
                for (uint64_t created = to_mask & ~from_mask; created != 0;
                     created &= created - 1) {
                  cost += build_cost[static_cast<size_t>(
                      std::countr_zero(created))];
                }
                for (uint64_t dropped = from_mask & ~to_mask; dropped != 0;
                     dropped &= dropped - 1) {
                  cost += drop_cost[static_cast<size_t>(
                      std::countr_zero(dropped))];
                }
              }
              if (!std::isfinite(cost)) bad_trans.Record(from * m + to);
              matrix.MutableTrans(from, to) = cost;
            }
          },
          budget);
    } else {
      trans_complete = ParallelFor(
          pool, 0, m * m,
          [&](size_t i) {
            const size_t from = i / m;
            const size_t to = i % m;
            const double cost =
                from == to
                    ? 0.0
                    : model_->TransitionCost(candidates[from],
                                             candidates[to]);
            if (!std::isfinite(cost)) bad_trans.Record(i);
            matrix.MutableTrans(from, to) = cost;
          },
          budget);
    }
    complete = complete && trans_complete;
  }
  // A non-finite cost is a corrupt oracle whatever the budget said:
  // report it even when the fill was cut short (the bad cell was
  // actually written, so the error is real, though an interrupted fill
  // may not name the lowest bad cell of the full matrix).
  if (const std::optional<size_t> cell = bad_exec.cell()) {
    const size_t segment = *cell / m;
    const size_t config = *cell % m;
    return Status::Internal(
        "what-if EXEC cost is not finite for segment " +
        std::to_string(segment) + " (statements " +
        std::to_string(segments_[segment].begin) + ".." +
        std::to_string(segments_[segment].end) + "), candidate configuration #" +
        std::to_string(config));
  }
  if (const std::optional<size_t> cell = bad_trans.cell()) {
    return Status::Internal(
        "what-if TRANS cost is not finite for transition from candidate "
        "configuration #" +
        std::to_string(*cell / m) + " to #" + std::to_string(*cell % m));
  }
  matrix.set_complete(complete);
  matrix.Finalize();
  if (!complete) {
    CDPD_LOG(logger, LogLevel::kWarn, "whatif.precompute.interrupted",
             LogField("segments", n), LogField("configs", m));
  }
  CDPD_LOG(logger, LogLevel::kInfo, "whatif.precompute.end",
           LogField("complete", complete),
           LogField("costings", costings()));
  return matrix;
}

void WhatIfEngine::SetMetrics(MetricsRegistry* registry) const {
  if constexpr (!kMetricsCompiledIn) return;
  metrics_costings_.store(
      registry != nullptr ? registry->counter("whatif.costings") : nullptr,
      std::memory_order_relaxed);
}

}  // namespace cdpd
