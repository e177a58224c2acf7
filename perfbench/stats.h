// Arithmetic of the repository benchmark: exact percentiles over raw
// samples, the ten-beyond tail rule, open-loop lag accounting and the
// attempted/failed ledger. Header-only so the benchmark and its self-test
// binary share one definition.
#ifndef CDPD_PERFBENCH_STATS_H_
#define CDPD_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// Raw samples of one quantity. Percentiles are computed from the
/// sorted samples themselves (nearest rank), never from a bucketed
/// histogram, so a p99 is one of the values actually observed.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile, q in (0, 1]: the smallest sample with at
  /// least q * n samples at or below it. 0 when there are no samples.
  double Percentile(double q) const {
    if (values_.empty()) return 0.0;
    Sort();
    const size_t rank = RankOf(q, values_.size());
    return values_[rank - 1];
  }
  double Median() const { return Percentile(0.5); }

  double Sum() const {
    double total = 0.0;
    for (double v : values_) total += v;
    return total;
  }

  /// The 1-based nearest rank of quantile q among n samples.
  static size_t RankOf(double q, size_t n) {
    // The small epsilon keeps q * n exact for q like 0.9 and n = 100,
    // where floating point would otherwise give 90.00000000000001.
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return rank;
  }
  /// Samples ranked strictly above the q-percentile's rank.
  static size_t BeyondCount(double q, size_t n) {
    return n == 0 ? 0 : n - RankOf(q, n);
  }
  /// The ten-beyond rule: a tail is reported only when at least ten
  /// samples lie beyond it.
  static bool TailSupported(double q, size_t n) {
    return BeyondCount(q, n) >= 10;
  }

 private:
  void Sort() const {
    if (sorted_) return;
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Open-loop send accounting: for every request, when it was due and
/// when the generator actually put it on the wire. Lateness is the
/// generator's own delay, not the server's: latency is timed from the
/// due time, so a stall that delays later sends is still charged to the
/// requests it delayed.
class LagLedger {
 public:
  void Record(double due_s, double sent_s) {
    lateness_ms_.Add(std::max(0.0, sent_s - due_s) * 1e3);
  }
  const Samples& lateness_ms() const { return lateness_ms_; }
  double P99Ms() const { return lateness_ms_.Percentile(0.99); }
  /// A run is invalid when the generator's p99 lateness passes the
  /// limit: its latencies would then describe the generator, not the
  /// server.
  bool Valid(double limit_ms) const {
    return lateness_ms_.empty() || P99Ms() <= limit_ms;
  }

 private:
  Samples lateness_ms_;
};

/// Attempted/failed ledger. An operation fails when the program
/// returned an error or when its answer did not match the check, and
/// every failure carries a one-line reason for the report.
class Outcomes {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& reason) {
    ++attempted_;
    ++failed_;
    if (reasons_.size() < 8) reasons_.push_back(reason);
  }
  /// A post-hoc check found a wrong answer in an op already counted as
  /// attempted: it turns into a failure without a second attempt.
  void Mismatch(const std::string& reason) {
    ++failed_;
    if (failed_ > attempted_) attempted_ = failed_;
    if (reasons_.size() < 8) reasons_.push_back(reason);
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double FailRatio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Bitwise equality of two doubles: the checks compare costs
/// bit-for-bit, so -0.0 != 0.0 and NaN == NaN of the same payload.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench

#endif  // CDPD_PERFBENCH_STATS_H_
