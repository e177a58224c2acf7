// Shared plumbing of the benchmark binary: clocks, the per-run report
// (metrics with units and sample counts, the attempted/failed ledger,
// notes for the human-readable table) and the per-layer span table
// built from a Tracer.
#ifndef CDPD_PERFBENCH_COMMON_H_
#define CDPD_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/tracing.h"
#include "stats.h"

namespace perfbench {

/// Seconds on the steady clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line parameters of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string server_bin;  // advisor_server executable (serve_mixed).
  std::string tmp_dir;     // Scratch directory inside the checkout.
};

/// Everything one run reports. Metrics keep insertion order; each
/// percentile metric carries its sample count and how many samples lie
/// beyond it, so the ten-beyond rule is visible next to the value.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;   // 0 = not a percentile.
    size_t beyond = 0;
    double quantile = 0;  // 0 = not a percentile.
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    Metric& m = Slot(name);
    m.value = value;
    m.unit = unit;
  }
  /// A percentile of `samples` scaled by `scale` (e.g. s -> ms).
  void SetPercentile(const std::string& name, const Samples& samples, double q,
                     double scale, const std::string& unit) {
    Metric& m = Slot(name);
    m.value = samples.Percentile(q) * scale;
    m.unit = unit;
    m.samples = samples.count();
    m.quantile = q;
    m.beyond = Samples::BeyondCount(q, samples.count());
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  Outcomes& outcomes() { return outcomes_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  void MarkInvalid(const std::string& why) {
    valid_ = false;
    notes_.push_back("INVALID: " + why);
  }
  /// ThreadPool::DefaultThreadCount() of this process (provenance).
  int default_threads = 0;

  /// One JSON object: the result keys plus a "detail" block (sample
  /// counts, validity, notes, failure reasons) for the result file.
  /// "correct" is about the answers only; a run whose generator fell
  /// behind stays correct but is marked invalid in the detail block.
  std::string ToJson() const;
  /// The human-readable table, one metric per line.
  void PrintTable(std::FILE* out, const std::string& title) const;

 private:
  Metric& Slot(const std::string& name) {
    for (Metric& m : metrics_) {
      if (m.name == name) return m;
    }
    metrics_.push_back(Metric{});
    metrics_.back().name = name;
    return metrics_.back();
  }
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  Outcomes outcomes_;
  bool valid_ = true;
};

/// Shortest round-trip decimal form of a double (all its digits).
std::string FormatDouble(double value);
/// JSON string literal.
std::string Quote(const std::string& text);

/// Per-name totals of the spans a Tracer recorded on one thread (the
/// thread that drove the ops): total wall microseconds and count.
struct SpanTotals {
  std::map<std::string, double> total_us;
  std::map<std::string, int64_t> count;
  double Us(const std::string& name) const {
    auto it = total_us.find(name);
    return it == total_us.end() ? 0.0 : it->second;
  }
  void Add(const SpanTotals& other) {
    for (const auto& [name, us] : other.total_us) total_us[name] += us;
    for (const auto& [name, n] : other.count) count[name] += n;
  }
};
/// Totals of every span on the thread that recorded `anchor_span`
/// (the benchmark's own per-op span), plus worker-thread spans under
/// the "workers:" prefix.
SpanTotals CollectSpans(const cdpd::Tracer& tracer, const char* anchor_span);

/// Peak resident set of this process in MiB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // CDPD_PERFBENCH_COMMON_H_
