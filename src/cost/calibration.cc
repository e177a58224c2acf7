#include "cost/calibration.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/resource_tracker.h"
#include "common/string_util.h"

namespace cdpd {

namespace {

constexpr double kMinSecondsPerUnit = 1e-12;

/// Leaf scans timed together in one sample of the page/tuple probes, so
/// a sample spans milliseconds, well above the clock's microsecond
/// resolution, on test-sized tables.
constexpr int kScansPerProbe = 10;

/// CPU time of one run of `fn` on the calling thread. Thread CPU time,
/// not wall time: the time a busy host keeps the thread descheduled is
/// not the probe's cost.
template <typename Fn>
double CpuSeconds(Fn&& fn) {
  const int64_t start = ThreadCpuTimeMicros();
  fn();
  return static_cast<double>(ThreadCpuTimeMicros() - start) / 1e6;
}

double Median(std::vector<double> seconds) {
  const auto mid = seconds.begin() + static_cast<ptrdiff_t>(seconds.size() / 2);
  std::nth_element(seconds.begin(), mid, seconds.end());
  return *mid;
}

/// Median CPU time of `fn` over `repetitions` runs.
template <typename Fn>
double MedianSeconds(int repetitions, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < repetitions; ++i) seconds.push_back(CpuSeconds(fn));
  return Median(std::move(seconds));
}

/// Median CPU times of `a` and `b` over `repetitions` runs of each,
/// taken in turn.
template <typename FnA, typename FnB>
std::pair<double, double> MedianSecondsInTurn(int repetitions, FnA&& a,
                                              FnB&& b) {
  std::vector<double> a_seconds;
  std::vector<double> b_seconds;
  for (int i = 0; i < repetitions; ++i) {
    a_seconds.push_back(CpuSeconds(a));
    b_seconds.push_back(CpuSeconds(b));
  }
  return {Median(std::move(a_seconds)), Median(std::move(b_seconds))};
}

}  // namespace

std::string CalibrationReport::ToString() const {
  std::string out = "calibrated cost params (1 unit = 1 sequential page = " +
                    FormatDouble(seconds_per_seq_page * 1e9, 1) + " ns):\n";
  out += "  random_page_cost = " + FormatDouble(params.random_page_cost, 3) +
         "\n";
  out += "  write_page_cost  = " + FormatDouble(params.write_page_cost, 3) +
         "\n";
  out += "  cpu_tuple_cost   = " + FormatDouble(params.cpu_tuple_cost, 6) +
         "\n";
  out += "  sort_cpu_factor  = " + FormatDouble(params.sort_cpu_factor, 6) +
         "\n";
  return out;
}

Result<CalibrationReport> CalibrateCostParams(
    Database* db, const CalibrationOptions& options) {
  if (options.repetitions < 1) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  const Table& table = db->table();
  const int64_t rows = table.num_rows();
  if (rows < 1000) {
    return Status::FailedPrecondition(
        "calibration needs at least 1000 rows for stable probes");
  }
  const Schema& schema = db->schema();
  if (schema.num_columns() < 4) {
    return Status::FailedPrecondition(
        "calibration probes need at least four columns");
  }

  const Configuration saved = db->current_configuration();
  AccessStats scratch;
  CDPD_RETURN_IF_ERROR(
      db->ApplyConfiguration(Configuration::Empty(), &scratch));

  Rng rng(0xca11b8a7e);
  const int64_t domain = db->cost_model().domain_size();
  auto random_value = [&] { return rng.UniformInt(0, domain - 1); };

  // Probes 1 and 2: two covering scans of I(c,d) answering a
  // d-predicate. Both read every leaf and examine every entry; the
  // first matches no row, the second every row, so the first gives
  // seconds/page and their difference seconds/tuple (the per-row CPU
  // the model charges a seek for each match). The heap is stored by
  // column and the leaf entries are fixed-size, so a probe pair that
  // differs in pages (heap vs. leaves, or leaves of two widths) differs
  // in time by less than a busy host's noise; this pair differs in the
  // work done per row. The probes alternate, so a change in load hits both.
  const IndexDef icd({2, 3});
  CDPD_RETURN_IF_ERROR(
      db->ApplyConfiguration(Configuration({icd}), &scratch));
  const int64_t leaf_pages = icd.LeafPages(rows);
  int64_t none_matched = 0;
  int64_t all_matched = 0;
  bool scans_covered = true;
  auto covering_scan = [&](const BoundStatement& select, int64_t* matched) {
    return [&, select, matched] {
      for (int i = 0; i < kScansPerProbe; ++i) {
        AccessStats stats;
        auto result = db->Execute(select, &stats);
        scans_covered = scans_covered && result.ok() &&
                        result->plan.kind == AccessPathKind::kCoveringScan;
        *matched = result.ok() ? result->rows_affected : 0;
      }
    };
  };
  const auto [t_none, t_all] = MedianSecondsInTurn(
      options.repetitions,
      covering_scan(BoundStatement::SelectPoint(2, 3, -1), &none_matched),
      covering_scan(BoundStatement::SelectRange(2, 3, 0, domain - 1),
                    &all_matched));
  if (!scans_covered || all_matched <= none_matched) {
    return Status::Internal("probe degenerate: no covering scan of I(c,d)");
  }

  // Solve  t_none = scans*(leaf_pages*s_page)
  //        t_all  = scans*(leaf_pages*s_page + all_matched*s_tuple)
  // (none_matched is 0 for a table built by Database::Create).
  const double scans = static_cast<double>(kScansPerProbe);
  double seconds_per_page =
      t_none / scans / static_cast<double>(leaf_pages);
  seconds_per_page = std::max(seconds_per_page, kMinSecondsPerUnit);
  double seconds_per_tuple = (t_all - t_none) / scans /
                             static_cast<double>(all_matched - none_matched);
  seconds_per_tuple = std::max(seconds_per_tuple, kMinSecondsPerUnit);
  const int64_t heap_pages = table.heap_pages();

  // Probe 3: random point seeks on I(a).
  const IndexDef ia({0});
  CDPD_RETURN_IF_ERROR(db->ApplyConfiguration(Configuration({ia}), &scratch));
  const int64_t height = ia.Height(rows);
  const double expected_matches = db->cost_model().ExpectedMatches();
  const double t_seeks = MedianSeconds(options.repetitions, [&] {
    for (int i = 0; i < options.seeks_per_probe; ++i) {
      AccessStats stats;
      auto result =
          db->Execute(BoundStatement::SelectPoint(0, 0, random_value()),
                      &stats);
      (void)result;
    }
  });
  double seconds_per_random_page =
      (t_seeks / options.seeks_per_probe -
       expected_matches * seconds_per_tuple) /
      static_cast<double>(height);
  seconds_per_random_page =
      std::max(seconds_per_random_page, kMinSecondsPerUnit);

  // Probe 4: index builds of two widths isolate the write cost; the
  // residual of the narrow build gives the sort factor.
  const double t_build_narrow = MedianSeconds(options.repetitions, [&] {
    AccessStats stats;
    Status drop_then_build =
        db->ApplyConfiguration(Configuration::Empty(), &stats);
    (void)drop_then_build;
    (void)db->ApplyConfiguration(Configuration({ia}), &stats);
  });
  const IndexDef iab({0, 1});
  const double t_build_wide = MedianSeconds(options.repetitions, [&] {
    AccessStats stats;
    Status drop_then_build =
        db->ApplyConfiguration(Configuration::Empty(), &stats);
    (void)drop_then_build;
    (void)db->ApplyConfiguration(Configuration({iab}), &stats);
  });
  const int64_t written_narrow = ia.SizePages(rows);
  const int64_t written_wide = iab.SizePages(rows);
  double seconds_per_written_page =
      (t_build_wide - t_build_narrow) /
      static_cast<double>(std::max<int64_t>(1, written_wide - written_narrow));
  seconds_per_written_page =
      std::max(seconds_per_written_page, kMinSecondsPerUnit);
  const double sort_seconds =
      t_build_narrow -
      static_cast<double>(heap_pages) * seconds_per_page -
      static_cast<double>(written_narrow) * seconds_per_written_page;
  const double sort_denominator =
      static_cast<double>(rows) * Log2(static_cast<double>(rows));
  double seconds_per_sort_unit =
      std::max(sort_seconds, 0.0) / sort_denominator;

  CDPD_RETURN_IF_ERROR(db->ApplyConfiguration(saved, &scratch));

  CalibrationReport report;
  report.seconds_per_seq_page = seconds_per_page;
  report.seconds_per_random_page = seconds_per_random_page;
  report.seconds_per_tuple = seconds_per_tuple;
  report.seconds_per_written_page = seconds_per_written_page;
  report.params.seq_page_cost = 1.0;
  report.params.random_page_cost = seconds_per_random_page / seconds_per_page;
  report.params.write_page_cost =
      seconds_per_written_page / seconds_per_page;
  report.params.cpu_tuple_cost = seconds_per_tuple / seconds_per_page;
  report.params.sort_cpu_factor = seconds_per_sort_unit / seconds_per_page;
  report.params.drop_pages = CostParams().drop_pages;
  return report;
}

}  // namespace cdpd
