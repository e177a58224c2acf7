#ifndef CDPD_COST_CALIBRATION_H_
#define CDPD_COST_CALIBRATION_H_

#include <string>

#include "common/result.h"
#include "cost/cost_model.h"
#include "engine/database.h"

namespace cdpd {

/// Options for cost-model calibration.
struct CalibrationOptions {
  /// Probe repetitions (medians are taken; raise on noisy machines).
  int repetitions = 5;
  /// Random point operations per seek probe.
  int seeks_per_probe = 2000;
};

/// A calibrated parameter set plus the raw probe measurements it was
/// derived from.
struct CalibrationReport {
  CostParams params;
  /// Seconds per sequentially-read page (the unit: seq_page_cost = 1).
  double seconds_per_seq_page = 0.0;
  double seconds_per_random_page = 0.0;
  double seconds_per_tuple = 0.0;
  double seconds_per_written_page = 0.0;
  std::string ToString() const;
};

/// Derives CostParams from measured engine timings on `db`, so that
/// one cost unit equals one sequentially-read page and the other unit
/// costs reflect the machine actually running the workload (the paper
/// relied on SQL Server's optimizer estimates; a standalone library
/// must earn its constants). Probes:
///
///  * two covering scans of I(c,d), one matching no row and one
///    matching every row — seconds/page from the first, seconds/tuple
///    from their difference;
///  * random B+-tree point seeks — seconds/random-page;
///  * index builds of two widths — seconds/written-page (the sort is
///    charged via sort_cpu ~ cpu_tuple).
///
/// The probes build and drop temporary indexes; the database's
/// configuration is restored afterwards. The table should have at
/// least ~10k rows for stable numbers.
Result<CalibrationReport> CalibrateCostParams(
    Database* db, const CalibrationOptions& options = {});

}  // namespace cdpd

#endif  // CDPD_COST_CALIBRATION_H_
