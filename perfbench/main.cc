// The benchmark binary: runs one workload for a fixed time, checks
// every answer, and prints one JSON result line on stdout (the
// human-readable table goes to stderr). run.py builds this binary and
// wraps its result with provenance.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --server-bin PATH --tmp-dir DIR
//   perfbench --selftest

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTests();
}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload advise_trace|solve_scale|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--server-bin PATH] [--tmp-dir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::RunSelfTests();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseNumber(value, &number)) {
      args.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0) {
      args.seconds = number;
    } else if (flag == "--trace" && ParseNumber(value, &number)) {
      args.trace = number != 0;
    } else if (flag == "--server-bin") {
      args.server_bin = value;
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else {
      return Usage();
    }
  }
  perfbench::Report report;
  report.default_threads = cdpd::ThreadPool::DefaultThreadCount();
  if (args.workload == "advise_trace") {
    perfbench::RunAdviseTrace(args, &report);
  } else if (args.workload == "solve_scale") {
    perfbench::RunSolveScale(args, &report);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args, &report);
  } else {
    return Usage();
  }
  report.PrintTable(stderr, args.workload + (args.trace ? " (traced)" : ""));
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.outcomes().failed() == 0 ? 0 : 1;
}
