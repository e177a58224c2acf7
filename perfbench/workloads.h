// Entry points of the benchmark's workloads.
#ifndef CDPD_PERFBENCH_WORKLOADS_H_
#define CDPD_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Closed loop, 1 caller: ReadTrace + Advisor::Recommend per op.
void RunAdviseTrace(const RunArgs& args, Report* report);
/// Closed loop, 1 caller: WhatIfEngine + SolverSession::Solve over a
/// ~1M-statement window sliding one stage per op.
void RunSolveScale(const RunArgs& args, Report* report);
/// Open loop against an advisor_server child process.
void RunServeMixed(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // CDPD_PERFBENCH_WORKLOADS_H_
