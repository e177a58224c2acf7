// The two closed-loop workloads: advise_trace (one advisor_cli
// invocation per op: ReadTrace + Advisor::Recommend) and solve_scale
// (one sliding-window re-solve per op: WhatIfEngine + SolverSession::
// Solve over ~1M statements).
//
// Each op is a short sequence of public calls, and every call is timed
// on its own. The three request kinds the serving workload reports per
// opcode map onto these calls: "ingest" is the call that takes the
// op's statements in (ReadTrace / the WhatIfEngine build over the slid
// window), "recommend" is the solve (Advisor::Recommend /
// SolverSession::Solve), and "whatif" prices the returned schedule
// with EvaluateScheduleCost on a fresh what-if engine, which is also
// the correctness check of the op's total_cost.

#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "advisor/config_enumeration.h"
#include "advisor/dominance.h"
#include "common/resource_tracker.h"
#include "common/tracing.h"
#include "core/advisor.h"
#include "core/solver.h"
#include "core/solver_session.h"
#include "cost/cost_model.h"
#include "cost/what_if.h"
#include "index/index_def.h"
#include "workload/standard_workloads.h"
#include "workload/trace_io.h"

namespace perfbench {
namespace {

using cdpd::BoundStatement;
using cdpd::Configuration;
using cdpd::DesignProblem;
using cdpd::Schema;
using cdpd::WhatIfEngine;
using cdpd::Workload;

/// The paper's value domain; the cost model's table size is the
/// advisor_cli default.
constexpr int64_t kDomain = 500'000;
constexpr int64_t kRows = 250'000;

/// Per-call samples of one closed loop (seconds), plus totals.
struct ClosedLoop {
  Samples op_s;
  Samples ingest_s;
  Samples recommend_s;
  Samples whatif_s;
  double op_cpu_s = 0.0;
  double statements = 0.0;
  int64_t ops = 0;
};

/// Every end-to-end metric of a closed-loop workload.
void EmitEndToEnd(const ClosedLoop& loop, double setup_s, Report* report) {
  report->Set("setup_s", setup_s, "s");
  report->Set("cpu_ms_per_op",
              loop.ops == 0 ? 0.0 : loop.op_cpu_s * 1e3 / loop.ops, "ms");
  report->Set("peak_rss_mb", SelfPeakRssMb(), "MiB");
  report->SetPercentile("op_p50_ms", loop.op_s, 0.50, 1e3, "ms");
  report->SetPercentile("op_p90_ms", loop.op_s, 0.90, 1e3, "ms");
  const double busy = loop.op_s.Sum();
  report->Set("stmts_per_s", busy > 0 ? loop.statements / busy : 0.0,
              "stmt/s");
}

/// The serving workload's per-opcode figures, read on a closed loop:
/// whatif/recommend/ingest are the op's calls (EvaluateScheduleCost /
/// the solve / the statement intake), and a single caller's highest
/// backlog-free rate is its completed ops per busy second.
void EmitRequestKinds(const ClosedLoop& loop, Report* report) {
  report->SetPercentile("whatif_p50_us", loop.whatif_s, 0.50, 1e6, "us");
  report->SetPercentile("whatif_p99_us", loop.whatif_s, 0.99, 1e6, "us");
  report->SetPercentile("recommend_p50_us", loop.recommend_s, 0.50, 1e6, "us");
  report->SetPercentile("recommend_p99_us", loop.recommend_s, 0.99, 1e6, "us");
  report->SetPercentile("ingest_p50_us", loop.ingest_s, 0.50, 1e6, "us");
  report->SetPercentile("ingest_p99_us", loop.ingest_s, 0.99, 1e6, "us");
  const double busy = loop.op_s.Sum();
  report->Set("max_rps_at_slo", busy > 0 ? loop.ops / busy : 0.0, "1/s");
}

/// Raises the library's default thread count (CDPD_THREADS, which the
/// timed runs pin to 1) to the hardware's for its lifetime.
class HardwareThreads {
 public:
  HardwareThreads() {
    if (const char* env = std::getenv("CDPD_THREADS")) saved_ = env;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ::setenv("CDPD_THREADS", std::to_string(hw).c_str(), 1);
  }
  HardwareThreads(const HardwareThreads&) = delete;
  HardwareThreads& operator=(const HardwareThreads&) = delete;
  ~HardwareThreads() {
    if (saved_.empty()) {
      ::unsetenv("CDPD_THREADS");
    } else {
      ::setenv("CDPD_THREADS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

/// The solve at the hardware's default thread count, five times; its
/// median (the first, cold call included) against the serial timed
/// runs shows what the default thread pool costs or saves.
void HardwareThreadsProbe(const std::function<double(int*)>& solve_ms,
                          Report* report) {
  HardwareThreads hw;
  Samples ms;
  int threads = 0;
  for (int i = 0; i < 5; ++i) ms.Add(solve_ms(&threads));
  report->SetPercentile("core.hw_threads_solve_ms", ms, 0.5, 1.0, "ms");
  report->Set("core.hw_threads", threads, "count");
}

/// Per-op layer samples of a traced closed loop.
struct LayerSamples {
  Samples read_trace_s;      // sql: ReadTrace of the op's SQL.
  double read_statements = 0;
  Samples parse_per_100_us;  // sql: ReadTrace time per 100 statements.
  Samples whatif_build_s;    // cost: WhatIfEngine construction.
  Samples precompute_us;     // cost: precompute spans inside the solve.
  Samples costings;
  double cache_hits = 0, cache_misses = 0;
  Samples prune_us;          // advisor: dominance pruning.
  Samples pruned_configs, candidate_configs;
  Samples solve_s;           // core: the solve call.
  Samples relaxations, segment_chunks, threads_used;
  double solve_wall_s = 0, solve_cpu_s = 0, relax_total = 0;
  double covered_s = 0, op_total_s = 0;
  SpanTotals spans;          // Program spans, summed over traced ops.
};

/// The serving path's per-layer metrics: no transport, service,
/// recorder or generator is on a closed-loop workload's path.
void EmitServingLayersOffPath(Report* report) {
  for (const char* op : {"whatif", "recommend", "ingest"}) {
    report->Set(std::string("server.rtt_us.") + op, 0.0, "us");
    report->Set(std::string("service.handle_us.") + op, 0.0, "us");
    report->Set(std::string("server.transport_us.") + op, 0.0, "us");
  }
  report->Set("service.ingest_window_us", 0.0, "us");
  report->Set("service.recommend_reused_ratio", 0.0, "ratio");
  report->Set("service.recommend_solve_ms", 0.0, "ms");
  report->Set("recorder.append_us", 0.0, "us");
  report->Set("recorder.frames_dropped", 0.0, "count");
  report->Set("recorder.frames", 0.0, "count");
  report->Set("gen.lag_ms", 0.0, "ms");
  report->Note("server/service/recorder/gen layers are not on this "
               "workload's path and read 0");
}

/// The per-layer metrics every workload prints.
void EmitLayers(const LayerSamples& l, const ClosedLoop& untraced,
                const ClosedLoop& traced, Report* report) {
  report->SetPercentile("sql.read_trace_ms", l.read_trace_s, 0.5, 1e3, "ms");
  const double read_total = l.read_trace_s.Sum();
  report->Set("sql.stmts_per_s",
              read_total > 0 ? l.read_statements / read_total : 0.0, "stmt/s");
  report->SetPercentile("sql.ingest_parse_us", l.parse_per_100_us, 0.5, 1.0,
                        "us");
  report->SetPercentile("cost.whatif_build_ms", l.whatif_build_s, 0.5, 1e3,
                        "ms");
  report->SetPercentile("cost.precompute_ms", l.precompute_us, 0.5, 1e-3, "ms");
  report->SetPercentile("cost.costings", l.costings, 0.5, 1.0, "count");
  const double probes = l.cache_hits + l.cache_misses;
  report->Set("cost.cache_hit_ratio", probes > 0 ? l.cache_hits / probes : 0.0,
              "ratio");
  report->Set("cost.whatif_memo_hit_ratio", 0.0, "ratio");
  report->SetPercentile("advisor.prune_ms", l.prune_us, 0.5, 1e-3, "ms");
  report->SetPercentile("advisor.pruned_configs", l.pruned_configs, 0.5, 1.0,
                        "count");
  report->SetPercentile("advisor.candidate_configs", l.candidate_configs, 0.5,
                        1.0, "count");
  report->SetPercentile("core.solve_ms", l.solve_s, 0.5, 1e3, "ms");
  report->SetPercentile("core.relaxations", l.relaxations, 0.5, 1.0, "count");
  report->Set("core.relax_per_s",
              l.solve_wall_s > 0 ? l.relax_total / l.solve_wall_s : 0.0,
              "1/s");
  report->SetPercentile("core.segment_chunks", l.segment_chunks, 0.5, 1.0,
                        "count");
  report->SetPercentile("core.threads_used", l.threads_used, 0.5, 1.0,
                        "count");
  report->Set("core.solve_cpu_per_wall",
              l.solve_wall_s > 0 ? l.solve_cpu_s / l.solve_wall_s : 0.0,
              "ratio");
  EmitRequestKinds(untraced, report);
  EmitServingLayersOffPath(report);
  const double coverage = l.op_total_s > 0 ? l.covered_s / l.op_total_s : 0.0;
  report->Set("layers.coverage", coverage, "ratio");
  report->Set("layers.remainder_ms",
              traced.ops > 0 ? (l.op_total_s - l.covered_s) * 1e3 / traced.ops
                             : 0.0,
              "ms");
  if (coverage < 0.9) {
    report->Note("FLAG: layers cover " + FormatDouble(coverage * 100) +
                 "% of op wall time (< 90%)");
  }
  const double untraced_p50 = untraced.op_s.Median() * 1e3;
  const double traced_p50 = traced.op_s.Median() * 1e3;
  report->Set("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  report->Set("trace.untraced_op_p50_ms", untraced_p50, "ms");
  report->Set("trace.traced_op_p50_ms", traced_p50, "ms");
  for (const auto& [name, us] : l.spans.total_us) {
    if (traced.ops == 0) break;
    char line[160];
    std::snprintf(line, sizeof(line), "span %-28s %10.3f ms/op  (%lld spans)",
                  name.c_str(), us / 1e3 / traced.ops,
                  static_cast<long long>(l.spans.count.at(name)));
    report->Note(line);
  }
}

/// Thread counts the sampled ops are re-solved at: the serial reference
/// (SolveOptions::num_threads = 1, no session pool) and the hardware's
/// count, so a mismatch at either shows whatever the timed runs pin.
std::vector<int> ReferenceThreads() {
  return {1, static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))};
}

bool SameSchedule(const std::vector<Configuration>& a, double a_cost,
                  const std::vector<Configuration>& b, double b_cost) {
  return SameBits(a_cost, b_cost) && a == b;
}

// ---------------------------------------------------------------------------
// advise_trace

/// W1/W2/W3 shapes at ~100k statements (30 mix blocks of 3334), eight
/// distinct seeds per shape, rendered to SQL text. Parsing time differs
/// by up to ~50 % between traces of the same size and shape, so the op
/// median is taken over many traces: with six, it flipped between
/// clusters from seed to seed (spread 0.125).
std::vector<std::string> MakeAdviseInputs(const Schema& schema,
                                          uint64_t seed) {
  static const char* const kShapes[] = {"W1", "W2", "W3"};
  std::vector<std::string> texts;
  for (int i = 0; i < 24; ++i) {
    cdpd::WorkloadGenerator gen(schema, kDomain, seed * 7919 + i);
    Workload w =
        cdpd::MakeScaledPaperWorkload(kShapes[i % 3], 3'334, &gen).value();
    texts.push_back(cdpd::WriteTrace(schema, w));
  }
  return texts;
}

struct AdviseResult {
  std::vector<Configuration> configs;
  double total_cost = 0.0;
};

class AdviseTrace {
 public:
  AdviseTrace(const RunArgs& args, Report* report)
      : args_(args), report_(report), schema_(cdpd::MakePaperSchema()),
        model_(schema_, kRows, kDomain), advisor_(&model_) {}

  void Run() {
    Samples setups;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = NowS();
      traces_ = MakeAdviseInputs(schema_, args_.seed);
      setups.Add(NowS() - t0);
    }
    const double setup_s = setups.Median();
    if (!args_.trace) {
      ClosedLoop loop = Loop(args_.seconds, nullptr);
      SerialReference();
      EmitEndToEnd(loop, setup_s, report_);
    } else {
      ClosedLoop untraced = Loop(args_.seconds / 2, nullptr);
      LayerSamples layers;
      ClosedLoop traced = Loop(args_.seconds / 2, &layers);
      SerialReference();
      const Workload parsed =
          cdpd::ReadTrace(schema_, traces_[0]).value();
      HardwareThreadsProbe(
          [&](int* threads) {
            auto rec = advisor_.Recommend(parsed, Options(0));
            *threads = rec.ok() ? rec->stats.threads_used : 0;
            return rec.ok() ? rec->stats.wall_seconds * 1e3 : 0.0;
          },
          report_);
      EmitLayers(layers, untraced, traced, report_);
    }
  }

 private:
  cdpd::AdvisorOptions Options(int threads) const {
    // advisor_cli defaults: k = 2, 500-statement blocks, optimal,
    // candidates generated from the trace, no session cache.
    cdpd::AdvisorOptions options;
    options.k = 2;
    options.num_threads = threads;
    return options;
  }

  ClosedLoop Loop(double seconds, LayerSamples* layers) {
    ClosedLoop loop;
    const double end = NowS() + seconds;
    for (int64_t i = 0; NowS() < end; ++i) {
      const size_t which = static_cast<size_t>(i) % traces_.size();
      std::unique_ptr<cdpd::Tracer> tracer;
      cdpd::AdvisorOptions options = Options(0);
      if (layers != nullptr) {
        tracer = std::make_unique<cdpd::Tracer>();
        options.observability.tracer = tracer.get();
      }
      const int64_t cpu0 = cdpd::ProcessCpuTimeMicros();
      const double t0 = NowS();
      cdpd::Result<Workload> parsed = [&] {
        cdpd::TraceSpan span(tracer.get(), "bench.sql.read_trace", "bench");
        return cdpd::ReadTrace(schema_, traces_[which]);
      }();
      const double t1 = NowS();
      if (!parsed.ok()) {
        report_->outcomes().Fail("ReadTrace: " + parsed.status().ToString());
        continue;
      }
      cdpd::Result<cdpd::Recommendation> rec = [&] {
        cdpd::TraceSpan span(tracer.get(), "bench.advisor.recommend", "bench");
        return advisor_.Recommend(*parsed, options);
      }();
      const double t2 = NowS();
      const int64_t cpu1 = cdpd::ProcessCpuTimeMicros();
      if (!rec.ok()) {
        report_->outcomes().Fail("Recommend: " + rec.status().ToString());
        continue;
      }
      loop.op_s.Add(t2 - t0);
      loop.ingest_s.Add(t1 - t0);
      loop.recommend_s.Add(t2 - t1);
      loop.op_cpu_s += static_cast<double>(cpu1 - cpu0) / 1e6;
      loop.statements += static_cast<double>(parsed->size());
      ++loop.ops;

      // The check doubles as the what-if request: price the schedule on
      // a fresh engine over the same stages.
      const double t3 = NowS();
      WhatIfEngine engine(&model_, parsed->Span(), rec->segments);
      const double t4 = NowS();
      DesignProblem problem;
      problem.what_if = &engine;
      problem.candidates = rec->candidate_configs;
      problem.initial = Configuration::Empty();
      const double cost =
          cdpd::EvaluateScheduleCost(problem, rec->schedule.configs);
      const double t5 = NowS();
      loop.whatif_s.Add(t5 - t4);
      Check(which, problem, *rec, cost);

      if (layers != nullptr) {
        layers->read_trace_s.Add(t1 - t0);
        layers->read_statements += static_cast<double>(parsed->size());
        layers->parse_per_100_us.Add((t1 - t0) * 1e6 * 100.0 /
                                     static_cast<double>(parsed->size()));
        layers->whatif_build_s.Add(t4 - t3);
        const cdpd::SolveStats& st = rec->stats;
        layers->costings.Add(static_cast<double>(st.costings));
        layers->cache_hits += static_cast<double>(st.cost_cache_hits);
        layers->cache_misses += static_cast<double>(st.cost_cache_misses);
        layers->candidate_configs.Add(
            static_cast<double>(rec->candidate_configs.size()));
        layers->solve_s.Add(st.wall_seconds);
        layers->relaxations.Add(static_cast<double>(st.relaxations));
        layers->segment_chunks.Add(static_cast<double>(st.segment_chunks));
        layers->threads_used.Add(static_cast<double>(st.threads_used));
        layers->solve_wall_s += st.wall_seconds;
        layers->solve_cpu_s += st.cpu_seconds;
        layers->relax_total += static_cast<double>(st.relaxations);
        const SpanTotals spans = CollectSpans(*tracer, "bench.sql.read_trace");
        layers->precompute_us.Add(spans.Us("whatif.exec_matrix") +
                                  spans.Us("whatif.trans_matrix"));
        layers->covered_s += (spans.Us("bench.sql.read_trace") +
                              spans.Us("bench.advisor.recommend")) / 1e6;
        layers->op_total_s += t2 - t0;
        layers->spans.Add(spans);
        // Dominance pruning is off on this path (advisor_cli default);
        // it is probed on the op's own problem so the layer reads the
        // same way on every workload.
        const double p0 = NowS();
        const cdpd::DominanceResult pruned =
            cdpd::PruneDominatedConfigs(problem);
        layers->prune_us.Add((NowS() - p0) * 1e6);
        layers->pruned_configs.Add(static_cast<double>(
            problem.candidates.size() - pruned.survivors.size()));
      }
    }
    return loop;
  }

  void Check(size_t which, const DesignProblem& problem,
             const cdpd::Recommendation& rec, double evaluated) {
    Outcomes& out = report_->outcomes();
    if (!SameBits(evaluated, rec.schedule.total_cost)) {
      out.Fail("advise_trace: total_cost " +
               FormatDouble(rec.schedule.total_cost) +
               " != EvaluateScheduleCost " + FormatDouble(evaluated));
      return;
    }
    const int64_t changes = cdpd::CountChanges(problem, rec.schedule.configs);
    if (changes > 2 || changes != rec.changes) {
      out.Fail("advise_trace: " + std::to_string(changes) +
               " changes for k = 2");
      return;
    }
    auto [it, fresh] = first_.try_emplace(
        which, AdviseResult{rec.schedule.configs, rec.schedule.total_cost});
    if (!fresh && !SameSchedule(it->second.configs, it->second.total_cost,
                                rec.schedule.configs,
                                rec.schedule.total_cost)) {
      out.Fail("advise_trace: trace " + std::to_string(which) +
               " gave two different schedules");
      return;
    }
    out.Ok();
  }

  /// Sampled ops against a serial reference: one thread, no session.
  void SerialReference() {
    int checked = 0;
    for (const auto& [which, result] : first_) {
      if (checked == 3) break;
      ++checked;
      Workload parsed = cdpd::ReadTrace(schema_, traces_[which]).value();
      for (const int threads : ReferenceThreads()) {
        auto rec = advisor_.Recommend(parsed, Options(threads));
        if (!rec.ok() || !SameSchedule(result.configs, result.total_cost,
                                       rec->schedule.configs,
                                       rec->schedule.total_cost)) {
          report_->outcomes().Mismatch(
              "advise_trace: trace " + std::to_string(which) + " differs from "
              "the " + std::to_string(threads) + "-thread reference");
        }
      }
    }
    report_->Note("reference: " + std::to_string(checked) +
                  " traces re-advised at 1 and at hardware threads, "
                  "bit-compared");
  }

  const RunArgs& args_;
  Report* report_;
  Schema schema_;
  cdpd::CostModel model_;
  cdpd::Advisor advisor_;
  std::vector<std::string> traces_;  // Rendered ~100k-statement traces.
  std::map<size_t, AdviseResult> first_;
};

// ---------------------------------------------------------------------------
// solve_scale

/// ~1M statements per window (W1 at 33334 per mix block = 1,000,020,
/// 2001 stages of 500); the pool holds enough extra statements for the
/// window to slide one stage per op for ~220 ops before wrapping.
constexpr size_t kWindow = 1'000'020;
constexpr size_t kStage = 500;

class SolveScale {
 public:
  SolveScale(const RunArgs& args, Report* report)
      : args_(args), report_(report), schema_(cdpd::MakePaperSchema()),
        model_(schema_, kRows, kDomain) {}

  void Run() {
    Samples setups;
    for (int rep = 0; rep < 3; ++rep) {
      session_.reset();
      pool_ = Workload();
      const double t0 = NowS();
      Setup();
      setups.Add(NowS() - t0);
    }
    const double setup_s = setups.Median();
    if (!args_.trace) {
      ClosedLoop loop = Loop(args_.seconds, nullptr);
      SerialReference();
      EmitEndToEnd(loop, setup_s, report_);
    } else {
      ClosedLoop untraced = Loop(args_.seconds / 2, nullptr);
      LayerSamples layers;
      ClosedLoop traced = Loop(args_.seconds / 2, &layers);
      SerialReference();
      SerialSessionProbe();
      HardwareThreadsSolves();
      EmitLayers(layers, untraced, traced, report_);
    }
  }

 private:
  void Setup() {
    cdpd::WorkloadGenerator gen(schema_, kDomain, args_.seed);
    pool_ = cdpd::MakeScaledPaperWorkload("W1", 37'000, &gen).value();
    // The first 24 configurations of the <= 3-index enumeration over
    // the six paper candidates.
    cdpd::ConfigEnumOptions enum_options;
    enum_options.max_indexes_per_config = 3;
    enum_options.num_rows = model_.num_rows();
    candidates_ = cdpd::EnumerateConfigurations(
                      cdpd::MakePaperCandidateIndexes(schema_), enum_options)
                      .value();
    candidates_.resize(24);
    segments_ = cdpd::SegmentFixed(kWindow, kStage);
    slides_ = (pool_.size() - kWindow) / kStage + 1;
    session_ = std::make_unique<cdpd::SolverSession>();
    // Warm the session's cost cache on window 0 (not timed as an op).
    WhatIfEngine engine(&model_, Window(0), segments_);
    auto warm = session_->Solve(Problem(&engine), SolveOptions());
    if (!warm.ok()) {
      report_->outcomes().Fail("warm-up solve: " + warm.status().ToString());
    }
  }

  std::span<const BoundStatement> Window(size_t slide) const {
    return std::span<const BoundStatement>(
        pool_.statements.data() + (slide % slides_) * kStage, kWindow);
  }

  DesignProblem Problem(const WhatIfEngine* engine) const {
    DesignProblem problem;
    problem.what_if = engine;
    problem.candidates = candidates_;
    problem.initial = Configuration::Empty();
    return problem;
  }

  static cdpd::SolveOptions SolveOptions() {
    cdpd::SolveOptions options;
    options.method = cdpd::OptimizerMethod::kOptimal;
    options.k = 4;
    options.prune_dominated = true;
    return options;
  }

  ClosedLoop Loop(double seconds, LayerSamples* layers) {
    ClosedLoop loop;
    const double end = NowS() + seconds;
    while (NowS() < end) {
      const size_t slide = ++next_slide_;
      std::unique_ptr<cdpd::Tracer> tracer;
      cdpd::SolveOptions options = SolveOptions();
      if (layers != nullptr) {
        tracer = std::make_unique<cdpd::Tracer>();
        options.observability.tracer = tracer.get();
      }
      const int64_t cpu0 = cdpd::ProcessCpuTimeMicros();
      const double t0 = NowS();
      std::optional<WhatIfEngine> engine;
      {
        cdpd::TraceSpan span(tracer.get(), "bench.cost.whatif_build", "bench");
        engine.emplace(&model_, Window(slide), segments_);
      }
      const double t1 = NowS();
      const DesignProblem problem = Problem(&*engine);
      cdpd::Result<cdpd::SolveResult> solved = [&] {
        cdpd::TraceSpan span(tracer.get(), "bench.core.solve", "bench");
        return session_->Solve(problem, options);
      }();
      const double t2 = NowS();
      const int64_t cpu1 = cdpd::ProcessCpuTimeMicros();
      if (!solved.ok()) {
        report_->outcomes().Fail("Solve: " + solved.status().ToString());
        continue;
      }
      loop.op_s.Add(t2 - t0);
      loop.ingest_s.Add(t1 - t0);
      loop.recommend_s.Add(t2 - t1);
      loop.op_cpu_s += static_cast<double>(cpu1 - cpu0) / 1e6;
      loop.statements += static_cast<double>(kWindow);
      ++loop.ops;

      const double t3 = NowS();
      const double cost =
          cdpd::EvaluateScheduleCost(problem, solved->schedule.configs);
      loop.whatif_s.Add(NowS() - t3);
      Check(slide, problem, *solved, cost);

      if (layers != nullptr) {
        const cdpd::SolveStats& st = solved->stats;
        layers->whatif_build_s.Add(t1 - t0);
        layers->costings.Add(static_cast<double>(st.costings));
        layers->cache_hits += static_cast<double>(st.cost_cache_hits);
        layers->cache_misses += static_cast<double>(st.cost_cache_misses);
        layers->candidate_configs.Add(static_cast<double>(candidates_.size()));
        layers->pruned_configs.Add(static_cast<double>(st.pruned_configs));
        layers->solve_s.Add(t2 - t1);
        layers->relaxations.Add(static_cast<double>(st.relaxations));
        layers->segment_chunks.Add(static_cast<double>(st.segment_chunks));
        layers->threads_used.Add(static_cast<double>(st.threads_used));
        layers->solve_wall_s += st.wall_seconds;
        layers->solve_cpu_s += st.cpu_seconds;
        layers->relax_total += static_cast<double>(st.relaxations);
        const SpanTotals spans =
            CollectSpans(*tracer, "bench.cost.whatif_build");
        layers->precompute_us.Add(spans.Us("segment.precompute"));
        layers->prune_us.Add(spans.Us("solve.prune"));
        layers->covered_s += (spans.Us("bench.cost.whatif_build") +
                              spans.Us("bench.core.solve")) / 1e6;
        layers->op_total_s += t2 - t0;
        layers->spans.Add(spans);
        // No SQL is on this path (the statements are pre-bound); the sql
        // layer is probed on the stage the op slid in, rendered as SQL.
        const BoundStatement* first = Window(slide).data() + kWindow - kStage;
        Workload stage;
        stage.statements.assign(first, first + kStage);
        const std::string sql = cdpd::WriteTrace(schema_, stage);
        const double p0 = NowS();
        const bool parsed = cdpd::ReadTrace(schema_, sql).ok();
        const double p1 = NowS();
        if (parsed) {
          layers->read_trace_s.Add(p1 - p0);
          layers->read_statements += kStage;
          layers->parse_per_100_us.Add((p1 - p0) * 1e6 * 100.0 / kStage);
        }
      }
    }
    return loop;
  }

  void Check(size_t slide, const DesignProblem& problem,
             const cdpd::SolveResult& solved, double evaluated) {
    Outcomes& out = report_->outcomes();
    if (!SameBits(evaluated, solved.schedule.total_cost)) {
      out.Fail("solve_scale: total_cost " +
               FormatDouble(solved.schedule.total_cost) +
               " != EvaluateScheduleCost " + FormatDouble(evaluated));
      return;
    }
    if (cdpd::CountChanges(problem, solved.schedule.configs) > 4) {
      out.Fail("solve_scale: more than k = 4 changes");
      return;
    }
    if (kept_.size() < 2 || slide % 32 == 0) {
      kept_[slide] = AdviseResult{solved.schedule.configs,
                                  solved.schedule.total_cost};
    }
    last_slide_ = slide;
    last_ = AdviseResult{solved.schedule.configs, solved.schedule.total_cost};
    out.Ok();
  }

  /// Sampled ops against a serial reference: the free Solve() with
  /// num_threads = 1, no session pool and no cost cache.
  void SerialReference() {
    std::vector<std::pair<size_t, AdviseResult>> sample;
    if (!kept_.empty()) sample.push_back(*kept_.begin());
    if (kept_.size() > 2) {
      auto mid = kept_.begin();
      std::advance(mid, kept_.size() / 2);
      sample.push_back(*mid);
    }
    if (last_slide_ != 0) sample.emplace_back(last_slide_, last_);
    for (const auto& [slide, result] : sample) {
      WhatIfEngine engine(&model_, Window(slide), segments_);
      for (const int threads : ReferenceThreads()) {
        cdpd::SolveOptions options = SolveOptions();
        options.num_threads = threads;
        auto ref = cdpd::Solve(Problem(&engine), options);
        if (!ref.ok() ||
            !SameSchedule(result.configs, result.total_cost,
                          ref->schedule.configs, ref->schedule.total_cost)) {
          report_->outcomes().Mismatch(
              "solve_scale: slide " + std::to_string(slide) +
              " differs from the " + std::to_string(threads) +
              "-thread reference");
        }
      }
    }
    report_->Note("reference: " + std::to_string(sample.size()) +
                  " windows re-solved at 1 and at hardware threads without "
                  "a session or cache, bit-compared");
  }

  /// Reports (does not fix) how many threads a solve through a serial
  /// SolverSession really uses: the session builds no pool, so Solve()
  /// falls back to num_threads and spawns a default-size pool of its
  /// own.
  void SerialSessionProbe() {
    HardwareThreads hw;
    cdpd::SessionOptions serial;
    serial.num_threads = 1;
    cdpd::SolverSession session(serial);
    WhatIfEngine engine(&model_, Window(0), segments_);
    auto solved = session.Solve(Problem(&engine), SolveOptions());
    if (solved.ok() && solved->stats.threads_used > 1) {
      report_->Note("DEFECT: SolverSession{num_threads=1}.Solve() used " +
                    std::to_string(solved->stats.threads_used) +
                    " threads (Solve() spawns a default-size pool)");
    }
  }

  /// Solves through a session built at the hardware's default thread
  /// count, one slide further per call.
  void HardwareThreadsSolves() {
    std::unique_ptr<cdpd::SolverSession> session;
    size_t slide = next_slide_;
    HardwareThreadsProbe(
        [&](int* threads) {
          if (session == nullptr) {
            session = std::make_unique<cdpd::SolverSession>();
          }
          WhatIfEngine engine(&model_, Window(++slide), segments_);
          auto solved = session->Solve(Problem(&engine), SolveOptions());
          *threads = solved.ok() ? solved->stats.threads_used : 0;
          return solved.ok() ? solved->stats.wall_seconds * 1e3 : 0.0;
        },
        report_);
  }

  const RunArgs& args_;
  Report* report_;
  Schema schema_;
  cdpd::CostModel model_;
  Workload pool_;
  std::vector<Configuration> candidates_;
  std::vector<cdpd::Segment> segments_;
  size_t slides_ = 1;
  size_t next_slide_ = 0;
  std::unique_ptr<cdpd::SolverSession> session_;
  std::map<size_t, AdviseResult> kept_;
  size_t last_slide_ = 0;
  AdviseResult last_;
};

}  // namespace

void RunAdviseTrace(const RunArgs& args, Report* report) {
  AdviseTrace(args, report).Run();
}

void RunSolveScale(const RunArgs& args, Report* report) {
  SolveScale(args, report).Run();
}

}  // namespace perfbench
