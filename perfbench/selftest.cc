// Self-tests of the benchmark's own arithmetic: exact percentiles and
// the ten-beyond rule, open-loop lag accounting under an injected
// stall, and a wrong answer counting as a failure. Run with
// `perfbench --selftest` (run.py does so before every run).

#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void PercentilesAreExact() {
  Samples s;
  // 1..100 inserted out of order.
  for (int i = 100; i >= 1; --i) s.Add(i);
  Expect(s.Percentile(0.50) == 50, "p50 of 1..100 is 50");
  Expect(s.Percentile(0.90) == 90, "p90 of 1..100 is 90");
  Expect(s.Percentile(0.99) == 99, "p99 of 1..100 is 99");
  Expect(s.Percentile(1.00) == 100, "p100 is the max");
  Samples one;
  one.Add(7.5);
  Expect(one.Percentile(0.5) == 7.5 && one.Percentile(0.99) == 7.5,
         "a single sample is every percentile");
  Samples dup;
  for (double v : {3.0, 1.0, 3.0, 2.0, 3.0}) dup.Add(v);
  Expect(dup.Median() == 3.0, "median with duplicates");
  // Values no log2 bucket boundary would produce: the percentile is a
  // sample, not a bucket edge.
  Samples odd;
  for (int i = 0; i < 1000; ++i) odd.Add(100.0 + i * 0.37);
  Expect(odd.Percentile(0.99) == 100.0 + 989 * 0.37, "p99 is a raw sample");
  Expect(Samples().Percentile(0.5) == 0.0, "empty samples read 0");
}

void TenBeyondRule() {
  Expect(Samples::BeyondCount(0.90, 100) == 10, "10 beyond p90 at n=100");
  Expect(Samples::TailSupported(0.90, 100), "p90 supported at n=100");
  Expect(!Samples::TailSupported(0.90, 99), "p90 unsupported at n=99");
  Expect(Samples::BeyondCount(0.99, 1000) == 10, "10 beyond p99 at n=1000");
  Expect(!Samples::TailSupported(0.99, 999), "p99 unsupported at n=999");
  Expect(Samples::TailSupported(0.50, 20) && !Samples::TailSupported(0.50, 19),
         "p50 needs 20 samples");
  Report report;
  Samples few;
  for (int i = 0; i < 50; ++i) few.Add(i);
  report.SetPercentile("x_p99", few, 0.99, 1.0, "ms");
  Expect(report.metrics()[0].samples == 50 && report.metrics()[0].beyond == 0,
         "the report carries the sample count and beyond count");
}

void LagUnderInjectedStall() {
  // 1000 requests due every millisecond; the generator stalls for 50 ms
  // at t = 0.5 s, so every request due inside the stall leaves when it
  // ends.
  const double stall_begin = 0.5, stall_end = 0.55;
  LagLedger lag;
  Samples latency_from_due;
  const double service_s = 0.0002;
  for (int i = 0; i < 1000; ++i) {
    const double due = i * 0.001;
    const double sent =
        (due >= stall_begin && due < stall_end) ? stall_end : due;
    lag.Record(due, sent);
    latency_from_due.Add(sent + service_s - due);
  }
  // 50 of 1000 requests were late, by up to 50 ms: p99 lateness is the
  // 990th smallest, which lies inside the stall.
  Expect(lag.lateness_ms().count() == 1000, "every send is recorded");
  Expect(lag.P99Ms() > 30.0 && lag.P99Ms() <= 50.0 + 1e-9,
         "p99 lateness sees the stall");
  Expect(!lag.Valid(5.0), "a 50 ms stall marks the run invalid");
  Expect(lag.lateness_ms().Median() == 0.0, "on-time sends have no lag");
  // Timed from the due time, the stall shows in the requests it held
  // back (coordinated omission would have hidden it).
  Expect(latency_from_due.Percentile(0.99) * 1e3 > 30.0,
         "latency from due includes the stall");
  LagLedger on_time;
  for (int i = 0; i < 1000; ++i) on_time.Record(i * 0.001, i * 0.001 + 1e-5);
  Expect(on_time.Valid(5.0), "a punctual generator is valid");
}

void WrongAnswerIsAFailure() {
  Report report;
  for (int i = 0; i < 9; ++i) report.outcomes().Ok();
  report.Set("latency_ms", 1.0, "ms");
  Expect(report.ToJson().find("\"correct\": true") != std::string::npos,
         "all answers right: correct");
  // A post-hoc check finds one of the nine answers wrong.
  report.outcomes().Mismatch("schedule differs from the serial reference");
  Expect(report.outcomes().attempted() == 9, "a mismatch is not a new attempt");
  Expect(report.outcomes().failed() == 1, "a mismatch is a failure");
  Expect(std::fabs(report.outcomes().FailRatio() - 1.0 / 9) < 1e-15,
         "fail_ratio = failed / attempted");
  const std::string json = report.ToJson();
  Expect(json.find("\"correct\": false") != std::string::npos &&
             json.find("\"failed\": 1") != std::string::npos,
         "a wrong answer makes the result incorrect");
  Expect(!SameBits(0.1 + 0.2, 0.3), "costs compare bit-for-bit");
  Expect(!SameBits(0.0, -0.0), "-0.0 differs from 0.0 bitwise");
  Outcomes outcomes;
  outcomes.Fail("status 3");
  Expect(outcomes.attempted() == 1 && outcomes.failed() == 1,
         "an error reply is an attempted, failed op");
}

}  // namespace

int RunSelfTests() {
  PercentilesAreExact();
  TenBeyondRule();
  LagUnderInjectedStall();
  WrongAnswerIsAFailure();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
