#include "common.h"

#include <charconv>
#include <cstring>

#include "common/resource_tracker.h"

namespace perfbench {

std::string FormatDouble(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Report::ToJson() const {
  const bool correct = outcomes_.failed() == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcomes_.attempted());
  out += ", \"failed\": " + std::to_string(outcomes_.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(m.name) + ": {\"value\": " + FormatDouble(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  out += "}, \"detail\": {\"fail_ratio\": " + FormatDouble(outcomes_.FailRatio());
  out += ", \"default_threads\": " + std::to_string(default_threads);
  out += ", \"valid\": ";
  out += valid_ ? "true" : "false";
  out += ", \"samples\": {";
  first = true;
  for (const Metric& m : metrics_) {
    if (m.quantile == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += Quote(m.name) + ": {\"n\": " + std::to_string(m.samples) +
           ", \"beyond\": " + std::to_string(m.beyond) + "}";
  }
  out += "}, \"failures\": [";
  first = true;
  for (const std::string& reason : outcomes_.reasons()) {
    if (!first) out += ", ";
    first = false;
    out += Quote(reason);
  }
  out += "], \"notes\": [";
  first = true;
  for (const std::string& note : notes_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(note);
  }
  out += "]}}";
  return out;
}

void Report::PrintTable(std::FILE* out, const std::string& title) const {
  std::fprintf(out, "== %s ==\n", title.c_str());
  for (const Metric& m : metrics_) {
    if (m.quantile > 0) {
      std::fprintf(out, "  %-34s %16.6g %-6s (n=%zu, %zu beyond p%g%s)\n",
                   m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                   m.beyond, m.quantile * 100,
                   m.beyond >= 10 ? "" : "; tail below ten-beyond support");
    } else {
      std::fprintf(out, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::fprintf(out, "  %-34s %16lld / %lld (fail_ratio %.6g)\n",
               "failed / attempted", static_cast<long long>(outcomes_.failed()),
               static_cast<long long>(outcomes_.attempted()),
               outcomes_.FailRatio());
  for (const std::string& reason : outcomes_.reasons()) {
    std::fprintf(out, "  failure: %s\n", reason.c_str());
  }
  for (const std::string& note : notes_) {
    std::fprintf(out, "  %s\n", note.c_str());
  }
}

namespace {

bool AnchorTid(const std::vector<cdpd::Tracer::Event>& events,
               const char* anchor, uint32_t* tid) {
  for (const auto& e : events) {
    if (std::strcmp(e.name, anchor) == 0) {
      *tid = e.tid;
      return true;
    }
  }
  return false;
}

}  // namespace

SpanTotals CollectSpans(const cdpd::Tracer& tracer, const char* anchor_span) {
  SpanTotals totals;
  const std::vector<cdpd::Tracer::Event> events = tracer.Events();
  uint32_t tid = 0;
  const bool anchored = AnchorTid(events, anchor_span, &tid);
  for (const auto& e : events) {
    std::string name = e.name;
    if (!anchored || e.tid != tid) name = "workers:" + name;
    totals.total_us[name] += static_cast<double>(e.duration_us);
    totals.count[name] += 1;
  }
  return totals;
}

double SelfPeakRssMb() {
  return static_cast<double>(cdpd::PeakRssBytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
