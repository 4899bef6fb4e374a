#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "util/rng.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += json_string(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  // Nearest rank ⌈q·n⌉, 1-based.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  if (q == 0.5 && values.size() % 2 == 0) {
    // Even count: the usual midpoint median.
    const std::size_t hi = values.size() / 2;
    return 0.5 * (values[hi - 1] + values[hi]);
  }
  return values[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t phase,
                       std::uint64_t rep) {
  return llsc::mix64(llsc::mix64(seed) ^ (phase << 48) ^ rep);
}

Clock::time_point trace_origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

std::int64_t SpanLog::add(std::string name, Clock::time_point a,
                          Clock::time_point b, int tid, std::int64_t id,
                          std::int64_t parent) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{.name = std::move(name),
                        .start_ns = ns_between(trace_origin(), a),
                        .dur_ns = ns_between(a, b),
                        .tid = tid,
                        .id = id,
                        .parent = parent});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  // Parent indices refer to the other log; shift them past our spans.
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      continue;
    }
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  dropped_ += other.dropped_;
}

std::string SpanLog::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":" + json_string(s.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid) +
           ",\"ts\":" + json_number(static_cast<double>(s.start_ns) / 1e3) +
           ",\"dur\":" + json_number(static_cast<double>(s.dur_ns) / 1e3) +
           ",\"args\":{\"span\":" + std::to_string(i) +
           ",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "],\"dropped_spans\":" + std::to_string(dropped_) + "}\n";
  return out;
}

void MemoryTotals::add(const llsc::HwRunResult& run) {
  backoff.cas_failures += run.backoff.cas_failures;
  backoff.cas_successes += run.backoff.cas_successes;
  backoff.spin_pauses += run.backoff.spin_pauses;
  backoff.parks += run.backoff.parks;
  backoff.wakes += run.backoff.wakes;
  reclaim.nodes_allocated += run.reclaim.nodes_allocated;
  reclaim.nodes_retired += run.reclaim.nodes_retired;
  reclaim.nodes_freed += run.reclaim.nodes_freed;
  reclaim.scan_passes += run.reclaim.scan_passes;
  reclaim.protect_retries += run.reclaim.protect_retries;
  reclaim.node_high_water =
      std::max(reclaim.node_high_water, run.reclaim.node_high_water);
  writes += run.width.writes_inspected;
  overflow_events += run.width.overflow_events;
  ++reps;
}

void report_memory_layers(Report& report, const MemoryTotals& t,
                          std::uint64_t ops) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const llsc::HwBackoffStats& b = t.backoff;
  const llsc::ReclaimStats& r = t.reclaim;
  report.layer("backoff.cas_fail_ratio",
               ratio(d(b.cas_failures), d(b.cas_failures + b.cas_successes)),
               "ratio");
  report.layer("backoff.spin_pauses_per_op", ratio(d(b.spin_pauses), d(ops)),
               "count/op");
  report.layer("backoff.parks", ratio(d(b.parks), d(t.reps)), "count/rep");
  report.layer("backoff.wakes", ratio(d(b.wakes), d(t.reps)), "count/rep");
  report.layer("register_storage.nodes_allocated_per_write",
               ratio(d(r.nodes_allocated), d(t.writes)), "count/write");
  report.layer("register_storage.overflow_events",
               ratio(d(t.overflow_events), d(t.reps)), "count/rep");
  report.layer("reclaim.node_high_water", d(r.node_high_water), "count");
  report.layer("reclaim.freed_ratio",
               ratio(d(r.nodes_freed), d(r.nodes_retired)), "ratio");
  report.layer("reclaim.scan_passes_per_1k_retired",
               ratio(1000.0 * d(r.scan_passes), d(r.nodes_retired)),
               "count/1k");
  report.layer("reclaim.protect_retries",
               ratio(d(r.protect_retries), d(t.reps)), "count/rep");
}

bool Report::expect_eq(const std::string& name, std::uint64_t expected,
                       std::uint64_t actual) {
  if (config_.corrupt) ++expected;
  const bool ok = expected == actual;
  checks_.push_back(Check{name, ok,
                          "expected " + std::to_string(expected) + " got " +
                              std::to_string(actual)});
  return ok;
}

bool Report::expect_true(const std::string& name, bool actual,
                         const std::string& what) {
  const bool expected = !config_.corrupt;
  const bool ok = actual == expected;
  checks_.push_back(Check{name, ok,
                          std::string("expected ") +
                              (expected ? "" : "not ") + what});
  return ok;
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::merge_companion(const Report& other) {
  for (const auto& [name, m] : other.layers_) layers_.emplace(name, m);
  checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  spans_.append(other.spans_);
}

std::string Report::to_json(const std::string& workload) const {
  // A check that ran many times (once per repetition) is summarized as one
  // entry: failed if any repetition failed, with the first failure's detail.
  std::map<std::string, Check> merged;
  for (const Check& c : checks_) {
    auto [it, fresh] = merged.emplace(c.name, c);
    if (!fresh && it->second.ok && !c.ok) it->second = c;
  }
  std::string checks = "[";
  bool first = true;
  for (const auto& [name, c] : merged) {
    if (!first) checks += ",";
    first = false;
    checks += "{\"name\":" + json_string(name) +
              ",\"ok\":" + (c.ok ? "true" : "false") +
              ",\"detail\":" + json_string(c.detail) + "}";
  }
  checks += "]";
  std::string info = "{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) info += ",";
    first = false;
    info += json_string(key) + ":" + json_string(value);
  }
  info += "}";
  return "{\"workload\":" + json_string(workload) +
         ",\"correct\":" + (correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) +
         ",\"metrics\":" + metrics_json(metrics_) +
         ",\"layers\":" + metrics_json(layers_) + ",\"checks\":" + checks +
         ",\"info\":" + info + "}";
}

}  // namespace perfbench
