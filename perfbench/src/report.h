// Result record, output checks, timing helpers and span log shared by the
// three workloads of the benchmark binary.
//
// A workload fills one Report: end-to-end metrics, per-layer metrics (traced
// runs only), and named output checks. main.cc prints it as one JSON line
// that perfbench/run.py turns into the benchmark's result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/backoff.h"
#include "hw/hw_executor.h"
#include "hw/latency_histogram.h"
#include "hw/oversub_executor.h"
#include "hw/register_storage.h"
#include "memory/reclaim_policy.h"
#include "memory/storage_policy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Knobs every hw workload passes explicitly instead of inheriting the
// library defaults (which read LLSC_STORAGE_POLICY and LLSC_RECLAIMER).
inline constexpr llsc::StoragePolicy kStorage = llsc::StoragePolicy::kBoxed;
inline constexpr llsc::ReclaimPolicy kReclaimer = llsc::ReclaimPolicy::kEpoch;
inline constexpr llsc::YieldPolicy kYield = llsc::YieldPolicy::kEveryOp;
inline llsc::BackoffOptions pinned_backoff() {
  llsc::BackoffOptions b;
  b.policy = llsc::BackoffPolicy::kAdaptiveParking;
  return b;
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

// Nearest-rank quantile of `values` (q in [0, 1]); the median of an even
// count is the midpoint of the middle two. 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// Seed of repetition `rep` of phase `phase`: the same --seed gives the same
// inputs on every commit, and repetitions differ from each other.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t phase,
                       std::uint64_t rep);

struct Metric {
  double value = 0.0;
  std::string unit;
  // Samples behind a percentile or median; 0 when the value is a single
  // measurement or a count.
  std::uint64_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  // "expected ... got ..."
};

// One run's knobs, from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  // Self-test: perturb the expected value of every check so each must fire.
  bool corrupt = false;
};

// A span at a layer boundary, recorded by the benchmark around its calls
// into the library. Kept in memory; main.cc writes them at exit as Chrome
// trace-event JSON.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  // since trace_origin()
  std::uint64_t dur_ns = 0;
  int tid = 0;           // carrier / process lane
  std::int64_t id = -1;  // request id shared by a request's spans
  std::int64_t parent = -1;
};

// Time zero of every span in the process.
Clock::time_point trace_origin();

class SpanLog {
 public:
  // Records [a, b) and returns the span's index (usable as a parent id).
  // Spans past kMaxSpans are counted but not stored.
  std::int64_t add(std::string name, Clock::time_point a, Clock::time_point b,
                   int tid = 0, std::int64_t id = -1,
                   std::int64_t parent = -1);
  void append(const SpanLog& other);
  std::string to_chrome_json() const;

  // Cap on stored spans: enough to inspect a run, small enough to keep the
  // trace file a few tens of MB.
  static constexpr std::size_t kMaxSpans = 200'000;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  const RunConfig& config() const { return config_; }

  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0) {
    metrics_[name] = Metric{value, unit, samples};
  }
  // Per-layer metric; keeps an existing value so the traced workload's own
  // number wins over a companion pass's.
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 0) {
    layers_.emplace(name, Metric{value, unit, samples});
  }
  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }

  // Records a named output check comparing `actual` with `expected`. In a
  // self-test run the expected value is perturbed first, so the check must
  // fail. Returns whether it passed.
  bool expect_eq(const std::string& name, std::uint64_t expected,
                 std::uint64_t actual);
  bool expect_true(const std::string& name, bool actual,
                   const std::string& what);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, Metric>& layers() const { return layers_; }

  // Adds a companion pass's per-layer metrics (those not yet present), its
  // checks, and its op accounting.
  void merge_companion(const Report& other);

  std::string to_json(const std::string& workload) const;

  SpanLog& spans() { return spans_; }
  const SpanLog& spans() const { return spans_; }

 private:
  RunConfig config_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, std::string> info_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  SpanLog spans_;
};

// Runs `body(i)` for i = 0, 1, ... until `budget_s` seconds have passed
// since `start` and at least `min_reps` repetitions ran. Returns the count.
template <typename Body>
int repeat_for(double budget_s, int min_reps, Body&& body) {
  const Clock::time_point start = Clock::now();
  int i = 0;
  while (i < min_reps || seconds_between(start, Clock::now()) < budget_s) {
    body(i);
    ++i;
  }
  return i;
}

// Times one set-up into `out`, with a span. The workloads take a few set-up
// samples before each timed repetition, so the median of setup_s covers the
// whole run rather than its first milliseconds.
template <typename Fn>
void sample_setup(Report& report, const char* span, std::vector<double>& out,
                  Fn&& setup) {
  const Clock::time_point t0 = Clock::now();
  setup();
  const Clock::time_point t1 = Clock::now();
  report.spans().add(span, t0, t1);
  out.push_back(seconds_between(t0, t1));
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Backoff, register-storage and reclamation counters of the service and
// hammer workloads, summed over repetitions.
struct MemoryTotals {
  llsc::HwBackoffStats backoff;
  llsc::ReclaimStats reclaim;  // node_high_water: max over repetitions
  std::uint64_t writes = 0;    // completed installs
  std::uint64_t overflow_events = 0;
  std::uint64_t reps = 0;

  void add(const llsc::HwRunResult& run);
};

// The backoff.*, register_storage.* and reclaim.* layer metrics; `ops` is
// the denominator of the per-op ratios.
void report_memory_layers(Report& report, const MemoryTotals& totals,
                          std::uint64_t ops);

// The three workloads. Each fills `report` with its end-to-end metrics and,
// when config.traced, with its per-layer metrics.
void run_service_workload(Report& report, double budget_s);
void run_hammer_workload(Report& report, double budget_s);
void run_lower_bound_workload(Report& report, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
