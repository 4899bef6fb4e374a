// Benchmark binary: runs one workload for a fixed time budget and prints its
// Report as one JSON line on stdout.
//
//   perfbench_llsc --workload service|hammer|lower_bound --seed N
//                  --seconds S --trace 0|1 [--trace-out PATH] [--corrupt]
//
// --trace 0 measures the workload's end-to-end metrics. --trace 1 runs the
// workload's traced pipeline (the benchmark's own loops around the library's
// public calls, with spans), which gives the end-to-end metrics as traced and
// the per-layer metrics; it then runs the other two workloads' traced
// pipelines as short companion passes, so every per-layer metric is present
// in every traced run. --corrupt perturbs every check's expected value (the
// self-test in run.py asserts each check then fails).
//
// Usually started by perfbench/run.py, which builds this binary, pins the
// environment and summarizes the result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "hw/hw_executor.h"
#include "memory/reclaim_policy.h"
#include "memory/storage_policy.h"
#include "report.h"

namespace perfbench {
namespace {

using WorkloadFn = void (*)(Report&, double);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"service", run_service_workload},
    {"hammer", run_hammer_workload},
    {"lower_bound", run_lower_bound_workload},
};

// Share of the budget the traced workload itself gets in a traced run; the
// two companion passes split the rest.
constexpr double kTracedShare = 0.6;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_llsc: %s\nusage: perfbench_llsc --workload "
               "service|hammer|lower_bound --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--corrupt]\n",
               why);
  std::exit(2);
}

void record_fingerprint(Report& report, const std::string& workload) {
  report.info("workload", workload);
  report.info("seed", std::to_string(report.config().seed));
  report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  // The workloads pin storage and reclamation explicitly wherever the API
  // takes them; these are the process defaults the rest inherits.
  report.info("default_storage_policy",
              llsc::to_string(llsc::default_storage_policy()));
  report.info("default_reclaim_policy",
              llsc::to_string(llsc::default_reclaim_policy()));
  report.info("default_hw_timeout_ms",
              std::to_string(llsc::default_hw_timeout_ms()));
}

int run(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      config.traced = t == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--corrupt") {
      config.corrupt = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (config.seconds <= 0) usage("--seconds must be positive");
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) usage("unknown workload");

  // The arrival clock and every span share this origin.
  (void)trace_origin();
  Report report(config);
  record_fingerprint(report, workload);
  if (!config.traced) {
    chosen->run(report, config.seconds);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    chosen->run(report, config.seconds * kTracedShare);
    // Peak RSS is read before the companions run, so it is the traced
    // workload's own.
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // p99 does not repeat within an end-to-end bound, so it is reported
    // with the per-layer metrics.
    const Metric& p99 = report.metrics().at("latency_p99_us");
    report.layer("latency_p99_us", p99.value, p99.unit, p99.samples);
    const double companion_s = config.seconds * (1.0 - kTracedShare) / 2.0;
    for (const Workload& w : kWorkloads) {
      if (&w == chosen) continue;
      Report companion(config);
      w.run(companion, companion_s);
      report.merge_companion(companion);
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << report.spans().to_chrome_json();
    if (!out) {
      std::fprintf(stderr, "perfbench_llsc: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.to_json(workload).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_llsc: %s\n", e.what());
    return 1;
  }
}
