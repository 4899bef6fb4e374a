// Open-loop service-mode load generator over OversubscribedExecutor.
//
// The north star's "millions of users" scenario: M logical client
// processes multiplexed on N carrier threads, each issuing operations at
// Poisson arrival times rather than back-to-back (closed-loop). Each
// process draws exponential inter-arrival gaps with mean M/λ — the
// superposition of the M streams is a Poisson process of aggregate rate
// λ — and the gaps are derived deterministically from (seed, p), so a
// service run's offered load replays exactly.
//
// A process waits for its next arrival by cooperative yielding
// (ctx.yield() — no carrier thread is pinned while waiting), executes
// the configured operation through the usual awaitables (the pool
// yields after each of its shared ops), and records the
// enqueue→complete latency: completion time minus the SCHEDULED arrival,
// so queueing delay under backlog is included — the open-loop convention
// that makes p99 honest when the system saturates (coordinated-omission-
// free). Latencies land in the per-process LatencyHistograms and are
// merged into HwRunResult::latency.
#ifndef LLSC_HW_SERVICE_H_
#define LLSC_HW_SERVICE_H_

#include <cstdint>
#include <optional>

#include "hw/oversub_executor.h"

namespace llsc {

enum class ServiceWorkload : int {
  // fetch&add(1) on one shared register via the RMW awaitable — the
  // Section 7 strong-operation baseline: one shared op per request.
  kFetchInc = 0,
  // LL;SC increment retry loop on one shared register — the naive
  // wakeup-counter shape whose retries amplify under contention.
  kWakeup = 1,
  // fetch&increment through two-level combining (hw/group_combining.h):
  // each carrier's clients batch locally and one CombiningUniversal at
  // n = N carries the batches, absorbing the contention kWakeup melts
  // under.
  kCombining = 2,
};

const char* to_string(ServiceWorkload workload);

struct ServiceOptions {
  int procs = 64;    // M logical client processes
  int threads = 4;   // N carrier threads (0 = hardware_concurrency)
  // Aggregate Poisson arrival rate λ across all processes, ops/second.
  double arrival_rate_hz = 50'000.0;
  int ops_per_proc = 8;
  ServiceWorkload workload = ServiceWorkload::kFetchInc;
  std::uint64_t seed = 1;
  // Kept because perfbench/ sets it; nothing reads it.
  YieldPolicy yield_policy = YieldPolicy::kEveryOp;
  BackoffOptions backoff;
  // Kept because perfbench/ sets it; nothing reads it.
  StoragePolicy storage = default_storage_policy();
  std::optional<std::uint64_t> timeout_ms;
  std::uint64_t progress_timeout_ms = 0;
  // Fault plan for the run (hw/fault.h), nullptr = no injection. Crash
  // entries with a RecoverySpec model a crash-storm with repair: a client
  // crashed mid-request does NOT count as served (its latency is never
  // recorded — see ServiceResult::in_flight_at_crash), and an amnesiac
  // rejoin resumes the arrival schedule at the first unserved request
  // (completed requests are journaled in the latency histogram's count).
  // Caller keeps the plan alive for the run.
  const FaultPlan* fault = nullptr;
};

struct ServiceResult {
  // Full run result; run.latency holds the merged enqueue→complete
  // histogram (p50/p90/p99/p999 via its accessors), run.sched the
  // scheduler counters.
  HwRunResult run;
  double arrival_rate_hz = 0.0;  // configured λ
  std::uint64_t offered_ops = 0;  // procs × ops_per_proc
  std::uint64_t served_ops = 0;   // completed (latency-recorded) ops
  double throughput_ops_per_sec = 0.0;  // served / wall
  // --- availability accounting (zero without a fault plan) ---
  // Requests a crash caught between arrival and completion. Each such
  // request is not served (no latency recorded); under recovery the new
  // incarnation re-serves the same arrival, so one request can be counted
  // here once per crash it absorbed. served <= offered always holds;
  // served == offered on a fully-recovered run.
  std::uint64_t in_flight_at_crash = 0;
  std::uint64_t crashes = 0;     // injected crash-stops (FaultStats)
  std::uint64_t recoveries = 0;  // rejoins consumed (FaultStats)
  // Mean time to repair: average injected rejoin delay, wall-clock
  // (recovery_units × stall_unit_ns / recoveries). 0 with no recoveries.
  double mttr_ms = 0.0;
  // served / offered in [0, 1]; 1.0 when offered == 0.
  double availability = 1.0;
};

// Runs one open-loop service experiment. The offered/served accounting
// always holds served <= offered, with equality on a clean run.
ServiceResult run_service(const ServiceOptions& options);

}  // namespace llsc

#endif  // LLSC_HW_SERVICE_H_
