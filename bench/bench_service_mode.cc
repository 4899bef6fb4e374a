// E16: open-loop service mode — M >> N logical processes on a small
// carrier pool, Poisson arrivals, enqueue->complete latency.
//
// The closed-loop benches (E10-E15) measure how fast n pinned threads can
// hammer the memory back-to-back; this experiment asks the "millions of
// users" question instead: hold the carrier pool at N threads, multiply
// the logical client population M = factor * N through the
// OversubscribedExecutor, and offer work at a fixed aggregate Poisson
// rate lambda. Latency is completion minus the SCHEDULED arrival (see
// src/hw/service.h), so when the pool saturates the backlog shows up in
// p99/p999 instead of being silently absorbed — the open-loop convention
// that defeats coordinated omission.
//
// Three workload legs mirror the paper's operation classes:
//   * FetchInc   — one strong RMW per request (Section 7 baseline).
//   * Wakeup     — the LL/SC increment retry loop; retries amplify under
//     contention, so its tail grows fastest with the oversub factor.
//   * Combining  — fetch&increment through CombiningUniversal; batching
//     soaks up the contention the Wakeup leg melts under.
//
// Counters per row: the pool fingerprint (n_threads, m_procs,
// oversub_factor), the offered/served accounting (arrival_rate_hz,
// offered_ops, served_ops, throughput_ops_per_sec), the latency quartet
// (latency_p50/p90/p99/p999_ns), and the scheduler counters (yields,
// steals, idle_parks). tools/bench_to_csv.py --check enforces the schema:
// served <= offered and monotone percentiles.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "hw/service.h"
#include "util/check.h"

namespace llsc {
namespace {

// Small fixed pool so the oversubscription factor — not the host's core
// count — is the swept variable, and the M = 64N leg stays a sane size.
constexpr int kThreads = 2;
constexpr int kOpsPerProc = 8;

void run_e16(benchmark::State& state, ServiceWorkload workload) {
  const int factor = static_cast<int>(state.range(0));
  const double rate_hz = static_cast<double>(state.range(1));

  ServiceOptions options;
  options.threads = kThreads;
  options.procs = factor * kThreads;
  options.arrival_rate_hz = rate_hz;
  options.ops_per_proc = kOpsPerProc;
  options.workload = workload;

  ServiceResult r;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    r = run_service(options);
    LLSC_CHECK(r.run.ok, "E16 service run failed");
  }
  LLSC_CHECK(r.served_ops == r.offered_ops,
             "clean service run must serve every offered op");

  state.counters["n_threads"] = kThreads;
  state.counters["m_procs"] = options.procs;
  state.counters["oversub_factor"] = factor;
  state.counters["arrival_rate_hz"] = r.arrival_rate_hz;
  state.counters["offered_ops"] = static_cast<double>(r.offered_ops);
  state.counters["served_ops"] = static_cast<double>(r.served_ops);
  state.counters["throughput_ops_per_sec"] = r.throughput_ops_per_sec;
  state.counters["latency_p50_ns"] =
      static_cast<double>(r.run.latency.p50_ns());
  state.counters["latency_p90_ns"] =
      static_cast<double>(r.run.latency.p90_ns());
  state.counters["latency_p99_ns"] =
      static_cast<double>(r.run.latency.p99_ns());
  state.counters["latency_p999_ns"] =
      static_cast<double>(r.run.latency.p999_ns());
  state.counters["yields"] = static_cast<double>(r.run.sched.yields);
  state.counters["steals"] = static_cast<double>(r.run.sched.steals);
  state.counters["idle_parks"] =
      static_cast<double>(r.run.sched.idle_parks);
}

void BM_E16_FetchInc(benchmark::State& state) {
  run_e16(state, ServiceWorkload::kFetchInc);
}
void BM_E16_Wakeup(benchmark::State& state) {
  run_e16(state, ServiceWorkload::kWakeup);
}
void BM_E16_Combining(benchmark::State& state) {
  run_e16(state, ServiceWorkload::kCombining);
}

// Sweep M in {N, 4N, 16N, 64N} crossed with a moderate and a hot arrival
// rate. The moderate rate keeps utilization low (latency ~= service
// time); the hot rate pushes the M = 64N leg into visible queueing.
void e16_sweep(benchmark::internal::Benchmark* bench) {
  for (const int factor : {1, 4, 16, 64}) {
    for (const std::int64_t rate_hz : {20'000, 100'000}) {
      bench->Args({factor, rate_hz});
    }
  }
}

// -------------------------------------------------------------------------
// E17: availability under a crash storm — crash-stop vs crash+recover.
//
// Same open-loop pool as E16 (N = 2 carriers, Poisson arrivals), but the
// fault plan crash-stops `storm` of the M clients mid-schedule. The
// crash-stop leg (recover = 0) loses every victim's remaining requests:
// availability = served/offered drops with the storm size. The
// crash+recover leg (recover = 1) lets each victim rejoin after a
// hash-decided delay (amnesiac restart; the latency journal resumes at
// the first unserved arrival), so availability returns to 1.0 and the
// repair cost shows up instead as MTTR and a p999 dip — the re-served
// request's latency spans the crash and the rejoin delay.
//
// Row schema (tools/bench_to_csv.py --check): the E16 pool/accounting
// counters plus recover, storm, crashes, recoveries, in_flight_at_crash,
// availability, mttr_ms. Invariants: served <= offered, recoveries <=
// crashes, in_flight_at_crash <= crashes, monotone percentiles.

// Rejoin delay: up to 20 units of 50us => MTTR ~0.5ms, large enough to
// dent p999 at a 20kHz offered rate without stretching CI wall time.
constexpr std::uint32_t kE17StallUnitNs = 50'000;
constexpr std::uint32_t kE17DelayUnits = 20;
constexpr int kE17Procs = 16;

void run_e17(benchmark::State& state, ServiceWorkload workload) {
  const bool recover = state.range(0) != 0;
  const int storm = static_cast<int>(state.range(1));

  FaultPlan plan;
  plan.stall_unit_ns = kE17StallUnitNs;
  for (ProcId p = 0; p < storm; ++p) {
    CrashSpec crash;
    crash.proc = p;
    // Mid-schedule: every client has served some requests and still owes
    // some, so a lost victim visibly dents availability.
    crash.after_ops = 4;
    if (recover) {
      crash.recovery.delay_units = kE17DelayUnits;
      crash.recovery.max_restarts = 1;
      crash.recovery.amnesia = true;
    }
    plan.crashes.push_back(crash);
  }

  ServiceOptions options;
  options.threads = kThreads;
  options.procs = kE17Procs;
  options.arrival_rate_hz = 20'000.0;
  options.ops_per_proc = kOpsPerProc;
  options.workload = workload;
  options.fault = &plan;

  ServiceResult r;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    plan.seed = options.seed;
    r = run_service(options);
    LLSC_CHECK(r.served_ops <= r.offered_ops,
               "service accounting must keep served <= offered");
    LLSC_CHECK(r.recoveries <= r.crashes, "more recoveries than crashes");
    LLSC_CHECK(r.in_flight_at_crash <= r.crashes,
               "more mid-op crashes than crashes");
    if (recover) {
      LLSC_CHECK(r.run.ok && r.served_ops == r.offered_ops,
                 "a fully-recovered storm must serve every offered op");
    } else if (storm > 0) {
      LLSC_CHECK(r.run.status == RunStatus::kCrashed,
                 "a crash-stop storm must report kCrashed");
    }
  }

  state.counters["n_threads"] = kThreads;
  state.counters["m_procs"] = options.procs;
  state.counters["recover"] = recover ? 1 : 0;
  state.counters["storm"] = storm;
  state.counters["arrival_rate_hz"] = r.arrival_rate_hz;
  state.counters["offered_ops"] = static_cast<double>(r.offered_ops);
  state.counters["served_ops"] = static_cast<double>(r.served_ops);
  state.counters["throughput_ops_per_sec"] = r.throughput_ops_per_sec;
  state.counters["availability"] = r.availability;
  state.counters["mttr_ms"] = r.mttr_ms;
  state.counters["crashes"] = static_cast<double>(r.crashes);
  state.counters["recoveries"] = static_cast<double>(r.recoveries);
  state.counters["in_flight_at_crash"] =
      static_cast<double>(r.in_flight_at_crash);
  state.counters["latency_p50_ns"] =
      static_cast<double>(r.run.latency.p50_ns());
  state.counters["latency_p90_ns"] =
      static_cast<double>(r.run.latency.p90_ns());
  state.counters["latency_p99_ns"] =
      static_cast<double>(r.run.latency.p99_ns());
  state.counters["latency_p999_ns"] =
      static_cast<double>(r.run.latency.p999_ns());
}

void BM_E17_CrashStorm_FetchInc(benchmark::State& state) {
  run_e17(state, ServiceWorkload::kFetchInc);
}
void BM_E17_CrashStorm_Combining(benchmark::State& state) {
  run_e17(state, ServiceWorkload::kCombining);
}

// Cross crash-stop vs crash+recover with a light and a heavy storm
// (quarter and three-quarters of the client population).
void e17_sweep(benchmark::internal::Benchmark* bench) {
  for (const int recover : {0, 1}) {
    for (const int storm : {4, 12}) {
      bench->Args({recover, storm});
    }
  }
}

}  // namespace
}  // namespace llsc

BENCHMARK(llsc::BM_E17_CrashStorm_FetchInc)
    ->Apply(llsc::e17_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E17_CrashStorm_Combining)
    ->Apply(llsc::e17_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(llsc::BM_E16_FetchInc)
    ->Apply(llsc::e16_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E16_Wakeup)
    ->Apply(llsc::e16_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(llsc::BM_E16_Combining)
    ->Apply(llsc::e16_sweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
