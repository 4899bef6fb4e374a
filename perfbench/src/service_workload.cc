// The `service` workload: open-loop fetch&increment through
// CombiningUniversal on the oversubscribed executor, M = 64 clients per
// carrier on 4 carriers.
//
// Untraced, it calls the library's run_service() three ways:
//   * zero-op runs of the same configuration, for setup_s;
//   * a saturation phase (arrival_rate_hz = 0: every request due at t = 0)
//     whose served ops per second is the capacity, ops_per_s;
//   * a load phase at the fixed Poisson rate kLoadRateHz, whose merged
//     completion-minus-scheduled-arrival latency gives latency_p50/p99.
// It then runs one untimed saturation repetition through the benchmark's
// own client loop (below) to check the responses run_service() drops.
//
// Traced, it drives OversubscribedExecutor::run with the benchmark's own
// copy of run_service's client loop, over the same arrival schedule and a
// CombiningUniversal it owns, so it can stamp each op's start, keep the
// responses, read CombiningStats, and record request spans.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "hw/hw_executor.h"
#include "hw/oversub_executor.h"
#include "hw/service.h"
#include "objects/arith.h"
#include "report.h"
#include "universal/combining.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kCarriers = 4;
constexpr int kClients = 64 * kCarriers;
// λ₀: fixed, so a faster commit sees the same offered load. Capacity on a
// 4-core x86-64 virtual machine is ~20 000-30 000 ops/s depending on stack
// layout; 10 000 keeps every layout below ~half of it, where latency tracks
// the work per op rather than a queue that amplifies host noise.
constexpr double kLoadRateHz = 10'000.0;
// Work per repetition; every repetition of a phase does exactly this much.
constexpr int kSaturationOpsPerClient = 64;
constexpr int kLoadOpsPerClient = 32;
// The untraced run's untimed response check.
constexpr int kResponseCheckOpsPerClient = 16;
// setup_s samples (zero-op runs) taken before each repetition.
constexpr int kSetupsPerRep = 3;
// Share of the budget for the saturation phase; the load phase gets the
// rest (untraced) or kTracedLoadShare of it (traced, before the probes).
constexpr double kSaturationShare = 0.4;
constexpr double kTracedLoadShare = 0.4;
// Bare-yield probe: yields per client.
constexpr int kYieldProbeYields = 200;
// Simulator probe: fetch&increments per process at n = kClients.
constexpr int kSimOpsPerProc = 1;

enum Phase : std::uint64_t {
  kSetup = 0,
  kSaturation = 1,
  kLoad = 2,
  kResponseCheck = 3,
};

llsc::ServiceOptions service_options(std::uint64_t seed, double rate_hz,
                                     int ops_per_client) {
  llsc::ServiceOptions o;
  o.procs = kClients;
  o.threads = kCarriers;
  o.arrival_rate_hz = rate_hz;
  o.ops_per_proc = ops_per_client;
  o.workload = llsc::ServiceWorkload::kCombining;
  o.seed = seed;
  o.yield_policy = kYield;
  o.backoff = pinned_backoff();
  o.storage = kStorage;
  // No watchdog deadline, whatever LLSC_TIMEOUT_MS says.
  o.timeout_ms = 0;
  o.progress_timeout_ms = 0;
  return o;
}

// Offered/served accounting of one repetition.
void check_served(Report& report, bool run_ok, std::uint64_t offered,
                  std::uint64_t served) {
  report.add_attempted(offered);
  report.add_failed(run_ok ? offered - std::min(served, offered) : offered);
  report.expect_true("service.run_ok", run_ok, "a clean run");
  report.expect_eq("service.served_eq_offered", offered, served);
}

// --- the benchmark's own client loop ---------------------------------------

// run_service's arrival schedule (hw/service.cc), reproduced so the traced
// run offers the identical load: i.i.d. exponential gaps with mean m/λ per
// client, seeded from (seed, p).
std::vector<std::uint64_t> arrival_schedule(std::uint64_t seed, llsc::ProcId p,
                                            int ops, double rate_hz, int m) {
  llsc::Rng rng(llsc::mix64(seed ^ 0x53B51CE5A10ADull ^
                            (static_cast<std::uint64_t>(p) << 32)));
  const double mean_gap_ns =
      rate_hz > 0 ? 1e9 * static_cast<double>(m) / rate_hz : 0.0;
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(static_cast<std::size_t>(ops));
  double t = 0.0;
  for (int k = 0; k < ops; ++k) {
    const double u = 1.0 - rng.next_double();
    t += mean_gap_ns > 0 ? -mean_gap_ns * std::log(u) : 0.0;
    arrivals.push_back(static_cast<std::uint64_t>(t));
  }
  return arrivals;
}

struct OpStamp {
  Clock::time_point start;
  Clock::time_point end;
};

struct ClientLog {
  std::vector<std::uint64_t> arrivals;  // ns after the epoch
  std::vector<OpStamp> stamps;
  std::vector<std::uint64_t> responses;
};

struct TracedShared {
  Clock::time_point epoch;
  llsc::UniversalConstruction* uc = nullptr;
};

// run_service's client loop plus stamps. A free function taking pointers,
// with co_await only in loop bodies (see runtime/sim_task.h on GCC 12).
llsc::SimTask traced_client(llsc::ProcCtx ctx, const TracedShared* shared,
                            ClientLog* log) {
  for (std::size_t k = 0; k < log->arrivals.size(); ++k) {
    const Clock::time_point due =
        shared->epoch + std::chrono::nanoseconds(log->arrivals[k]);
    while (Clock::now() < due) {
      co_await ctx.yield();
    }
    const Clock::time_point start = Clock::now();
    llsc::ObjOp op{"fetch&increment", {}};
    const llsc::Value response =
        co_await shared->uc->execute(ctx, std::move(op));
    log->stamps.push_back(OpStamp{start, Clock::now()});
    log->responses.push_back(response.holds_u64() ? response.as_u64()
                                                  : ~std::uint64_t{0});
  }
  co_return llsc::Value::of_u64(log->responses.size());
}

struct TracedRun {
  llsc::HwRunResult run;
  llsc::CombiningStats combining;
  Clock::time_point epoch;
  std::vector<ClientLog> logs;
};

TracedRun run_traced_service(std::uint64_t seed, double rate_hz,
                             int ops_per_client) {
  TracedRun out;
  llsc::CombiningUniversal uc(
      kClients, [] { return std::make_unique<llsc::FetchAddObject>(64, 0); },
      /*base=*/0);
  out.logs.resize(kClients);
  for (llsc::ProcId p = 0; p < kClients; ++p) {
    ClientLog& log = out.logs[static_cast<std::size_t>(p)];
    log.arrivals =
        arrival_schedule(seed, p, ops_per_client, rate_hz, kClients);
    log.stamps.reserve(log.arrivals.size());
    log.responses.reserve(log.arrivals.size());
  }
  llsc::OversubRunOptions o;
  o.seed = seed;
  o.backoff = pinned_backoff();
  o.storage = kStorage;
  o.reclaimer = kReclaimer;
  o.timeout_ms = 0;
  o.num_threads = kCarriers;
  o.yield_policy = kYield;
  o.register_groups = uc.register_groups();
  TracedShared shared;
  shared.uc = &uc;
  const llsc::ProcBody body = [&](llsc::ProcCtx ctx, llsc::ProcId i, int) {
    return traced_client(ctx, &shared, &out.logs[static_cast<std::size_t>(i)]);
  };
  llsc::OversubscribedExecutor exec(o);
  shared.epoch = Clock::now();
  out.run = exec.run(kClients, body);
  out.combining = uc.stats();
  out.epoch = shared.epoch;
  return out;
}

// Checks one traced repetition: clean run, served == offered, and the
// fetch&increment responses are exactly {0, ..., offered - 1}.
void check_traced(Report& report, const TracedRun& t) {
  std::uint64_t offered = 0;
  std::vector<std::uint64_t> responses;
  for (const ClientLog& log : t.logs) {
    offered += log.arrivals.size();
    responses.insert(responses.end(), log.responses.begin(),
                     log.responses.end());
  }
  check_served(report, t.run.ok, offered, responses.size());
  std::sort(responses.begin(), responses.end());
  std::uint64_t first_gap = responses.size();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i] != i) {
      first_gap = i;
      break;
    }
  }
  // The length of the prefix 0, 1, 2, ... must be the whole response set.
  report.expect_eq("service.responses_are_0_to_offered", offered, first_gap);
}

void run_untraced(Report& report, double budget_s) {
  const std::uint64_t seed = report.config().seed;
  std::vector<double> setup;
  const auto sample_setups = [&] {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      sample_setup(report, "service.setup", setup, [&] {
        const llsc::ServiceResult r = llsc::run_service(service_options(
            rep_seed(seed, kSetup, setup.size()), kLoadRateHz, 0));
        report.expect_true("service.run_ok", r.run.ok, "a clean run");
      });
    }
  };

  std::vector<double> capacity;
  repeat_for(budget_s * kSaturationShare, 3, [&](int i) {
    sample_setups();
    const Clock::time_point t0 = Clock::now();
    const llsc::ServiceResult r = llsc::run_service(service_options(
        rep_seed(seed, kSaturation, i), 0.0, kSaturationOpsPerClient));
    report.spans().add("service.saturation_rep", t0, Clock::now());
    check_served(report, r.run.ok, r.offered_ops, r.served_ops);
    capacity.push_back(static_cast<double>(r.served_ops) /
                       r.run.wall_seconds);
  });

  llsc::LatencyHistogram latency;
  const int load_reps =
      repeat_for(budget_s * (1.0 - kSaturationShare), 3, [&](int i) {
        sample_setups();
        const llsc::ServiceResult r = llsc::run_service(service_options(
            rep_seed(seed, kLoad, i), kLoadRateHz, kLoadOpsPerClient));
        check_served(report, r.run.ok, r.offered_ops, r.served_ops);
        latency.merge(r.run.latency);
      });

  // run_service drops the fetch&increment responses, so one untimed
  // repetition through the benchmark's own client loop checks them. It runs
  // at saturation, where batches are largest and a lost or doubled op in a
  // batch is likeliest to show.
  check_traced(report, run_traced_service(rep_seed(seed, kResponseCheck, 0),
                                          0.0, kResponseCheckOpsPerClient));

  report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("ops_per_s", median(capacity), "1/s", capacity.size());
  report.metric("latency_p50_us", latency.quantile_ns(0.50) / 1e3,
                "us", latency.count());
  report.metric("latency_p99_us", latency.quantile_ns(0.99) / 1e3,
                "us", latency.count());
  report.info("service.load_rate_hz", std::to_string(kLoadRateHz));
  report.info("service.load_reps", std::to_string(load_reps));
}

// Counters summed over the saturation repetitions.
struct LayerTotals {
  std::uint64_t served = 0;
  llsc::HwSchedStats sched;
  std::uint64_t shared_ops = 0;
  llsc::CombiningStats combining;
  MemoryTotals memory;

  void add(const TracedRun& t, std::uint64_t served_ops) {
    served += served_ops;
    sched.resumes += t.run.sched.resumes;
    sched.yields += t.run.sched.yields;
    sched.steals += t.run.sched.steals;
    sched.idle_parks += t.run.sched.idle_parks;
    shared_ops += t.run.total_shared_ops;
    combining.installs += t.combining.installs;
    combining.ops_applied += t.combining.ops_applied;
    combining.adopted += t.combining.adopted;
    memory.add(t.run);
  }
};

// Mean carrier time of one yield→resume cycle of a body that does nothing
// but yield, at the workload's M and N.
llsc::SimTask yield_only(llsc::ProcCtx ctx, int yields) {
  for (int i = 0; i < yields; ++i) {
    co_await ctx.yield();
  }
  co_return llsc::Value::of_u64(0);
}

double resume_ns_probe(std::uint64_t seed) {
  llsc::OversubRunOptions o;
  o.seed = seed;
  o.backoff = pinned_backoff();
  o.storage = kStorage;
  o.reclaimer = kReclaimer;
  o.timeout_ms = 0;
  o.num_threads = kCarriers;
  o.yield_policy = kYield;
  llsc::OversubscribedExecutor exec(o);
  const llsc::HwRunResult r = exec.run(
      kClients, [](llsc::ProcCtx ctx, llsc::ProcId, int) {
        return yield_only(ctx, kYieldProbeYields);
      });
  return ratio(r.wall_seconds * 1e9 * kCarriers,
               static_cast<double>(r.sched.resumes));
}

void run_traced(Report& report, double budget_s) {
  const std::uint64_t seed = report.config().seed;
  SpanLog& spans = report.spans();

  std::vector<double> setup;
  const auto sample_setups = [&] {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      sample_setup(report, "service.setup", setup, [&] {
        check_traced(report, run_traced_service(
                                 rep_seed(seed, kSetup, setup.size()),
                                 kLoadRateHz, 0));
      });
    }
  };

  std::vector<double> capacity;
  LayerTotals totals;
  repeat_for(budget_s * kSaturationShare, 2, [&](int i) {
    sample_setups();
    const Clock::time_point t0 = Clock::now();
    const TracedRun t = run_traced_service(rep_seed(seed, kSaturation, i),
                                           0.0, kSaturationOpsPerClient);
    spans.add("service.saturation_rep", t0, Clock::now());
    check_traced(report, t);
    std::uint64_t served = 0;
    for (const ClientLog& log : t.logs) served += log.responses.size();
    capacity.push_back(static_cast<double>(served) / t.run.wall_seconds);
    totals.add(t, served);
  });

  llsc::LatencyHistogram latency, lag, op_time;
  repeat_for(budget_s * kTracedLoadShare, 2, [&](int i) {
    sample_setups();
    const Clock::time_point t0 = Clock::now();
    const TracedRun t = run_traced_service(rep_seed(seed, kLoad, i),
                                           kLoadRateHz, kLoadOpsPerClient);
    const std::int64_t rep_span =
        spans.add("service.load_rep", t0, Clock::now());
    check_traced(report, t);
    for (std::size_t p = 0; p < t.logs.size(); ++p) {
      const ClientLog& log = t.logs[p];
      for (std::size_t k = 0; k < log.stamps.size(); ++k) {
        const Clock::time_point due =
            t.epoch + std::chrono::nanoseconds(log.arrivals[k]);
        const OpStamp& s = log.stamps[k];
        latency.record(ns_between(due, s.end));
        lag.record(ns_between(due, s.start));
        op_time.record(ns_between(s.start, s.end));
        if (i == 0) {
          // One request: its wait for the generator, then its execute().
          const auto id = static_cast<std::int64_t>((p << 20) | k);
          const int tid = static_cast<int>(p);
          const std::int64_t req =
              spans.add("service.request", due, s.end, tid, id, rep_span);
          spans.add("service.generator_lag", due, s.start, tid, id, req);
          spans.add("universal.execute", s.start, s.end, tid, id, req);
        }
      }
    }
  });

  report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("ops_per_s", median(capacity), "1/s", capacity.size());
  report.metric("latency_p50_us", latency.quantile_ns(0.50) / 1e3,
                "us", latency.count());
  report.metric("latency_p99_us", latency.quantile_ns(0.99) / 1e3,
                "us", latency.count());

  report.layer("service.generator_lag_p50_us",
               lag.quantile_ns(0.50) / 1e3, "us", lag.count());
  report.layer("service.generator_lag_p99_us",
               lag.quantile_ns(0.99) / 1e3, "us", lag.count());
  report.layer("service.op_time_p50_us",
               op_time.quantile_ns(0.50) / 1e3, "us",
               op_time.count());
  report.layer("service.op_time_p99_us",
               op_time.quantile_ns(0.99) / 1e3, "us",
               op_time.count());

  const double served = static_cast<double>(totals.served);
  report.layer("oversub_executor.yields_per_op",
               ratio(static_cast<double>(totals.sched.yields), served),
               "count/op");
  report.layer("oversub_executor.resumes_per_op",
               ratio(static_cast<double>(totals.sched.resumes), served),
               "count/op");
  report.layer("oversub_executor.steals_per_op",
               ratio(static_cast<double>(totals.sched.steals), served),
               "count/op");
  report.layer("oversub_executor.idle_parks",
               ratio(static_cast<double>(totals.sched.idle_parks),
                     static_cast<double>(totals.memory.reps)),
               "count/rep");
  report.layer("universal.shared_ops_per_op",
               ratio(static_cast<double>(totals.shared_ops), served),
               "count/op");
  report.layer("universal.mean_batch", totals.combining.mean_batch_size(),
               "count");
  report.layer("universal.adopted_ratio",
               ratio(static_cast<double>(totals.combining.adopted),
                     static_cast<double>(totals.combining.ops_applied)),
               "ratio");
  report_memory_layers(report, totals.memory, totals.served);

  // Probes at the same M and N.
  std::vector<double> resume_ns;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    resume_ns.push_back(resume_ns_probe(rep_seed(seed, kSetup, 100 + i)));
    spans.add("oversub_executor.resume_probe", t0, Clock::now());
  }
  report.layer("oversub_executor.resume_ns", median(resume_ns), "ns", 3);

  llsc::CombiningUniversal sim_uc(
      kClients, [] { return std::make_unique<llsc::FetchAddObject>(64, 0); });
  const Clock::time_point s0 = Clock::now();
  const llsc::UcThroughput sim = llsc::run_uc_on_simulator(
      sim_uc, kClients, kSimOpsPerProc,
      [](llsc::ProcId, int) { return llsc::ObjOp{"fetch&increment", {}}; },
      seed);
  spans.add("universal.sim_probe", s0, Clock::now());
  const std::uint64_t sim_ops =
      static_cast<std::uint64_t>(kClients) * kSimOpsPerProc;
  report.expect_eq("service.sim_response_sum", sim_ops * (sim_ops - 1) / 2,
                   sim.response_sum);
  report.layer("universal.sim_op_us",
               ratio(sim.wall_seconds * 1e6, static_cast<double>(sim_ops)),
               "us", sim_ops);
}

}  // namespace

void run_service_workload(Report& report, double budget_s) {
  if (report.config().traced) {
    run_traced(report, budget_s);
  } else {
    run_untraced(report, budget_s);
  }
}

}  // namespace perfbench
