// The `lower_bound` workload: the paper's pipeline on the simulator, in one
// process.
//
//   * analyze_wakeup_run(tournament_wakeup(), kN): the Fig. 2 adversary plus
//     the Theorem 6.1 accounting, checked against the known winner_ops,
//     max_ops and rounds for kN;
//   * a Lemma 3.1 Monte-Carlo estimate through
//     estimate_expected_complexity_parallel on kMcWorkers workers, checked
//     for zero spec violations and termination rate 1.
//
// No hw layer except mc_driver runs here. ops_per_s is simulated
// shared-memory steps per host second of one analysis; latency is the host
// time of one Monte-Carlo sample (one randomized run with its checks), so
// the two end-to-end numbers measure different work.
#include <algorithm>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/lower_bound.h"
#include "core/up_tracker.h"
#include "hw/mc_driver.h"
#include "memory/shared_memory.h"
#include "report.h"
#include "runtime/system.h"
#include "wakeup/algorithms.h"

namespace perfbench {
namespace {

constexpr int kN = 16384;
// Known values of the deterministic tournament run at kN under the
// adversary (all-zeros tosses): every process takes the same number of
// steps, one per round.
constexpr std::uint64_t kKnownWinnerOps = 114;
constexpr std::uint64_t kKnownMaxOps = 114;
constexpr std::uint64_t kKnownRounds = 114;
// Monte-Carlo: randomized tournament wakeup, kMcSamples toss assignments.
constexpr int kMcN = 1024;
constexpr int kMcSamples = 64;
constexpr int kMcWorkers = 4;
// UpTracker::over is timed at a smaller n: at kN it alone takes ~18 s on a
// 4-core x86-64 host, longer than a whole run.
constexpr int kUpTrackerN = 2048;
// setup_s samples taken before each analysis.
constexpr int kSetupsPerRep = 5;
// Share of the budget for the analyses; the Monte-Carlo runs get the rest.
constexpr double kAnalysisShare = 0.5;
// SharedMemory probe: calls per op kind, over kProbeProcs x kProbeRegs.
constexpr int kProbeCalls = 400'000;
constexpr int kProbeProcs = 16;
constexpr int kProbeRegs = 64;

enum Phase : std::uint64_t { kMc = 1, kProbe = 2 };

struct AdversaryRun {
  double seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t winner_ops = 0;
  bool terminated = false;
};

// The lean (All,A)-run analyze_wakeup_run starts with, timed on its own:
// System construction excluded, run_adversary included.
AdversaryRun run_lean_adversary(const llsc::ProcBody& algo) {
  AdversaryRun out;
  llsc::System sys(kN, algo);
  sys.set_recording(false);
  llsc::AdversaryOptions options;
  options.record_snapshots = false;
  const Clock::time_point t0 = Clock::now();
  const llsc::RunLog log = llsc::run_adversary(sys, options);
  out.seconds = seconds_between(t0, Clock::now());
  out.steps = sys.total_shared_ops();
  out.rounds = static_cast<std::uint64_t>(log.num_rounds());
  out.terminated = log.all_terminated;
  out.winner_ops = ~std::uint64_t{0};
  for (llsc::ProcId p = 0; p < kN; ++p) {
    const llsc::Process& proc = sys.process(p);
    if (proc.done() && proc.result().holds_u64() &&
        proc.result().as_u64() == 1) {
      out.winner_ops = std::min(out.winner_ops, proc.shared_ops());
    }
  }
  return out;
}

void check_report(Report& report, const llsc::WakeupLowerBoundReport& r) {
  report.add_attempted(1);
  bool ok = report.expect_true("lower_bound.terminated", r.terminated,
                               "the adversary run to terminate");
  ok &= report.expect_true("lower_bound.bound_met", r.bound_met,
                           "4^winner_ops >= n");
  ok &= report.expect_eq("lower_bound.winner_ops", kKnownWinnerOps,
                         r.winner_ops);
  ok &= report.expect_eq("lower_bound.max_ops", kKnownMaxOps, r.max_ops);
  ok &= report.expect_eq("lower_bound.rounds", kKnownRounds,
                         static_cast<std::uint64_t>(r.rounds));
  if (!ok) report.add_failed(1);
}

struct Analyses {
  std::vector<double> setup_s;  // building the kN-process System
  std::vector<double> seconds;  // one analyze_wakeup_run each
};

// Runs analyses for `budget_s` (at least `min_reps`), each after
// kSetupsPerRep set-up samples.
void run_analyses(Report& report, const llsc::ProcBody& algo, double budget_s,
                  int min_reps, Analyses& out) {
  repeat_for(budget_s, min_reps, [&](int) {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      sample_setup(report, "lower_bound.setup", out.setup_s,
                   [&] { llsc::System sys(kN, algo); });
    }
    const Clock::time_point t0 = Clock::now();
    const llsc::WakeupLowerBoundReport r = llsc::analyze_wakeup_run(algo, kN);
    const Clock::time_point t1 = Clock::now();
    report.spans().add("core.analyze_wakeup_run", t0, t1);
    out.seconds.push_back(seconds_between(t0, t1));
    check_report(report, r);
  });
}

struct McTotals {
  std::vector<double> samples_per_s;
  std::vector<double> shard_imbalance;
  // Host seconds per sample of each shard (wall time ÷ samples run).
  std::vector<double> sample_s;
};

McTotals run_monte_carlo(Report& report, double budget_s) {
  McTotals t;
  const llsc::ProcBody algo = llsc::randomized_tournament_wakeup();
  llsc::McRunOptions options;
  options.num_workers = kMcWorkers;
  options.storage = kStorage;
  options.reclaimer = kReclaimer;
  repeat_for(budget_s, 1, [&](int i) {
    const Clock::time_point t0 = Clock::now();
    const llsc::ParallelMcResult r = llsc::estimate_expected_complexity_parallel(
        algo, kMcN, kMcSamples, rep_seed(report.config().seed, kMc, i),
        options);
    report.spans().add("mc_driver.estimate", t0, Clock::now());
    const llsc::ExpectedComplexityEstimate& e = r.estimate;
    const auto terminated = static_cast<std::uint64_t>(
        e.termination_rate * e.samples + 0.5);
    report.add_attempted(static_cast<std::uint64_t>(e.samples));
    report.add_failed(static_cast<std::uint64_t>(e.samples) - terminated +
                      static_cast<std::uint64_t>(e.spec_violations));
    report.expect_eq("lower_bound.mc_spec_violations", 0,
                     static_cast<std::uint64_t>(e.spec_violations));
    report.expect_eq("lower_bound.mc_terminated_samples",
                     static_cast<std::uint64_t>(kMcSamples), terminated);
    report.expect_true("lower_bound.mc_bound_met", e.bound_met,
                       "min winner ops >= log4 n");
    t.samples_per_s.push_back(e.samples / r.wall_seconds);
    double lo = 0.0, hi = 0.0;
    for (const llsc::McShardStats& s : r.shards) {
      if (s.samples_run == 0) continue;
      lo = lo == 0.0 ? s.wall_seconds : std::min(lo, s.wall_seconds);
      hi = std::max(hi, s.wall_seconds);
      t.sample_s.push_back(s.wall_seconds / s.samples_run);
    }
    t.shard_imbalance.push_back(lo > 0 ? hi / lo : 0.0);
  });
  return t;
}

void report_end_to_end(Report& report, const Analyses& a,
                       std::uint64_t steps, const McTotals& mc) {
  report.metric("setup_s", median(a.setup_s), "s", a.setup_s.size());
  report.metric("ops_per_s", static_cast<double>(steps) / median(a.seconds),
                "1/s", a.seconds.size());
  const std::size_t n = mc.sample_s.size();
  report.metric("latency_p50_us", median(mc.sample_s) * 1e6, "us", n);
  report.metric("latency_p99_us", quantile(mc.sample_s, 0.99) * 1e6, "us", n);
}

// Host ns per SharedMemory LL and per SC (the SC loop re-links first, so
// its time is the LL;SC pair minus the LL).
void memory_probe(Report& report) {
  const auto run_loop = [](bool with_sc) {
    llsc::SharedMemory memory;
    memory.set_storage_policy(kStorage);
    memory.set_reclaim_policy(kReclaimer);
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbeCalls; ++i) {
      const llsc::ProcId p = i % kProbeProcs;
      const llsc::RegId r = static_cast<llsc::RegId>(i % kProbeRegs);
      const llsc::Value v = memory.ll(p, r);
      sink += v.holds_u64() ? v.as_u64() : 0;
      if (with_sc) {
        sink += memory.sc(p, r, llsc::Value::of_u64(sink)).flag ? 1 : 0;
      }
    }
    const double ns = seconds_between(t0, Clock::now()) * 1e9 / kProbeCalls;
    return sink == ~std::uint64_t{0} ? 0.0 : ns;  // keeps `sink` live
  };
  const Clock::time_point t0 = Clock::now();
  std::vector<double> ll, pair;
  for (int i = 0; i < 3; ++i) {
    ll.push_back(run_loop(false));
    pair.push_back(run_loop(true));
  }
  report.spans().add("memory.probe", t0, Clock::now());
  report.layer("memory.sim_ll_ns", median(ll), "ns", 3);
  report.layer("memory.sim_sc_ns", median(pair) - median(ll), "ns", 3);
}

void run_untraced(Report& report, double budget_s) {
  const llsc::ProcBody algo = llsc::tournament_wakeup();
  // Steps per analysis: exact, the same on every run.
  const AdversaryRun lean = run_lean_adversary(algo);
  Analyses analyses;
  run_analyses(report, algo, budget_s * kAnalysisShare, 3, analyses);
  const McTotals mc = run_monte_carlo(report, budget_s * (1.0 - kAnalysisShare));
  report_end_to_end(report, analyses, lean.steps, mc);
}

void run_traced(Report& report, double budget_s) {
  const llsc::ProcBody algo = llsc::tournament_wakeup();
  // Each repetition times the lean adversary run alone, then a whole
  // analysis; the paired difference is the analysis' other work.
  std::vector<double> adversary_s, other_s;
  Analyses analyses;
  AdversaryRun lean;
  repeat_for(budget_s * kAnalysisShare, 2, [&](int) {
    const Clock::time_point t0 = Clock::now();
    lean = run_lean_adversary(algo);
    report.spans().add("core.run_adversary", t0, Clock::now());
    adversary_s.push_back(lean.seconds);
    report.expect_eq("lower_bound.lean_rounds", kKnownRounds, lean.rounds);
    report.expect_eq("lower_bound.lean_winner_ops", kKnownWinnerOps,
                     lean.winner_ops);
    run_analyses(report, algo, 0.0, 1, analyses);
    other_s.push_back(analyses.seconds.back() - lean.seconds);
  });

  // UP-set bookkeeping over a snapshot-recording run at kUpTrackerN.
  {
    llsc::System sys(kUpTrackerN, algo);
    sys.set_recording(false);
    const llsc::RunLog log = llsc::run_adversary(sys);
    const Clock::time_point t0 = Clock::now();
    const llsc::UpTracker up = llsc::UpTracker::over(log);
    const Clock::time_point t1 = Clock::now();
    report.spans().add("core.up_tracker", t0, t1);
    report.layer("core.up_tracker_s", seconds_between(t0, t1), "s");
    report.expect_true("lower_bound.lemma51_holds", up.lemma51_holds(),
                       "|UP| <= 4^r in every round");
  }

  const double adversary = median(adversary_s);
  report.layer("core.adversary_s", adversary, "s", adversary_s.size());
  report.layer("core.analysis_other_s", median(other_s), "s", other_s.size());
  report.layer("runtime.steps", static_cast<double>(lean.steps), "count");
  report.layer("core.rounds", static_cast<double>(lean.rounds), "count");
  report.layer("core.winner_ops", static_cast<double>(lean.winner_ops),
               "count");
  report.layer("runtime.ns_per_step",
               adversary * 1e9 / static_cast<double>(lean.steps), "ns");
  memory_probe(report);

  const McTotals mc = run_monte_carlo(report, budget_s * (1.0 - kAnalysisShare));
  report_end_to_end(report, analyses, lean.steps, mc);
  report.layer("mc_driver.samples_per_s", median(mc.samples_per_s), "1/s",
               mc.samples_per_s.size());
  report.layer("mc_driver.shard_imbalance", median(mc.shard_imbalance),
               "ratio", mc.shard_imbalance.size());
}

}  // namespace

void run_lower_bound_workload(Report& report, double budget_s) {
  if (report.config().traced) {
    run_traced(report, budget_s);
  } else {
    run_untraced(report, budget_s);
  }
}

}  // namespace perfbench
