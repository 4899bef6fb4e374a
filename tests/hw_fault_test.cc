// Deterministic fault injection (hw/fault.h): spurious SC/VL failures,
// stalls, crash-stop, the HwExecutor watchdog, and cross-substrate replay.
//
// The load-bearing property throughout: every injection decision is a pure
// function of (plan.seed, process, per-process executed-op index), never of
// the interleaving — so a plan replays bit-for-bit on the simulator and on
// real threads, and the tests can assert exact counts, not distributions.
#include "hw/fault.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/lower_bound.h"
#include "hw/fault_scenarios.h"
#include "hw/hw_executor.h"
#include "hw/oversub_executor.h"
#include "hw/replay.h"
#include "memory/rmw.h"
#include "runtime/system.h"

namespace llsc {
namespace {

constexpr int kIncrements = 8;

// Lock-free fetch&increment: retry LL/SC until `kIncrements` stick.
SimTask retry_increment_body(ProcCtx ctx, ProcId, int) {
  std::uint64_t done = 0;
  while (done < kIncrements) {
    const Value cur = co_await ctx.ll(0);
    const std::uint64_t base = cur.is_nil() ? 0 : cur.as_u64();
    const ScResult r = co_await ctx.sc(0, Value::of_u64(base + 1));
    if (r.ok) ++done;
  }
  co_return Value::of_u64(done);
}

// One LL + one validate; returns 1 iff the validate failed.
SimTask ll_validate_body(ProcCtx ctx, ProcId, int) {
  (void)co_await ctx.ll(0);
  const VlResult v = co_await ctx.validate(0);
  co_return Value::of_u64(v.ok ? 0 : 1);
}

// kIncrements atomic increments on register 0 via RMW — each executed op
// is one complete increment, so the final register value must equal the
// total executed-op count whatever subset of processes crashed.
SimTask rmw_increment_body(ProcCtx ctx, ProcId, int) {
  static const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  for (int k = 0; k < kIncrements; ++k) {
    (void)co_await ctx.rmw(0, inc);
  }
  co_return Value::of_u64(1);
}

SimTask spin_forever_body(ProcCtx ctx, ProcId, int) {
  for (;;) {
    (void)co_await ctx.ll(0);
  }
}

// --- spurious SC failures ------------------------------------------------

// A storm of forced SC failures must cost retries, never correctness: the
// retry loop still lands exactly kIncrements successful increments per
// process, and HwMemory is never written by a forced-failed SC.
TEST(HwFaultRunTest, SpuriousScStormKeepsRetryLoopExact) {
  const int n = 4;
  FaultPlan plan;
  plan.seed = 99;
  plan.sc_fail_rate = 0.6;
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, &retry_increment_body);
  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_TRUE(r.ok);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(r.results[static_cast<std::size_t>(p)].as_u64(),
              static_cast<std::uint64_t>(kIncrements));
  }
  EXPECT_GT(r.fault.injected_sc_failures, 0u);
  // Every shared op went through the injector.
  EXPECT_EQ(r.fault.ops, r.total_shared_ops);
}

TEST(HwFaultRunTest, VlFailuresAreInjectedAtTheConfiguredRate) {
  const int n = 3;
  FaultPlan plan;
  plan.seed = 4;
  plan.vl_fail_rate = 1.0;  // every validate loses its reservation
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, &ll_validate_body);
  EXPECT_EQ(r.status, RunStatus::kClean);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(r.results[static_cast<std::size_t>(p)].as_u64(), 1u);
  }
  EXPECT_EQ(r.fault.injected_vl_failures, static_cast<std::uint64_t>(n));
}

// --- crash-stop ----------------------------------------------------------

// Crash-stop lands exactly on an op boundary: the victim executes
// after_ops operations — not one more, not one fewer — and its result is
// nil while the survivors run to completion.
TEST(HwFaultRunTest, CrashStopsAtExactOpBoundaryOnHw) {
  const int n = 4;
  const ProcBody algo = fault_scenario("fixed_ll_sc");  // 16 ops/process
  FaultPlan plan;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 5, .recovery = {}});
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kCrashed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.crashed_procs, 1);
  EXPECT_EQ(r.proc_status[1], HwProcOutcome::kCrashed);
  EXPECT_EQ(r.shared_ops[1], 5u);
  EXPECT_TRUE(r.results[1].is_nil());
  for (const ProcId p : {0, 2, 3}) {
    EXPECT_EQ(r.proc_status[static_cast<std::size_t>(p)],
              HwProcOutcome::kDone);
    EXPECT_EQ(r.shared_ops[static_cast<std::size_t>(p)], 16u);
  }
  EXPECT_EQ(r.fault.crashes, 1u);
}

// Crashes never tear an operation: on the simulator (where memory is
// inspectable) the register ends at exactly the number of executed
// increments — a crash "mid-run" removed whole future ops, not half of
// one.
TEST(HwFaultTest, CrashStopLeavesNoTornRegisterState) {
  const int n = 3;
  FaultPlan plan;
  plan.crashes.push_back(CrashSpec{.proc = 0, .after_ops = 3, .recovery = {}});
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 5, .recovery = {}});
  System sys(n, &rmw_increment_body);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  while (!sys.all_halted()) {
    for (ProcId p = 0; p < n; ++p) {
      if (!sys.process(p).halted()) sys.step(p);
    }
  }
  EXPECT_EQ(sys.num_crashed(), 2);
  EXPECT_EQ(sys.process(0).shared_ops(), 3u);
  EXPECT_EQ(sys.process(1).shared_ops(), 5u);
  EXPECT_EQ(sys.process(2).shared_ops(),
            static_cast<std::uint64_t>(kIncrements));
  const std::uint64_t executed = 3 + 5 + kIncrements;
  EXPECT_EQ(sys.memory().peek_value(0).as_u64(), executed);
}

// Crash-stop is a terminal outcome the executor can classify the moment
// the last worker unwinds: when EVERY process crash-stops, the run must
// report kCrashed promptly from the per-process outcomes, not sit out the
// watchdog's stagnation window and come back kHung. The progress timeout
// here is deliberately enormous — if the taxonomy leaned on it, the test
// would stall for minutes instead of finishing in milliseconds.
TEST(HwFaultRunTest, AllProcessesCrashStopReportsCrashedNotHungOnHw) {
  const int n = 4;
  const ProcBody algo = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  for (ProcId p = 0; p < n; ++p) {
    plan.crashes.push_back(CrashSpec{
        .proc = p, .after_ops = 2, .recovery = {}});
  }
  HwRunOptions options;
  options.fault = &plan;
  options.progress_timeout_ms = 600'000;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kCrashed);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.crashed_procs, n);
  EXPECT_EQ(r.hung_procs, 0);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(r.proc_status[static_cast<std::size_t>(p)],
              HwProcOutcome::kCrashed);
    EXPECT_EQ(r.shared_ops[static_cast<std::size_t>(p)], 2u);
  }
  EXPECT_EQ(r.fault.crashes, static_cast<std::uint64_t>(n));
}

// Same contract on the oversubscribed pool: a worker whose every resident
// coroutine crash-stopped drains its shard and exits; nothing waits for
// the watchdog.
TEST(HwFaultRunTest, AllProcessesCrashStopReportsCrashedNotHungOnOversub) {
  const int n = 6;
  const ProcBody algo = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  for (ProcId p = 0; p < n; ++p) {
    plan.crashes.push_back(CrashSpec{
        .proc = p, .after_ops = 3, .recovery = {}});
  }
  OversubRunOptions options;
  options.fault = &plan;
  options.progress_timeout_ms = 600'000;
  options.num_threads = 2;
  OversubscribedExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kCrashed);
  EXPECT_FALSE(r.cancelled);
  EXPECT_EQ(r.crashed_procs, n);
  EXPECT_EQ(r.hung_procs, 0);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(r.shared_ops[static_cast<std::size_t>(p)], 3u);
  }
}

// --- crash recovery ------------------------------------------------------

// An amnesiac rejoin: the victim loses its coroutine frame, restarts the
// body from scratch (next incarnation), and the run finishes CLEAN — the
// crash is visible only in the FaultStats. The per-process op counter is
// cumulative across incarnations, so the victim's total is after_ops plus
// one full replay of the 16-op fixed body.
TEST(HwFaultRunTest, AmnesiacRecoveryRejoinsAndRunsClean) {
  const int n = 4;
  const ProcBody algo = fault_scenario("fixed_ll_sc");  // 16 ops/process
  FaultPlan plan;
  plan.stall_unit_ns = 1;  // keep the rejoin delay fast
  CrashSpec crash{.proc = 1, .after_ops = 5, .recovery = {}};
  crash.recovery.delay_units = 3;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.proc_status[1], HwProcOutcome::kDone);
  EXPECT_EQ(r.shared_ops[1], 5u + 16u);
  EXPECT_EQ(r.fault.crashes, 1u);
  EXPECT_EQ(r.fault.recoveries, 1u);
  EXPECT_GT(r.fault.recovery_units, 0u);
}

// Pause-and-resume (amnesia = false): the frame survives, the victim
// finishes its remaining ops in place — 16 total, not after_ops + 16 —
// and the run is clean.
TEST(HwFaultRunTest, PauseAndResumeRecoveryFinishesInPlace) {
  const int n = 4;
  const ProcBody algo = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  plan.stall_unit_ns = 1;
  CrashSpec crash{.proc = 2, .after_ops = 7, .recovery = {}};
  crash.recovery.delay_units = 2;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = false;
  plan.crashes.push_back(crash);
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_EQ(r.proc_status[2], HwProcOutcome::kDone);
  EXPECT_EQ(r.shared_ops[2], 16u);
  EXPECT_EQ(r.fault.crashes, 1u);
  EXPECT_EQ(r.fault.recoveries, 1u);
}

// Exhausted restarts stay terminal: with max_restarts = 1 the second
// crash of the same process has no recovery left, so the run reports
// kCrashed like any crash-stop.
TEST(HwFaultRunTest, ExhaustedRestartsReportCrashed) {
  const int n = 3;
  const ProcBody algo = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  plan.stall_unit_ns = 1;
  CrashSpec first{.proc = 0, .after_ops = 2, .recovery = {}};
  first.recovery.delay_units = 2;
  first.recovery.max_restarts = 1;
  first.recovery.amnesia = true;
  // Crash-stop, no recovery.
  CrashSpec second{.proc = 0, .after_ops = 6, .recovery = {}};
  plan.crashes.push_back(first);
  plan.crashes.push_back(second);
  HwRunOptions options;
  options.fault = &plan;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, algo);
  EXPECT_EQ(r.status, RunStatus::kCrashed);
  EXPECT_EQ(r.proc_status[0], HwProcOutcome::kCrashed);
  EXPECT_EQ(r.shared_ops[0], 6u);
  EXPECT_EQ(r.fault.crashes, 2u);
  EXPECT_EQ(r.fault.recoveries, 1u);
}

// --- cross-substrate replay ----------------------------------------------

// The acceptance criterion in miniature: one plan, one toss seed, both
// substrates — identical taxonomy and identical per-process op counts.
TEST(HwFaultRunTest, PlanReplaysBitForBitAcrossSubstrates) {
  const int n = 4;
  const std::uint64_t toss_seed = 42;
  const ProcBody algo = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.5;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});

  const int max_rounds = AdversaryOptions{}.max_rounds;
  const Observation sim = observe(Substrate::kSim, algo, n, toss_seed, plan,
                                  max_rounds);
  EXPECT_EQ(sim.status, RunStatus::kCrashed);

  const Observation hw = observe(Substrate::kHw, algo, n, toss_seed, plan,
                                 max_rounds);
  EXPECT_EQ(hw.status, sim.status);
  ASSERT_EQ(hw.proc_ops.size(), sim.proc_ops.size());
  for (std::size_t p = 0; p < sim.proc_ops.size(); ++p) {
    EXPECT_EQ(hw.proc_ops[p], sim.proc_ops[p]) << "process " << p;
  }
}

// Stall decisions are part of the deterministic stream too: on a
// schedule-independent workload both substrates roll the identical stall
// count (the simulator only counts them; hw additionally sleeps).
TEST(HwFaultRunTest, StallDecisionsMatchAcrossSubstrates) {
  const int n = 3;
  const ProcBody algo = fault_scenario("fixed_swap");  // 8 ops/process
  FaultPlan plan;
  plan.seed = 21;
  plan.stall_rate = 0.5;
  plan.max_stall_units = 4;
  plan.stall_unit_ns = 1;  // keep the hw run fast

  const int max_rounds = AdversaryOptions{}.max_rounds;
  const Observation sim =
      observe(Substrate::kSim, algo, n, 1, plan, max_rounds);
  const Observation hw =
      observe(Substrate::kHw, algo, n, 1, plan, max_rounds);
  EXPECT_EQ(hw.status, RunStatus::kClean);
  EXPECT_GT(hw.fault.stalls, 0u);
  EXPECT_EQ(hw.fault.stalls, sim.fault.stalls);
  EXPECT_EQ(hw.fault.stall_units, sim.fault.stall_units);
  EXPECT_EQ(hw.fault.ops, sim.fault.ops);
}

// --- watchdog ------------------------------------------------------------

TEST(HwFaultRunTest, WatchdogCancelsHungRunWithTaxonomy) {
  const int n = 2;
  HwRunOptions options;
  // Tight deadline so the watchdog fires fast; scaled because sanitized
  // CI jobs (LLSC_TIMEOUT_SCALE=4 under TSan) run several times slower.
  options.timeout_ms = scale_timeout_ms(50);
  options.watchdog_poll_ms = 2;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, &spin_forever_body);
  EXPECT_EQ(r.status, RunStatus::kHung);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.hung_procs, n);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(r.proc_status[static_cast<std::size_t>(p)],
              HwProcOutcome::kHung);
    EXPECT_TRUE(r.results[static_cast<std::size_t>(p)].is_nil());
  }
}

// --- plan derivation & JSON ----------------------------------------------

TEST(HwFaultTest, DeriveSamplePlanIsPureAndPreservesRates) {
  FaultPlan base;
  base.seed = 5;
  base.sc_fail_rate = 0.25;
  base.crashes.push_back(CrashSpec{.proc = 2, .after_ops = 7, .recovery = {}});
  const FaultPlan a = derive_sample_plan(base, 100);
  const FaultPlan b = derive_sample_plan(base, 100);
  const FaultPlan c = derive_sample_plan(base, 101);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_EQ(a.sc_fail_rate, base.sc_fail_rate);
  ASSERT_EQ(a.crashes.size(), 1u);
  EXPECT_EQ(a.crashes[0], base.crashes[0]);
}

TEST(HwFaultTest, FaultPlanJsonRoundTripsExactly) {
  FaultPlan plan;
  plan.seed = 0xDEADBEEFCAFEF00Dull;  // must survive as a u64, not a double
  plan.sc_fail_rate = 0.125;
  plan.vl_fail_rate = 0.5;
  plan.stall_rate = 0.75;
  plan.max_stall_units = 9;
  plan.stall_unit_ns = 250;
  plan.crashes.push_back(CrashSpec{
      .proc = 3, .after_ops = 1ull << 40, .recovery = {}});
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
}

TEST(HwFaultTest, FaultArtifactJsonRoundTripsExactly) {
  FaultArtifact artifact;
  artifact.scenario = "fixed_ll_sc";
  artifact.n = 4;
  artifact.sample_index = 17;
  artifact.toss_seed = 0xFFFFFFFFFFFFFFFFull;
  artifact.max_rounds = 1 << 20;
  artifact.status = RunStatus::kCrashed;
  artifact.proc_ops = {16, 3, 16, 16};
  artifact.plan.seed = 7;
  artifact.plan.sc_fail_rate = 0.5;
  artifact.plan.crashes.push_back(CrashSpec{
      .proc = 1, .after_ops = 3, .recovery = {}});
  FaultArtifact parsed;
  std::string error;
  ASSERT_TRUE(FaultArtifact::from_json(artifact.to_json(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.scenario, artifact.scenario);
  EXPECT_EQ(parsed.n, artifact.n);
  EXPECT_EQ(parsed.sample_index, artifact.sample_index);
  EXPECT_EQ(parsed.toss_seed, artifact.toss_seed);
  EXPECT_EQ(parsed.max_rounds, artifact.max_rounds);
  EXPECT_EQ(parsed.status, artifact.status);
  EXPECT_EQ(parsed.proc_ops, artifact.proc_ops);
  EXPECT_EQ(parsed.plan, artifact.plan);
}

TEST(HwFaultTest, RecoverySpecJsonRoundTripsExactly) {
  FaultPlan plan;
  plan.seed = 11;
  CrashSpec rejoins{.proc = 0, .after_ops = 4, .recovery = {}};
  rejoins.recovery.delay_units = 7;
  rejoins.recovery.max_restarts = 2;
  rejoins.recovery.amnesia = true;
  CrashSpec stays_down{.proc = 2, .after_ops = 9, .recovery = {}};
  plan.crashes.push_back(rejoins);
  plan.crashes.push_back(stays_down);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
}

// Old artifacts predate the optional "recovery" object. A plan whose
// crashes are all crash-stop must serialize to the pre-recovery schema —
// no "recovery" key at all — and re-serialize byte for byte, so frozen
// artifacts keep replaying unchanged.
TEST(HwFaultTest, CrashStopPlansKeepPreRecoverySchemaByteForByte) {
  FaultPlan plan;
  plan.seed = 3;
  plan.sc_fail_rate = 0.25;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});
  const std::string json = plan.to_json();
  EXPECT_EQ(json.find("recovery"), std::string::npos) << json;
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.to_json(), json);
}

// Malformed recovery objects fail with the offending FIELD in the error,
// not a generic parse failure — `fault_replay --replay` surfaces these
// verbatim.
TEST(HwFaultTest, MalformedRecoveryJsonNamesTheOffendingField) {
  // Splice a broken crash entry into an otherwise-valid serialized plan,
  // so the parse fails on the recovery field under test and nothing else.
  const auto plan_with_crash_entry = [](const std::string& entry) {
    FaultPlan valid;
    std::string json = valid.to_json();
    const std::string empty = "\"crashes\": []";
    const std::string::size_type at = json.find(empty);
    EXPECT_NE(at, std::string::npos) << json;
    return json.replace(at, empty.size(), "\"crashes\": [" + entry + "]");
  };
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::from_json(
      plan_with_crash_entry(
          "{\"proc\": 0, \"after_ops\": 1, \"recovery\": 5}"),
      &plan, &error));
  EXPECT_NE(error.find("recovery"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(FaultPlan::from_json(
      plan_with_crash_entry("{\"proc\": 0, \"after_ops\": 1, "
                            "\"recovery\": {\"max_restarts\": 1}}"),
      &plan, &error));
  EXPECT_NE(error.find("delay_units"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(FaultPlan::from_json(
      plan_with_crash_entry("{\"proc\": 0, \"after_ops\": 1, "
                            "\"recovery\": {\"delay_units\": 2, "
                            "\"max_restarts\": 1, \"amnesia\": 7}}"),
      &plan, &error));
  EXPECT_NE(error.find("amnesia"), std::string::npos) << error;
}

// An n = 4 adaptive-style artifact with one crash and one traced
// decision, edited by the tests below.
FaultArtifact four_process_artifact() {
  FaultArtifact artifact;
  artifact.scenario = "fixed_ll_sc";
  artifact.n = 4;
  artifact.toss_seed = 42;
  artifact.max_rounds = 1 << 12;
  artifact.proc_ops = {16, 3, 16, 16};
  artifact.plan.seed = 7;
  artifact.plan.strategy = FaultStrategyKind::kAdaptive;
  artifact.plan.fault_budget = 6;
  artifact.plan.crashes.push_back(
      CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});
  artifact.plan.trace.decisions.push_back(
      FaultDecision{.proc = 0, .op_index = 1, .is_vl = false, .score = 1});
  return artifact;
}

// Replace the first occurrence of `from` in `json` with `to`.
std::string edited(std::string json, const std::string& from,
                   const std::string& to) {
  const std::string::size_type at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return json.replace(at, from.size(), to);
}

TEST(HwFaultTest, ArtifactTraceProcOutsideNIsALoadError) {
  const std::string json =
      edited(four_process_artifact().to_json(), "{\"proc\": 0, \"op\": 1",
             "{\"proc\": 9, \"op\": 1");
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("plan.trace[0].proc"), std::string::npos) << error;
}

TEST(HwFaultTest, ArtifactCrashProcOutsideNIsALoadError) {
  const std::string json =
      edited(four_process_artifact().to_json(), "{\"proc\": 1, \"after_ops\"",
             "{\"proc\": 9, \"after_ops\"");
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("plan.crashes[0].proc"), std::string::npos) << error;
}

TEST(HwFaultTest, CrashProcWiderThanProcIdIsALoadError) {
  // 2^32 + 1 used to wrap to p1 and crash it.
  const std::string json =
      edited(four_process_artifact().to_json(), "{\"proc\": 1, \"after_ops\"",
             "{\"proc\": 4294967297, \"after_ops\"");
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("crashes[0].proc"), std::string::npos) << error;
  EXPECT_NE(error.find("4294967297"), std::string::npos) << error;
}

TEST(HwFaultTest, MaxRoundsWiderThanIntIsALoadError) {
  const std::string json =
      edited(four_process_artifact().to_json(), "\"max_rounds\": 4096",
             "\"max_rounds\": 4294967297");
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("field 'max_rounds'"), std::string::npos) << error;
  EXPECT_NE(error.find("4294967297"), std::string::npos) << error;
}

TEST(HwFaultTest, SampleIndexOutsideIntIsALoadError) {
  for (const char* bad : {"4294967297", "-2", "1.5", "\"3\""}) {
    const std::string json =
        edited(four_process_artifact().to_json(), "\"sample_index\": -1",
               std::string("\"sample_index\": ") + bad);
    FaultArtifact parsed;
    std::string error;
    EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error)) << bad;
    EXPECT_NE(error.find("field 'sample_index'"), std::string::npos)
        << bad << ": " << error;
  }
}

// Artifacts written while storage had a policy switch carry a
// storage_policy key and three width counters before "proc_ops". A policy
// that existed is ignored: the artifact loads to the same record and
// replays on both substrates. One that did not fails by name.
TEST(HwFaultTest, ArtifactNamingAStoragePolicyParsesAndReplays) {
  const int n = 4;
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.5;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});
  const int max_rounds = AdversaryOptions{}.max_rounds;
  const std::string json =
      freeze("fixed_ll_sc", n, 42, plan, max_rounds,
             observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), n, 42,
                     plan, max_rounds))
          .to_json();
  EXPECT_EQ(json.find("storage_policy"), std::string::npos);
  const auto with_policy = [&json](const std::string& policy) {
    return edited(json, "  \"proc_ops\"",
                  "  \"storage_policy\": \"" + policy +
                      "\",\n"
                      "  \"overflow_events\": 0,\n"
                      "  \"max_bits\": 1,\n"
                      "  \"boxed_fallback_registers\": 0,\n"
                      "  \"proc_ops\"");
  };
  for (const char* policy : {"boxed", "inline"}) {
    FaultArtifact parsed;
    std::string error;
    ASSERT_TRUE(FaultArtifact::from_json(with_policy(policy), &parsed, &error))
        << policy << ": " << error;
    EXPECT_EQ(parsed.to_json(), json) << policy;
    for (const Substrate substrate : {Substrate::kSim, Substrate::kHw}) {
      std::string why;
      EXPECT_TRUE(replay(parsed, substrate, &why))
          << policy << " on " << to_string(substrate) << ": " << why;
    }
  }
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(
      FaultArtifact::from_json(with_policy("inline-strict"), &parsed, &error));
  EXPECT_NE(error.find("field 'storage_policy'"), std::string::npos) << error;
  EXPECT_NE(error.find("removed"), std::string::npos) << error;
  EXPECT_FALSE(FaultArtifact::from_json(with_policy("packed"), &parsed, &error));
  EXPECT_NE(error.find("unknown storage_policy 'packed'"), std::string::npos)
      << error;
}

TEST(HwFaultTest, ArtifactProcOpsLengthMustEqualN) {
  const std::string json = edited(four_process_artifact().to_json(),
                                  "[16, 3, 16, 16]", "[16, 3, 16]");
  FaultArtifact parsed;
  std::string error;
  EXPECT_FALSE(FaultArtifact::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("proc_ops"), std::string::npos) << error;

  // The unedited artifact loads.
  error.clear();
  EXPECT_TRUE(FaultArtifact::from_json(four_process_artifact().to_json(),
                                       &parsed, &error))
      << error;
}

TEST(HwFaultTest, MalformedJsonIsRejectedWithAnError) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::from_json("{\"seed\": }", &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  FaultArtifact artifact;
  EXPECT_FALSE(FaultArtifact::from_json("[1,2,3]", &artifact, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace llsc
