// Cross-substrate differential fuzzing of the fault layer.
//
// The fixed_* scenarios execute a schedule-independent per-process op
// stream (fault_scenarios.h), so for any fault plan whose decisions are
// pure in (proc, op-index) — oblivious hash, crash spec, trace replay —
// the simulator and the hw backend must agree on the
// whole observable contract: run taxonomy, per-process op counts, and
// the minimum winner op count. This test sweeps ~200 random
// (seed, n, strategy) triples across both substrates and asserts exactly
// that. The adaptive strategy is schedule-DEPENDENT, so its legs go
// through record-on-sim / trace-replay-on-hw — the same loop CI runs via
// examples/fault_replay.
//
// The sweep is parameterized over workload, alternating the raw fixed_*
// register streams with the two fixed-shape universal-construction
// scenarios (uc_single_register, uc_combining — fault_scenarios.h) and
// the two fixed-shape object protocols (tas_fixed, leader_fixed —
// objects/tas.h, objects/leader.h): the same contract must hold when the
// contended SCs come from a whole construction's announce/toggle/install
// protocol or from a test-and-set's splitter/tournament/claim pipeline.
// uc_combining, tas_fixed, and leader_fixed triples ALWAYS go through
// the record/replay path, so those workloads replay bit-for-bit from
// recorded DecisionTraces on both substrates.
//
// Every triple additionally runs an OVERSUBSCRIBED leg: the same n
// processes multiplexed as coroutines on a two-thread pool
// (hw/oversub_executor.h) must reproduce the identical observable
// contract — including bit-for-bit DecisionTrace replays — because fault
// decisions and toss streams are keyed by (proc, op-index), never by
// carrier thread.
//
// Every leg is one observe() of the replay contract (hw/replay.h), the
// same reduction examples/fault_replay applies.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/replay.h"
#include "util/rng.h"

namespace llsc {
namespace {

constexpr int kTriples = 200;
constexpr int kMaxRounds = 1 << 12;

std::string describe(int t, const std::string& scenario, int n,
                     std::uint64_t toss_seed, const FaultPlan& plan) {
  return "triple " + std::to_string(t) + ": scenario=" + scenario +
         " n=" + std::to_string(n) +
         " toss_seed=" + std::to_string(toss_seed) + " plan=" +
         plan.to_json();
}

void expect_equal(const Observation& sim, const Observation& hw,
                  const std::string& what) {
  EXPECT_EQ(sim.status, hw.status) << what;
  EXPECT_EQ(sim.proc_ops, hw.proc_ops) << what;
  EXPECT_EQ(sim.min_winner_ops, hw.min_winner_ops) << what;
}

TEST(HwFaultDiffTest, RandomTriplesAgreeAcrossSubstrates) {
  Rng rng(0xD1FF);
  int adaptive_with_decisions = 0;
  for (int t = 0; t < kTriples; ++t) {
    const int n = 2 + static_cast<int>(rng.next_below(6));  // 2..7
    static const char* const kScenarios[] = {
        "fixed_ll_sc", "uc_single_register", "tas_fixed",
        "fixed_swap",  "uc_combining",       "leader_fixed"};
    const std::string scenario = kScenarios[t % 6];
    const bool tas_like = scenario == "tas_fixed" || scenario == "leader_fixed";
    const ProcBody body = fault_scenario(scenario);
    const std::uint64_t toss_seed = rng.next_u64();

    FaultPlan plan;
    plan.seed = rng.next_u64();
    const int strategy = t % 3;
    if (strategy == 0) {
      plan.sc_fail_rate = 0.1 + 0.8 * rng.next_double();
      // Every other oblivious triple also exercises the budget cap.
      if (t % 6 == 0) plan.fault_budget = 1 + rng.next_below(8);
    } else if (strategy == 1) {
      plan.strategy = FaultStrategyKind::kAdaptive;
      plan.fault_budget = 1 + rng.next_below(8);
    } else {
      // Uncapped oblivious SC and VL failures. Exactly two draws keep the
      // rng stream, and so every other triple's inputs, fixed.
      const std::uint64_t sc_draw = rng.next_below(3);
      const std::uint64_t vl_draw = rng.next_below(5);
      plan.sc_fail_rate = 0.1 * static_cast<double>(1 + sc_draw);
      plan.vl_fail_rate = 0.1 * static_cast<double>(1 + vl_draw);
    }
    // Every fifth triple crash-stops one process partway through its
    // fixed op stream; half of those let it rejoin. Recovery decisions
    // are pure in (plan.seed, proc, incarnation) and the fixed bodies
    // are schedule-independent, so a recovered run's observables — an
    // amnesiac restart replays the whole body on top of the after_ops
    // already charged; a resumed frame just finishes it — must agree
    // across all three substrates like any other plan. The draws are
    // independent of the t % 4 scenario cycle and the t % 3 strategy
    // cycle, so recovery crosses every (scenario, strategy) pair.
    if (t % 5 == 0) {
      CrashSpec crash;
      crash.proc = static_cast<ProcId>(rng.next_below(n));
      crash.after_ops = 1 + rng.next_below(12);
      if (rng.next_below(2) == 0) {
        crash.recovery.max_restarts = 1;
        crash.recovery.delay_units = 1 + rng.next_below(3);
        crash.recovery.amnesia = rng.next_below(4) != 0;
        // The fixed-shape TAS/leader scenarios report "won" as "my claim
        // SC succeeded from nil", and WHICH process that is follows the
        // natural SC race — schedule-dependent, so an amnesiac replay of
        // a crashed WINNER would report zero winners on one substrate and
        // one on the other. Their diff-sweep crash legs resume the frame
        // instead; amnesiac restarts of the strict protocol (whose claim
        // re-entry recognizes its own writer) live in recovery_test.cc.
        if (tas_like) crash.recovery.amnesia = false;
      }
      plan.crashes.push_back(crash);
    }
    const std::string what = describe(t, scenario, n, toss_seed, plan);

    // Schedule-dependent placements: adaptive (decisions follow the
    // observed history) and budget-CAPPED oblivious (the roll is pure in
    // (p, k), but which candidates reach the budget first is not — the
    // arrival order differs between the adversary schedule and free-
    // running threads). Both go through the record/replay contract, as
    // does every combining triple (the ISSUE-level contract: combining
    // replays bit-for-bit from recorded DecisionTraces).
    // The TAS/leader scenarios also always record/replay: their op
    // SHAPES are schedule-independent, but pinning every injected
    // failure to a recorded (proc, op-index) trace is the contract the
    // replay tooling ships, and it must hold for the new objects too.
    const bool schedule_dependent = strategy == 1 ||
                                    (strategy == 0 && plan.fault_budget > 0) ||
                                    scenario == "uc_combining" || tas_like;
    // One leg of the triple: this body, n and toss seed under `leg_plan`.
    const auto on = [&](Substrate substrate, const FaultPlan& leg_plan) {
      return observe(substrate, body, n, toss_seed, leg_plan, kMaxRounds);
    };
    if (schedule_dependent) {
      // Record on the deterministic simulator, replay the trace on hw.
      const Observation recorded = on(Substrate::kSim, plan);
      FaultPlan replay_plan = plan;
      replay_plan.trace = recorded.decision_trace;
      const Observation sim = on(Substrate::kSim, replay_plan);
      expect_equal(recorded, sim, what + " [sim replay]");
      EXPECT_EQ(sim.decision_trace, recorded.decision_trace) << what;
      const Observation hw = on(Substrate::kHw, replay_plan);
      expect_equal(recorded, hw, what + " [hw replay]");
      const Observation over = on(Substrate::kOversub, replay_plan);
      expect_equal(recorded, over, what + " [oversub replay]");
      if (strategy == 1 && !recorded.decision_trace.empty()) {
        ++adaptive_with_decisions;
      }
    } else {
      const Observation sim = on(Substrate::kSim, plan);
      const Observation hw = on(Substrate::kHw, plan);
      expect_equal(sim, hw, what);
      EXPECT_EQ(sim.decision_trace, hw.decision_trace) << what;
      const Observation over = on(Substrate::kOversub, plan);
      expect_equal(sim, over, what + " [oversub]");
      EXPECT_EQ(sim.decision_trace, over.decision_trace)
          << what << " [oversub]";
    }
    if (HasFatalFailure()) return;
  }
  // The sweep exercised the adaptive path for real: fixed_ll_sc and the
  // two universal-construction scenarios have contended SCs for the
  // adversary to fail (fixed_swap ones are intentionally vacuous — swaps
  // never reach the SC decision point).
  EXPECT_GT(adaptive_with_decisions, 10);
}

}  // namespace
}  // namespace llsc
