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

#include "fault_triples.h"

namespace llsc {
namespace {

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
  EXPECT_EQ(sim.max_ops, hw.max_ops) << what;
}

TEST(HwFaultDiffTest, RandomTriplesAgreeAcrossSubstrates) {
  int adaptive_with_decisions = 0;
  for (const FaultTriple& triple : fault_triples()) {
    const int t = triple.index;
    const std::string& scenario = triple.scenario;
    const int n = triple.n;
    const std::uint64_t toss_seed = triple.toss_seed;
    const FaultPlan& plan = triple.plan;
    const ProcBody body = fault_scenario(scenario);
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
    const bool schedule_dependent = triple.schedule_dependent;
    // One leg of the triple: this body, n and toss seed under `leg_plan`.
    const auto on = [&](Substrate substrate, const FaultPlan& leg_plan) {
      return observe(substrate, body, n, toss_seed, leg_plan,
                     kFaultTripleMaxRounds);
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
      if (triple.adaptive && !recorded.decision_trace.empty()) {
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
