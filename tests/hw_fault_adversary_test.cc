// Adversarial fault placement (hw/fault_adversary.h): adversary-level
// determinism, DecisionTrace JSON round-trip, record/replay across both
// substrates, and clean degradation at budget exhaustion.
//
// The record/replay contract under test: an adaptive run's decisions are
// a function of the observed history (schedule-dependent on real
// threads), but the recorded DecisionTrace replays through a pure
// (proc, op-index) lookup — so a trace recorded anywhere reproduces the
// same injected-failure schedule everywhere.
#include "hw/fault_adversary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "hw/replay.h"
#include "memory/value.h"

namespace llsc {
namespace {

constexpr int kN = 4;
constexpr int kMaxRounds = 1 << 12;

PendingOp make_op(OpKind kind, RegId reg) {
  PendingOp op;
  op.kind = kind;
  op.reg = reg;
  return op;
}

OpResult make_result(bool flag) {
  OpResult r;
  r.flag = flag;
  return r;
}

// Feed one scripted history (the kind the injector would deliver) into an
// AdaptiveAdversary and return the targets() outcomes. Each hit is
// recorded the way FaultInjector records it: (p, k, score = |know(p)|).
std::vector<bool> drive_script(AdaptiveAdversary& s, DecisionTrace* trace) {
  const PendingOp ll = make_op(OpKind::kLL, 0);
  const PendingOp sc = make_op(OpKind::kSC, 0);
  const auto decide = [&](ProcId p, std::uint64_t k) {
    const bool hit = s.targets(p, sc.reg);
    if (hit) {
      trace->decisions.push_back(FaultDecision{
          .proc = p, .op_index = k, .is_vl = false, .score = s.knowledge(p)});
    }
    return hit;
  };
  std::vector<bool> outcomes;
  // Everyone links register 0.
  for (ProcId p = 0; p < kN; ++p) s.observe(p, ll, make_result(true));
  // p0 is the lowest-id argmax of the all-singleton knowledge state, so
  // only its SCs draw budget.
  outcomes.push_back(decide(0, 1));            // true: target, live link
  outcomes.push_back(decide(1, 1));            // false: not the target
  s.observe(0, sc, make_result(false));        // p0's forced failure
  s.observe(1, sc, make_result(true));         // p1 succeeds, publishes {1}
  // p0 relinks and learns {1} from the register: strictly most
  // knowledgeable now, still the target.
  s.observe(0, ll, make_result(true));
  outcomes.push_back(decide(0, 3));            // true: still target
  s.observe(0, sc, make_result(false));
  // p0's link is dead (no LL since the failure): no budget wasted.
  outcomes.push_back(decide(0, 4));            // false: link not live
  return outcomes;
}

TEST(AdaptiveStrategyTest, DecisionsDeterministicGivenObservedHistory) {
  AdaptiveAdversary a(kN);
  AdaptiveAdversary b(kN);
  DecisionTrace ta;
  DecisionTrace tb;
  const std::vector<bool> got_a = drive_script(a, &ta);
  const std::vector<bool> got_b = drive_script(b, &tb);
  EXPECT_EQ(got_a, got_b);
  const std::vector<bool> expected = {true, false, true, false};
  EXPECT_EQ(got_a, expected);

  EXPECT_EQ(ta, tb);
  ASSERT_EQ(ta.size(), 2u);
  EXPECT_EQ(ta.decisions[0].proc, 0);
  EXPECT_EQ(ta.decisions[0].op_index, 1u);
  EXPECT_EQ(ta.decisions[0].score, 1u);  // singleton knowledge at first hit
  EXPECT_EQ(ta.decisions[1].proc, 0);
  EXPECT_EQ(ta.decisions[1].op_index, 3u);
  EXPECT_EQ(ta.decisions[1].score, 2u);  // learned {1} from the register
  EXPECT_EQ(a.current_target(), 0);
  EXPECT_EQ(a.knowledge(0), 2u);
}

TEST(AdaptiveStrategyTest, RunsAreDeterministicOnTheSimulator) {
  FaultPlan plan;
  plan.seed = 11;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 6;
  const Observation a =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 42, plan,
              kMaxRounds);
  const Observation b =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 42, plan,
              kMaxRounds);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.proc_ops, b.proc_ops);
  EXPECT_EQ(a.decision_trace, b.decision_trace);
  // The budget was actually spent: adaptive placement is not a no-op.
  EXPECT_EQ(a.decision_trace.size(), 6u);
}

TEST(DecisionTraceTest, JsonRoundTripsU64Exact) {
  FaultPlan plan;
  plan.seed = 0x9E3779B97F4A7C15ull;  // > 2^53: dies in a double round-trip
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = (1ull << 60) + 3;
  FaultDecision d0;
  d0.proc = 2;
  d0.op_index = (1ull << 53) + 1;  // only exact integer parsing keeps this
  d0.is_vl = false;
  d0.score = (1ull << 40) + 9;
  FaultDecision d1;
  d1.proc = 3;
  d1.op_index = 17;
  d1.is_vl = true;
  d1.score = 4;
  plan.trace.decisions = {d0, d1};

  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.trace.decisions[0].op_index, (1ull << 53) + 1);
}

TEST(DecisionTraceTest, ObliviousPlansKeepTheirSchema) {
  // Plans that don't use adversarial placement must serialize without any
  // of the new optional keys — byte-stable with the PR 3 schema.
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.5;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 3, .recovery = {}});
  const std::string json = plan.to_json();
  EXPECT_EQ(json.find("strategy"), std::string::npos);
  EXPECT_EQ(json.find("fault_budget"), std::string::npos);
  EXPECT_EQ(json.find("burst"), std::string::npos);
  EXPECT_EQ(json.find("trace"), std::string::npos);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
}

TEST(AdaptiveReplayTest, RecordedPlanReplaysBitForBitOnBothSubstrates) {
  FaultPlan record_plan;
  record_plan.seed = 13;
  record_plan.strategy = FaultStrategyKind::kAdaptive;
  record_plan.fault_budget = 6;
  const Observation recorded =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 42,
              record_plan, kMaxRounds);
  ASSERT_FALSE(recorded.decision_trace.empty());

  // Replay mode: same plan with the trace embedded. The strategy field
  // stays kAdaptive — a non-empty trace takes precedence, which is what
  // makes a serialized adaptive artifact replayable as-is.
  FaultPlan replay_plan = record_plan;
  replay_plan.trace = recorded.decision_trace;

  // Simulator: the whole outcome must reproduce exactly.
  const Observation sim =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 42,
              replay_plan, kMaxRounds);
  EXPECT_EQ(sim.status, recorded.status);
  EXPECT_EQ(sim.proc_ops, recorded.proc_ops);
  EXPECT_EQ(sim.decision_trace, recorded.decision_trace);

  // Hw backend: fixed_ll_sc's per-process op streams are schedule-
  // independent, so the traced decisions land on the same (proc, k)
  // ops and the injected counters match the trace exactly.
  const Observation hw =
      observe(Substrate::kHw, fault_scenario("fixed_ll_sc"), kN, 42,
              replay_plan);
  EXPECT_EQ(hw.status, recorded.status);
  EXPECT_EQ(hw.proc_ops, recorded.proc_ops);
  EXPECT_EQ(hw.fault.injected_sc_failures, recorded.decision_trace.size());
  EXPECT_EQ(hw.decision_trace, recorded.decision_trace);
}

TEST(AdaptiveBudgetTest, ExhaustionDegradesToNoFaultCleanly) {
  // A retry-loop workload absorbs the whole budget and then runs fault-
  // free to completion: exact results, exactly budget injections.
  FaultPlan plan;
  plan.seed = 3;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 8;
  const Observation r =
      observe(Substrate::kHw, fault_scenario("counter"), kN, 1, plan);
  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_EQ(r.fault.injected_sc_failures, 8u);
  EXPECT_EQ(r.decision_trace.size(), 8u);
}

TEST(AdaptiveBudgetTest, ZeroBudgetAdaptivePlanInjectsNothing) {
  FaultPlan plan;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 0;
  // No budget, no rates, no crashes: the plan is not even "enabled", so
  // drivers skip the injector entirely.
  EXPECT_FALSE(plan.enabled());
  const Observation r =
      observe(Substrate::kHw, fault_scenario("fixed_ll_sc"), kN, 1, plan);
  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_EQ(r.fault.injected_sc_failures, 0u);
  EXPECT_TRUE(r.decision_trace.empty());
}

TEST(ObliviousStrategyTest, UncappedBudgetedPathMatchesInlinePath) {
  // The strategy-seam oblivious roll must be bit-for-bit the inline
  // oblivious roll (same hash, same salt): a plan that differs only by a
  // never-hit budget cap draws the identical schedule.
  FaultPlan inline_plan;
  inline_plan.seed = 99;
  inline_plan.sc_fail_rate = 0.5;
  FaultPlan budgeted = inline_plan;
  budgeted.fault_budget = 1u << 20;  // forces the strategy path, never hit

  const Observation a =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 7,
              inline_plan, kMaxRounds);
  const Observation b =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 7, budgeted,
              kMaxRounds);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.proc_ops, b.proc_ops);
  EXPECT_TRUE(a.decision_trace.empty());   // inline path records nothing
  EXPECT_FALSE(b.decision_trace.empty());  // strategy path records all
}

// --- Section 5.3 knowledge rules -----------------------------------------

TEST(KnowledgeModelTest, ObserveFollowsTheSectionFiveRules) {
  AdaptiveAdversary m(4);
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(m.knowledge(p), 1u) << "everyone starts knowing only itself";
  }
  const PendingOp ll0 = make_op(OpKind::kLL, 0);
  const PendingOp sc0 = make_op(OpKind::kSC, 0);

  // LL links and learns (an empty register teaches nothing).
  m.observe(0, ll0, make_result(true));
  m.observe(1, ll0, make_result(true));
  EXPECT_TRUE(m.has_live_link(0, 0));
  EXPECT_TRUE(m.has_live_link(1, 0));
  EXPECT_EQ(m.knowledge(0), 1u);

  // p1's successful SC publishes know(p1) = {1} and consumes every
  // outstanding reservation on the register — including p0's.
  m.observe(1, sc0, make_result(true));
  EXPECT_FALSE(m.has_live_link(0, 0));
  EXPECT_FALSE(m.has_live_link(1, 0));

  // p0 relinks and now learns {1} from the register: knowledge 2.
  m.observe(0, ll0, make_result(true));
  EXPECT_EQ(m.knowledge(0), 2u);
  EXPECT_EQ(m.max_knowledge(), 2u);
  EXPECT_EQ(m.argmax_knowledge(), 0);

  // A FAILED SC still reports the current value (p2 learns) but only
  // unlinks the failing process itself.
  m.observe(2, ll0, make_result(true));
  m.observe(2, sc0, make_result(false));
  EXPECT_FALSE(m.has_live_link(2, 0));
  EXPECT_TRUE(m.has_live_link(0, 0));
  EXPECT_EQ(m.knowledge(2), 2u);  // {1, 2}

  // A failed validate kills the link; a successful one keeps it.
  const PendingOp vl0 = make_op(OpKind::kValidate, 0);
  m.observe(0, vl0, make_result(true));
  EXPECT_TRUE(m.has_live_link(0, 0));
  m.observe(0, vl0, make_result(false));
  EXPECT_FALSE(m.has_live_link(0, 0));

  // Swap: the swapper learns the old knowledge, then determines the
  // register — afterwards the register teaches know(p3).
  const PendingOp swap5 = make_op(OpKind::kSwap, 5);
  m.observe(3, swap5, make_result(true));
  EXPECT_EQ(m.knowledge(3), 1u);  // empty register taught nothing
  m.observe(0, make_op(OpKind::kLL, 5), make_result(true));
  EXPECT_EQ(m.knowledge(0), 3u);  // {0, 1} |= {3}

  // Move: destination gets source knowledge plus the mover's; the mover
  // itself learns nothing (process rule 2).
  PendingOp mv = make_op(OpKind::kMove, 6);
  mv.src = 5;  // know(R5) = {3}
  const std::size_t before = m.knowledge(2);
  m.observe(2, mv, make_result(true));
  EXPECT_EQ(m.knowledge(2), before);
  m.observe(1, make_op(OpKind::kLL, 6), make_result(true));
  EXPECT_EQ(m.knowledge(1), 3u);  // {1} |= {3} ∪ {1, 2}
}

TEST(KnowledgeModelTest, AmnesiaResetsToSingletonAndDropsLinks) {
  AdaptiveAdversary m(3);
  const PendingOp ll0 = make_op(OpKind::kLL, 0);
  m.observe(1, make_op(OpKind::kSwap, 0), make_result(true));
  m.observe(0, ll0, make_result(true));
  ASSERT_EQ(m.knowledge(0), 2u);
  ASSERT_TRUE(m.has_live_link(0, 0));

  m.on_amnesia(0);
  EXPECT_EQ(m.knowledge(0), 1u);
  EXPECT_FALSE(m.has_live_link(0, 0));
  // Everyone else is untouched.
  EXPECT_EQ(m.knowledge(1), 1u);
  EXPECT_EQ(m.argmax_knowledge(), 0);  // all singletons again, lowest id
}

// --- E13 byte-stability regression ---------------------------------------

std::string canon_trace(const DecisionTrace& t) {
  if (t.empty()) return "<empty>";
  std::string out;
  for (const FaultDecision& d : t.decisions) {
    out += "(" + std::to_string(d.proc) + "," + std::to_string(d.op_index) +
           "," + std::string(d.is_vl ? "1" : "0") + "," +
           std::to_string(d.score) + ")";
  }
  return out;
}

// Golden DecisionTraces captured from the E13 adaptive configuration
// before the adversary's knowledge rules were first refactored; every
// later refactor of the adaptive placement must keep these bytes. If this test
// fails, the adaptive adversary's schedule drifted and every recorded
// E13 artifact in EXPERIMENTS.md is silently stale — treat a diff here
// as an interface break, not a test to update casually.
TEST(KnowledgeModelGolden, E13AdaptiveDecisionTracesAreByteStable) {
  struct GoldenCase {
    const char* scenario;
    int n;
    std::uint64_t toss_seed;
    std::uint64_t budget;
    const char* canon;  // "(proc,op_index,is_vl,score)" concatenated
  };
  const GoldenCase kCases[] = {
      {"randomized_tournament", 6, 101, 4, "(0,4,0,2)(0,9,0,4)"},
      {"randomized_tournament", 5, 202, 6, "(0,4,0,2)(0,8,0,2)"},
      {"tournament", 6, 303, 4, "(0,4,0,2)(0,8,0,2)(0,12,0,4)(0,16,0,4)"},
      {"fixed_ll_sc", 4, 404, 5,
       "(0,1,0,1)(0,3,0,2)(0,5,0,2)(0,7,0,2)(0,9,0,2)"},
      {"counter", 4, 505, 3, "(0,1,0,1)(0,3,0,2)(0,5,0,3)"},
  };
  for (const GoldenCase& c : kCases) {
    FaultPlan plan;
    plan.seed = 0xE13;
    plan.strategy = FaultStrategyKind::kAdaptive;
    plan.fault_budget = c.budget;
    AdversaryOptions adversary;
    adversary.max_rounds = 1 << 14;
    const Observation out =
        run_mc_sample(fault_scenario(c.scenario), c.n, c.toss_seed, adversary,
                      &plan);
    EXPECT_TRUE(out.status == RunStatus::kClean ||
                out.status == RunStatus::kSpecViolation)
        << c.scenario;  // terminated
    EXPECT_EQ(canon_trace(out.decision_trace), c.canon)
        << c.scenario << " n=" << c.n << " toss_seed=" << c.toss_seed;
  }
}

TEST(DecisionTraceTest, RemovedBurstPlacementIsANamedError) {
  // Burst placement was deleted; a plan naming it must fail loudly rather
  // than replay as some other placement.
  FaultPlan plan;
  std::string json = plan.to_json();
  const std::string crashes = "\"crashes\"";
  json.insert(json.find(crashes), "\"strategy\": \"burst\", ");
  FaultPlan parsed;
  std::string error;
  EXPECT_FALSE(FaultPlan::from_json(json, &parsed, &error));
  EXPECT_NE(error.find("strategy"), std::string::npos) << error;
  EXPECT_NE(error.find("the burst placement was removed"), std::string::npos)
      << error;
}

TEST(AdaptiveReplayTest, UnsortedTraceFailsTheSameOpsAndEchoesUnchanged) {
  // fixed_ll_sc: LL at even k, SC at odd k. A hand-written trace may list
  // its decisions in any order; replay fails the same (p, k) SCs as the
  // sorted trace, and trace() hands back exactly what the plan carried.
  const auto decision = [](ProcId p, std::uint64_t k) {
    return FaultDecision{.proc = p, .op_index = k, .is_vl = false, .score = 0};
  };
  FaultPlan sorted;
  sorted.seed = 5;
  sorted.trace.decisions = {decision(0, 1), decision(0, 5), decision(1, 3),
                            decision(2, 1), decision(2, 9), decision(3, 7)};
  FaultPlan unsorted = sorted;
  unsorted.trace.decisions = {decision(3, 7), decision(0, 5), decision(2, 9),
                              decision(1, 3), decision(0, 1), decision(2, 1)};

  const Observation a =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 21, sorted,
              kMaxRounds);
  const Observation b =
      observe(Substrate::kSim, fault_scenario("fixed_ll_sc"), kN, 21, unsorted,
              kMaxRounds);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.proc_ops, b.proc_ops);
  EXPECT_EQ(a.decision_trace, sorted.trace);
  EXPECT_EQ(b.decision_trace, unsorted.trace);

  const Observation hw =
      observe(Substrate::kHw, fault_scenario("fixed_ll_sc"), kN, 21, unsorted);
  EXPECT_EQ(hw.status, a.status);
  EXPECT_EQ(hw.proc_ops, a.proc_ops);
  EXPECT_EQ(hw.fault.injected_sc_failures, sorted.trace.size());
  EXPECT_EQ(hw.decision_trace, unsorted.trace);
}

}  // namespace
}  // namespace llsc
