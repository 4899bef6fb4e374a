// Specification sweeps for leader election (objects/leader.h).
//
// Leader election is one read away from the TAS (the claim register is
// write-once and non-nil before any loser returns), so agreement is as
// deterministic as the TAS's safety: every axis swept here — n in 1..17,
// deterministic/random/adversary schedules, all three substrates —
// asserts that every terminated process reports the
// SAME leader id, that the leader is self-consistent (only the elected
// process claims leadership), and that the shared claim/announce registers
// agree with the reports. The fixed-shape variant pins its op count to
// fixed_shape_leader_ops(n) = fixed_shape_tas_ops(n) + 1.
#include "objects/leader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/hw_executor.h"
#include "hw/oversub_executor.h"
#include "objects/tas.h"
#include "runtime/toss.h"
#include "sched/scheduler.h"

namespace llsc {
namespace {

constexpr std::uint64_t kBudget = 1 << 20;

void run_and_check(const ProcBody& body, int n, std::uint64_t toss_seed,
                   Scheduler& sched,
                   const std::string& what) {
  auto tosses = std::make_shared<SeededTossAssignment>(toss_seed);
  System sys(n, body, tosses);
  ASSERT_TRUE(sched.run(sys, kBudget).all_terminated) << what;
  const LeaderCheckResult res = check_leader_run(sys);
  EXPECT_TRUE(res.ok) << what << ": " << res.summary();
  EXPECT_EQ(res.num_reporters, n) << what;
  EXPECT_GE(res.leader, 0) << what;
  EXPECT_LT(res.leader, n) << what;
}

TEST(LeaderSpecTest, AgreementAcrossSchedulers) {
  const ProcBody body = leader_election_body();
  for (int n = 1; n <= 17; ++n) {
    for (const std::uint64_t seed : {2ull, 29ull, 1998ull}) {
      const std::string tag = "n=" + std::to_string(n) +
                              " toss_seed=" + std::to_string(seed);
      RoundRobinScheduler rr;
      run_and_check(body, n, seed, rr, tag + " [round-robin]");
      SequentialScheduler seq;
      run_and_check(body, n, seed, seq, tag + " [sequential]");
      RandomScheduler rnd(seed ^ 0x1EADu);
      run_and_check(body, n, seed, rnd, tag + " [random]");
    }
  }
}

TEST(LeaderSpecTest, WinnerFlagBodySurvivesTheKnowledgeAdversary) {
  // leader_winner_flag_body returns 1 iff self was elected — the wakeup-
  // style winner scan of the Monte-Carlo classifier applies unchanged, so
  // the Section 5.3 adversary schedule (with and without adaptive fault
  // injection) can target leader election like any wakeup algorithm.
  const ProcBody body = leader_winner_flag_body();
  AdversaryOptions adversary;
  adversary.max_rounds = 1 << 14;
  for (const int n : {2, 5, 9, 16}) {
    for (std::uint64_t s = 0; s < 6; ++s) {
      const Observation clean =
          run_mc_sample(body, n, 0x1EAD + s, adversary, nullptr);
      ASSERT_EQ(clean.status, RunStatus::kClean) << "n=" << n << " s=" << s;
      EXPECT_NE(clean.min_winner_ops, ~std::uint64_t{0});

      FaultPlan plan;
      plan.seed = 0xFA1 + s;
      plan.strategy = FaultStrategyKind::kAdaptive;
      plan.fault_budget = 1 + (s % 5);
      const Observation hostile =
          run_mc_sample(body, n, 0x1EAD + s, adversary, &plan);
      ASSERT_EQ(hostile.status, RunStatus::kClean)
          << "n=" << n << " s=" << s;
      EXPECT_NE(hostile.min_winner_ops, ~std::uint64_t{0});
    }
  }
}

TEST(LeaderSpecTest, FixedShapeOpCountIsScheduleIndependent) {
  const ProcBody body = fixed_shape_leader_body();
  for (int n = 1; n <= 17; ++n) {
    const std::uint64_t want = fixed_shape_leader_ops(n);
    for (const std::uint64_t seed : {5ull, 505ull}) {
      auto tosses = std::make_shared<SeededTossAssignment>(seed);
      System sys(n, body, tosses);
      RandomScheduler sched(seed);
      ASSERT_TRUE(sched.run(sys, kBudget).all_terminated) << "n=" << n;
      int reporters = 0;
      for (ProcId p = 0; p < n; ++p) {
        EXPECT_EQ(sys.process(p).shared_ops(), want)
            << "n=" << n << " p=" << p;
        const Value& r = sys.process(p).result();
        if (r.holds_u64() && r.as_u64() == 1) ++reporters;
      }
      // Fault-free: some claim SC succeeded from nil, and exactly the
      // process whose id sits in the claim register reports leadership.
      EXPECT_EQ(reporters, 1) << "n=" << n;
    }
  }
}

// --- hw + oversubscribed substrates -------------------------------------

void check_hw_agreement(const HwRunResult& run, int n,
                        const std::string& what) {
  ASSERT_EQ(run.status, RunStatus::kClean) << what;
  ASSERT_TRUE(run.results[0].holds_u64()) << what;
  const std::uint64_t leader = run.results[0].as_u64();
  EXPECT_LT(leader, static_cast<std::uint64_t>(n)) << what;
  for (ProcId p = 1; p < n; ++p) {
    ASSERT_TRUE(run.results[p].holds_u64()) << what << " p=" << p;
    EXPECT_EQ(run.results[p].as_u64(), leader) << what << " p=" << p;
  }
}

TEST(LeaderSpecTest, AgreementOnHw) {
  const ProcBody body = leader_election_body();
  for (const int n : {1, 2, 3, 5, 8}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      HwRunOptions options;
      options.seed = 0xB055 + s;
      HwExecutor exec(options);
      check_hw_agreement(exec.run(n, body), n,
                         "n=" + std::to_string(n) +
                             " s=" + std::to_string(s));
    }
  }
}

TEST(LeaderSpecTest, AgreementOversubscribed) {
  const ProcBody body = leader_election_body();
  for (const int n : {4, 9, 17}) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      OversubRunOptions options;
      options.seed = 0x0B05 + s;
      options.num_threads = 2;
      OversubscribedExecutor exec(options);
      check_hw_agreement(exec.run(n, body), n,
                         "n=" + std::to_string(n) +
                             " s=" + std::to_string(s) + " [oversub]");
    }
  }
}

// --- the checker's own conditions ---------------------------------------

SimTask return_value_body(ProcCtx ctx, std::uint64_t v, int ops) {
  for (int i = 0; i < ops; ++i) (void)co_await ctx.validate(0);
  co_return Value::of_u64(v);
}

SimTask claim_then_return(ProcCtx ctx, std::uint64_t claim_v,
                          std::uint64_t v) {
  (void)co_await ctx.ll(0);
  (void)co_await ctx.sc(0, Value::of_u64(claim_v));
  co_return Value::of_u64(v);
}

TEST(LeaderChecker, NonIdViolatesCondition1) {
  System sys(2, [](ProcCtx ctx, ProcId i, int) {
    return return_value_body(ctx, i == 0 ? 9 : 0, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const LeaderCheckResult res = check_leader_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(1)"), std::string::npos) << res.summary();
}

TEST(LeaderChecker, DisagreementViolatesCondition2) {
  System sys(2, [](ProcCtx ctx, ProcId i, int) {
    return return_value_body(ctx, static_cast<std::uint64_t>(i), 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const LeaderCheckResult res = check_leader_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(2)"), std::string::npos) << res.summary();
}

TEST(LeaderChecker, ClaimMismatchViolatesCondition4) {
  // All three agree on leader 1, but the claim register says 2.
  System sys(3, [](ProcCtx ctx, ProcId i, int) {
    if (i == 0) return claim_then_return(ctx, 2, 1);
    return return_value_body(ctx, 1, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const LeaderCheckResult res = check_leader_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(4)"), std::string::npos) << res.summary();
}

TEST(LeaderChecker, AgreeingRunPasses) {
  System sys(3, [](ProcCtx ctx, ProcId i, int) {
    if (i == 1) return claim_then_return(ctx, 1, 1);
    return return_value_body(ctx, 1, 1);
  });
  SequentialScheduler sched;  // p0 first would read a nil claim: use any
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const LeaderCheckResult res = check_leader_run(sys);
  EXPECT_TRUE(res.ok) << res.summary();
  EXPECT_EQ(res.leader, 1);
  EXPECT_EQ(res.num_reporters, 3);
}

}  // namespace
}  // namespace llsc
