// Specification sweeps for the randomized test-and-set (objects/tas.h).
//
// The strict protocol's safety is deterministic (write-once claim), so the
// exactly-one-winner spec is asserted UNCONDITIONALLY across every axis
// this file sweeps: n in 1..17, deterministic/random/adversary schedules,
// many toss seeds, and all three substrates (simulator, 1:1 HwExecutor, oversubscribed two-thread pool).
// The fixed-shape variant additionally pins its schedule-independent
// per-process op count to fixed_shape_tas_ops(n).
//
// The checker itself is tested the way wakeup_spec_test.cc tests the
// wakeup checker: each numbered condition of check_tas_run must fire when
// a synthetic run violates it.
#include "objects/tas.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lower_bound.h"
#include "hw/hw_executor.h"
#include "hw/oversub_executor.h"
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
  const TasCheckResult res = check_tas_run(sys);
  EXPECT_TRUE(res.ok) << what << ": " << res.summary();
  EXPECT_EQ(res.num_winners, 1) << what;
}

TEST(TasSpecTest, StrictExactlyOneWinnerAcrossSchedulers) {
  const ProcBody body = randomized_tas_body();
  for (int n = 1; n <= 17; ++n) {
    for (const std::uint64_t seed : {1ull, 17ull, 1998ull}) {
      const std::string tag = "n=" + std::to_string(n) +
                              " toss_seed=" + std::to_string(seed);
      RoundRobinScheduler rr;
      run_and_check(body, n, seed, rr, tag + " [round-robin]");
      SequentialScheduler seq;
      run_and_check(body, n, seed, seq, tag + " [sequential]");
      RandomScheduler rnd(seed ^ 0xABCDu);
      run_and_check(body, n, seed, rnd, tag + " [random]");
    }
  }
}

TEST(TasSpecTest, StrictSurvivesTheKnowledgeAdversary) {
  // The paper-adversary schedule plus the adaptive fault strategy: safety
  // must hold even when spurious SC failures target the most knowledgeable
  // process, and the winner's op count stays within the fault-free budget
  // only when no faults are injected.
  const ProcBody body = randomized_tas_body();
  AdversaryOptions adversary;
  adversary.max_rounds = 1 << 14;
  for (const int n : {2, 5, 9, 16}) {
    for (std::uint64_t s = 0; s < 6; ++s) {
      const Observation clean =
          run_mc_sample(body, n, 0x7A5 + s, adversary, nullptr);
      ASSERT_EQ(clean.status, RunStatus::kClean)
          << "n=" << n << " s=" << s;
      EXPECT_NE(clean.min_winner_ops, ~std::uint64_t{0});
      EXPECT_LE(clean.min_winner_ops, tas_fault_free_max_ops(n))
          << "n=" << n << " s=" << s;

      FaultPlan plan;
      plan.seed = 0xFA0 + s;
      plan.strategy = FaultStrategyKind::kAdaptive;
      plan.fault_budget = 1 + (s % 5);
      const Observation hostile =
          run_mc_sample(body, n, 0x7A5 + s, adversary, &plan);
      // Injected spurious failures may slow the run but can never break
      // safety: a terminated hostile run still has exactly one winner.
      ASSERT_EQ(hostile.status, RunStatus::kClean)
          << "n=" << n << " s=" << s;
      EXPECT_NE(hostile.min_winner_ops, ~std::uint64_t{0});
    }
  }
}

TEST(TasSpecTest, FixedShapeOpCountIsScheduleIndependent) {
  const ProcBody body = fixed_shape_tas_body();
  for (int n = 1; n <= 17; ++n) {
    const std::uint64_t want = fixed_shape_tas_ops(n);
    for (const std::uint64_t seed : {3ull, 404ull}) {
      auto tosses = std::make_shared<SeededTossAssignment>(seed);
      System sys(n, body, tosses);
      RandomScheduler sched(seed);
      ASSERT_TRUE(sched.run(sys, kBudget).all_terminated) << "n=" << n;
      for (ProcId p = 0; p < n; ++p) {
        EXPECT_EQ(sys.process(p).shared_ops(), want)
            << "n=" << n << " p=" << p;
      }
      // Fault-free completed fixed-shape runs still elect exactly one
      // winner: some claim SC succeeds from nil, and at most one can.
      const TasCheckResult res = check_tas_run(sys);
      EXPECT_TRUE(res.ok) << "n=" << n << ": " << res.summary();
      EXPECT_EQ(res.num_winners, 1) << "n=" << n;
    }
  }
}

// --- hw + oversubscribed substrates -------------------------------------

int count_winners(const HwRunResult& run, int n) {
  int winners = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (run.results[p].holds_u64() && run.results[p].as_u64() == 1) {
      ++winners;
    }
  }
  return winners;
}

TEST(TasSpecTest, StrictExactlyOneWinnerOnHw) {
  const ProcBody body = randomized_tas_body();
  for (const int n : {1, 2, 3, 5, 8}) {
    for (std::uint64_t s = 0; s < 8; ++s) {
      HwRunOptions options;
      options.seed = 0x9137 + s;
      HwExecutor exec(options);
      const HwRunResult run = exec.run(n, body);
      ASSERT_EQ(run.status, RunStatus::kClean) << "n=" << n << " s=" << s;
      EXPECT_EQ(count_winners(run, n), 1) << "n=" << n << " s=" << s;
    }
  }
}

TEST(TasSpecTest, StrictExactlyOneWinnerOversubscribed) {
  // n well above the two carrier threads: the claim handshake must not
  // care how coroutines are multiplexed onto cores.
  const ProcBody body = randomized_tas_body();
  for (const int n : {4, 9, 17}) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      OversubRunOptions options;
      options.seed = 0x5EED + s;
      options.num_threads = 2;
      OversubscribedExecutor exec(options);
      const HwRunResult run = exec.run(n, body);
      ASSERT_EQ(run.status, RunStatus::kClean) << "n=" << n << " s=" << s;
      EXPECT_EQ(count_winners(run, n), 1) << "n=" << n << " s=" << s;
    }
  }
}

// --- the checker's own conditions ---------------------------------------

SimTask return_value_body(ProcCtx ctx, std::uint64_t v, int ops) {
  for (int i = 0; i < ops; ++i) (void)co_await ctx.validate(0);
  co_return Value::of_u64(v);
}

SimTask claim_then_return(ProcCtx ctx, std::uint64_t v) {
  // Write the claim register (register 0 of the default layout) so
  // condition (4)'s claim/result agreement is exercised.
  const Value me = Value::of_u64(static_cast<std::uint64_t>(ctx.id()));
  (void)co_await ctx.ll(0);
  (void)co_await ctx.sc(0, me);
  co_return Value::of_u64(v);
}

TEST(TasChecker, TwoWinnersViolateCondition2) {
  System sys(3, [](ProcCtx ctx, ProcId i, int) {
    return claim_then_return(ctx, i < 2 ? 1 : 0);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const TasCheckResult res = check_tas_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.num_winners, 2);
  EXPECT_NE(res.summary().find("(2)"), std::string::npos) << res.summary();
}

TEST(TasChecker, NonBooleanResultViolatesCondition1) {
  System sys(2, [](ProcCtx ctx, ProcId i, int) {
    return return_value_body(ctx, i == 0 ? 7 : 1, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const TasCheckResult res = check_tas_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(1)"), std::string::npos) << res.summary();
}

TEST(TasChecker, ZeroWinnersViolateCondition3) {
  System sys(2, [](ProcCtx ctx, ProcId, int) {
    return return_value_body(ctx, 0, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const TasCheckResult res = check_tas_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(3)"), std::string::npos) << res.summary();

  // The fixed-shape escape hatch: under forced-failure plans a winnerless
  // completed run is the documented contract.
  TasCheckOptions options;
  options.require_winner = false;
  const TasCheckResult relaxed = check_tas_run(sys, options);
  EXPECT_FALSE(relaxed.ok);  // (4) still fires: losers with a nil claim
  EXPECT_NE(relaxed.summary().find("(4)"), std::string::npos)
      << relaxed.summary();
}

TEST(TasChecker, LoserBeforeClaimViolatesCondition4) {
  // One "winner" that never touched the claim register, one loser: the
  // claim register stays nil, so both halves of condition (4) fire.
  System sys(2, [](ProcCtx ctx, ProcId i, int) {
    return return_value_body(ctx, i == 0 ? 1 : 0, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  const TasCheckResult res = check_tas_run(sys);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.summary().find("(4)"), std::string::npos) << res.summary();
}

TEST(TasObjectSpec, SequentialSemantics) {
  TasObject obj;
  ObjOp op{"test&set", {}};
  EXPECT_EQ(obj.state_fingerprint(), "tas:0");
  EXPECT_EQ(obj.apply(op), Value::of_u64(0));
  EXPECT_EQ(obj.apply(op), Value::of_u64(1));
  EXPECT_EQ(obj.apply(op), Value::of_u64(1));
  EXPECT_EQ(obj.state_fingerprint(), "tas:1");
  const auto copy = obj.clone();
  EXPECT_EQ(copy->state_fingerprint(), "tas:1");
  EXPECT_EQ(copy->type_name(), "test&set");
}

}  // namespace
}  // namespace llsc
