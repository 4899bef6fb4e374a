// Deterministic crash recovery on the simulator substrate.
//
// A crash entry with a RecoverySpec turns crash-stop into crash-rejoin:
// System::maybe_recover consumes the pending recovery, and the victim
// either resumes its suspended frame in place (amnesia = false) or loses
// its private coroutine state and restarts the body as the next
// incarnation (amnesia = true) with its LL reservations invalidated. The
// decisions are pure in (plan.seed, proc, incarnation), so a crash+rejoin
// schedule replays bit-for-bit — the property the cross-substrate sweep
// (hw_fault_diff_test) extends to real threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hw/fault.h"
#include "memory/rmw.h"
#include "objects/leader.h"
#include "objects/tas.h"
#include "runtime/system.h"
#include "runtime/toss.h"
#include "sched/scheduler.h"
#include "wakeup/algorithms.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

constexpr int kIncrements = 8;

// kIncrements whole-op increments: the register always equals the total
// executed-op count, so recovery accounting is directly observable.
SimTask rmw_increment_body(ProcCtx ctx, ProcId, int) {
  static const auto inc = make_rmw("inc", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
  for (int k = 0; k < kIncrements; ++k) {
    (void)co_await ctx.rmw(0, inc);
  }
  co_return Value::of_u64(1);
}

// Process 0's first incarnation takes an LL reservation and dies before
// its next op; the restarted incarnation immediately tries SC without a
// fresh LL. The reservation must have died with the old incarnation —
// adopting it would let a ghost reservation commit.
SimTask reservation_probe_body(ProcCtx ctx, ProcId i, int) {
  if (i == 0 && ctx.incarnation() == 0) {
    (void)co_await ctx.ll(0);
    (void)co_await ctx.ll(0);  // never executes: the crash fires first
    co_return Value::of_u64(7);
  }
  const ScResult r = co_await ctx.sc(0, Value::of_u64(99));
  co_return Value::of_u64(r.ok ? 1 : 0);
}

// Drive every runnable process round-robin until the system halts; a
// crashed process with a recovery owed stays runnable and rejoins inside
// System::step.
void drive(System& sys, int n) {
  while (!sys.all_halted()) {
    for (ProcId p = 0; p < n; ++p) {
      if (sys.runnable(p)) sys.step(p);
    }
  }
}

struct SimObserved {
  std::vector<std::uint64_t> proc_ops;
  std::uint64_t reg = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recovery_units = 0;
};

SimObserved run_increments(int n, const FaultPlan& plan) {
  System sys(n, &rmw_increment_body);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  drive(sys, n);
  SimObserved obs;
  for (ProcId p = 0; p < n; ++p) {
    obs.proc_ops.push_back(sys.process(p).shared_ops());
  }
  obs.reg = sys.memory().peek_value(0).as_u64();
  obs.recoveries = injector.stats().recoveries;
  obs.recovery_units = injector.stats().recovery_units;
  return obs;
}

// --- rejoin semantics ----------------------------------------------------

// Amnesia: the victim restarts the whole body as incarnation 1 on top of
// the ops already charged, so it executes after_ops + kIncrements total
// and every executed increment landed exactly once in the register.
TEST(RecoveryTest, AmnesiacRestartReplaysWholeBodyCumulatively) {
  const int n = 3;
  FaultPlan plan;
  plan.seed = 5;
  CrashSpec crash{.proc = 0, .after_ops = 3, .recovery = {}};
  crash.recovery.delay_units = 4;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);

  System sys(n, &rmw_increment_body);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  drive(sys, n);

  EXPECT_EQ(sys.num_crashed(), 0);
  EXPECT_EQ(sys.process(0).incarnation(), 1u);
  EXPECT_EQ(sys.process(0).shared_ops(),
            3u + static_cast<std::uint64_t>(kIncrements));
  EXPECT_EQ(sys.process(1).shared_ops(),
            static_cast<std::uint64_t>(kIncrements));
  const std::uint64_t executed = (3 + kIncrements) + 2 * kIncrements;
  EXPECT_EQ(sys.memory().peek_value(0).as_u64(), executed);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().recoveries, 1u);
  EXPECT_GT(injector.stats().recovery_units, 0u);
}

// Pause-and-resume: the frame survives, the victim finishes its remaining
// increments in place — kIncrements total, same incarnation.
TEST(RecoveryTest, PauseAndResumeFinishesRemainingOpsInPlace) {
  const int n = 2;
  FaultPlan plan;
  plan.seed = 6;
  CrashSpec crash{.proc = 1, .after_ops = 5, .recovery = {}};
  crash.recovery.delay_units = 2;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = false;
  plan.crashes.push_back(crash);

  System sys(n, &rmw_increment_body);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  drive(sys, n);

  EXPECT_EQ(sys.num_crashed(), 0);
  EXPECT_EQ(sys.process(1).incarnation(), 0u);
  EXPECT_EQ(sys.process(1).shared_ops(),
            static_cast<std::uint64_t>(kIncrements));
  EXPECT_EQ(sys.memory().peek_value(0).as_u64(),
            static_cast<std::uint64_t>(2 * kIncrements));
  EXPECT_EQ(injector.stats().recoveries, 1u);
}

// The whole crash+rejoin schedule is a pure function of the plan: two
// independent systems under the same plan produce identical op counts,
// register state, and recovery accounting.
TEST(RecoveryTest, CrashRejoinScheduleReplaysBitForBit) {
  FaultPlan plan;
  plan.seed = 0xA11CE;
  CrashSpec crash{.proc = 2, .after_ops = 4, .recovery = {}};
  crash.recovery.delay_units = 6;
  crash.recovery.max_restarts = 2;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);

  const SimObserved a = run_increments(4, plan);
  const SimObserved b = run_increments(4, plan);
  EXPECT_EQ(a.proc_ops, b.proc_ops);
  EXPECT_EQ(a.reg, b.reg);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_units, b.recovery_units);
}

// The dead incarnation's LL reservation is invalidated, never adopted: an
// SC by the restarted incarnation without a fresh LL must fail and write
// nothing.
TEST(RecoveryTest, DeadIncarnationReservationIsInvalidatedNotAdopted) {
  const int n = 1;
  FaultPlan plan;
  plan.seed = 9;
  CrashSpec crash{.proc = 0, .after_ops = 1, .recovery = {}};
  crash.recovery.delay_units = 1;
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);

  System sys(n, &reservation_probe_body);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  drive(sys, n);

  ASSERT_TRUE(sys.process(0).done());
  EXPECT_EQ(sys.process(0).result().as_u64(), 0u)
      << "SC without a fresh LL succeeded: the dead incarnation's "
         "reservation was adopted";
  EXPECT_TRUE(sys.memory().peek_value(0).is_nil());
}

// --- recoverable wakeup --------------------------------------------------

// Tournament wakeup under a recoverable two-process crash storm: every
// victim rejoins (amnesiac restart from the leaf), the run still
// terminates with >= 1 winner and all base wakeup conditions intact, and
// the checker reports the restarts it can see in the incarnation
// counters.
TEST(RecoveryTest, RecoverableWakeupSurvivesAmnesiacCrashStorm) {
  const int n = 4;
  FaultPlan plan;
  plan.seed = 31;
  for (const ProcId victim : {1, 2}) {
    CrashSpec crash{.proc = victim,
                    .after_ops = 2 + static_cast<std::uint64_t>(victim),
                    .recovery = {}};
    crash.recovery.delay_units = 3;
    crash.recovery.max_restarts = 1;
    crash.recovery.amnesia = true;
    plan.crashes.push_back(crash);
  }

  System sys(n, tournament_wakeup());
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated);

  const RecoverableWakeupCheckResult res = check_recoverable_wakeup_run(sys);
  EXPECT_TRUE(res.ok) << res.violations.front();
  EXPECT_GE(res.num_winners, 1);
  EXPECT_EQ(res.num_restarts, 2u);
  EXPECT_EQ(injector.stats().recoveries, 2u);
}

// Without a recovery the victim stays down, and the recoverable checker
// names exactly that: a process still crashed at the end of the run.
TEST(RecoveryTest, CrashStopWithoutRecoveryViolatesRecoverableSpec) {
  const int n = 3;
  FaultPlan plan;
  plan.seed = 12;
  plan.crashes.push_back(CrashSpec{.proc = 1, .after_ops = 2, .recovery = {}});

  System sys(n, tournament_wakeup());
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  RoundRobinScheduler sched;
  sched.run(sys, 1 << 20);

  const RecoverableWakeupCheckResult res = check_recoverable_wakeup_run(sys);
  EXPECT_FALSE(res.ok);
  bool names_still_crashed = false;
  for (const std::string& v : res.violations) {
    if (v.find("still crashed") != std::string::npos) {
      names_still_crashed = true;
    }
  }
  EXPECT_TRUE(names_still_crashed);
  EXPECT_EQ(res.num_restarts, 0u);
}

// --- recoverable test-and-set and leader election ------------------------

// The amnesia hazard specific to one-shot objects: a crashed WINNER's
// restarted incarnation replays the whole protocol from the top, and a
// naive claim register would let it (or someone else) win a second time.
// The strict protocol's claim register recognizes its own writer, so the
// sweep below — crash process 0 at EVERY early op index, amnesiac rejoin,
// all n — must always end with exactly one winner, whoever the victim
// happened to be when the crash fired.
TEST(RecoveryTest, AmnesiacTasRestartNeverElectsTwoWinners) {
  std::uint64_t total_restarts = 0;
  for (const int n : {1, 3, 5}) {
    for (std::uint64_t after_ops = 1; after_ops <= 12; ++after_ops) {
      FaultPlan plan;
      plan.seed = 0x7A5C + after_ops;
      CrashSpec crash{.proc = 0, .after_ops = after_ops, .recovery = {}};
      crash.recovery.delay_units = 2;
      crash.recovery.max_restarts = 1;
      crash.recovery.amnesia = true;
      plan.crashes.push_back(crash);

      auto tosses = std::make_shared<SeededTossAssignment>(after_ops);
      System sys(n, randomized_tas_body(), tosses);
      FaultInjector injector(plan, n);
      sys.set_fault_injector(&injector);
      RoundRobinScheduler sched;
      ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated)
          << "n=" << n << " after_ops=" << after_ops;

      const RecoverableTasCheckResult res = check_recoverable_tas_run(sys);
      EXPECT_TRUE(res.ok) << "n=" << n << " after_ops=" << after_ops << ": "
                          << res.summary();
      EXPECT_EQ(res.num_winners, 1)
          << "n=" << n << " after_ops=" << after_ops;
      EXPECT_EQ(res.num_restarts, injector.stats().recoveries);
      total_restarts += res.num_restarts;
    }
  }
  // The sweep actually crashed processes (late after_ops values may land
  // past a short run's end; the early ones cannot).
  EXPECT_GT(total_restarts, 10u);
}

// Leader election on top: an amnesiac restart — of the winner after its
// claim, of the winner before it, or of any loser — must never produce
// two processes that believe different leaders. Two victims rejoin per
// run and the recoverable checker enforces agreement + claim/announce
// consistency.
TEST(RecoveryTest, AmnesiacLeaderRestartsAgreeOnOneLeader) {
  std::uint64_t total_restarts = 0;
  for (const int n : {2, 4, 6}) {
    for (std::uint64_t after_ops = 1; after_ops <= 10; ++after_ops) {
      FaultPlan plan;
      plan.seed = 0x1EAD + after_ops;
      for (const ProcId victim : {0, 1}) {
        CrashSpec crash{.proc = victim,
                        .after_ops = after_ops +
                                     static_cast<std::uint64_t>(victim),
                        .recovery = {}};
        crash.recovery.delay_units = 1 + static_cast<std::uint64_t>(victim);
        crash.recovery.max_restarts = 1;
        crash.recovery.amnesia = true;
        plan.crashes.push_back(crash);
      }

      auto tosses = std::make_shared<SeededTossAssignment>(0xCAFE + after_ops);
      System sys(n, leader_election_body(), tosses);
      FaultInjector injector(plan, n);
      sys.set_fault_injector(&injector);
      RoundRobinScheduler sched;
      ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated)
          << "n=" << n << " after_ops=" << after_ops;

      const RecoverableLeaderCheckResult res =
          check_recoverable_leader_run(sys);
      EXPECT_TRUE(res.ok) << "n=" << n << " after_ops=" << after_ops << ": "
                          << res.summary();
      EXPECT_GE(res.leader, 0) << "n=" << n << " after_ops=" << after_ops;
      EXPECT_LT(res.leader, n) << "n=" << n << " after_ops=" << after_ops;
      EXPECT_EQ(res.num_restarts, injector.stats().recoveries);
      total_restarts += res.num_restarts;
    }
  }
  EXPECT_GT(total_restarts, 20u);
}

// A crash-stopped TAS process (no recovery) leaves the run incomplete:
// the plain checker still certifies at-most-one-winner on the partial
// run, and the recoverable checker names the still-crashed process.
TEST(RecoveryTest, CrashStoppedTasStillHasAtMostOneWinner) {
  const int n = 4;
  FaultPlan plan;
  plan.seed = 0xDEAD;
  plan.crashes.push_back(CrashSpec{.proc = 2, .after_ops = 3, .recovery = {}});

  auto tosses = std::make_shared<SeededTossAssignment>(0xDEAD);
  System sys(n, randomized_tas_body(), tosses);
  FaultInjector injector(plan, n);
  sys.set_fault_injector(&injector);
  RoundRobinScheduler sched;
  sched.run(sys, 1 << 20);

  const TasCheckResult partial = check_tas_run(sys);
  EXPECT_LE(partial.num_winners, 1);
  const RecoverableTasCheckResult rec = check_recoverable_tas_run(sys);
  EXPECT_FALSE(rec.ok);
  bool names_still_crashed = false;
  for (const std::string& v : rec.violations) {
    if (v.find("still crashed") != std::string::npos) {
      names_still_crashed = true;
    }
  }
  EXPECT_TRUE(names_still_crashed);
}

}  // namespace
}  // namespace llsc
