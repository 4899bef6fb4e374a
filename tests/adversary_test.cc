// Tests for the Fig. 2 adversary: round/phase structure, group
// partitioning, secretive move scheduling, termination, snapshots.
#include "core/adversary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/fault.h"
#include "runtime/toss.h"
#include "wakeup/algorithms.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

TEST(Adversary, TerminatesTournamentAndRecordsRounds) {
  System sys(8, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  EXPECT_GT(log.num_rounds(), 0);
  EXPECT_EQ(log.n, 8);
  EXPECT_EQ(log.snapshots.size(), static_cast<std::size_t>(log.num_rounds()));
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

TEST(Adversary, OneSharedOpPerLiveProcessPerRound) {
  System sys(6, tournament_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    std::set<ProcId> seen;
    for (const OpRecord& op : rec.ops) {
      EXPECT_TRUE(seen.insert(op.proc).second)
          << "p" << op.proc << " stepped twice in round " << rec.round;
    }
    const std::size_t live = rec.g_load.size() + rec.g_move.size() +
                             rec.g_swap.size() + rec.g_sc.size();
    EXPECT_EQ(rec.ops.size(), live);
  }
}

TEST(Adversary, PhaseOrderWithinRound) {
  System sys(6, swap_mix_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  bool saw_swap = false;
  bool saw_move = false;
  for (const RoundRecord& rec : log.rounds) {
    // Ops must appear grouped: loads, then moves, then swaps, then SCs.
    int phase = 0;
    for (const OpRecord& op : rec.ops) {
      const int g = static_cast<int>(op_group(op.op.kind));
      EXPECT_GE(g, phase) << "phase order violated in round " << rec.round;
      phase = std::max(phase, g);
      saw_swap |= op.op.kind == OpKind::kSwap;
      saw_move |= op.op.kind == OpKind::kMove;
    }
  }
  // swap_mix exercises swap and move phases.
  EXPECT_TRUE(saw_swap);
  EXPECT_TRUE(saw_move);
}

TEST(Adversary, MovePhaseUsesSecretiveSchedule) {
  System sys(12, swap_mix_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    if (rec.move_set.empty()) {
      EXPECT_TRUE(rec.sigma.empty());
      continue;
    }
    EXPECT_TRUE(is_secretive_complete(rec.move_set, rec.sigma))
        << "round " << rec.round;
  }
}

TEST(Adversary, AblatedMovesScheduleById) {
  System sys(12, swap_mix_wakeup());
  AdversaryOptions opts;
  opts.secretive_moves = false;
  const RunLog log = run_adversary(sys, opts);
  for (const RoundRecord& rec : log.rounds) {
    EXPECT_TRUE(std::is_sorted(rec.sigma.begin(), rec.sigma.end()));
  }
}

TEST(Adversary, LoadsObserveEndOfPreviousRound) {
  // Within a round, loads run before stores: an LL in the same round as a
  // successful SC on the same register must return the PREVIOUS value.
  System sys(4, counter_wakeup());
  const RunLog log = run_adversary(sys);
  EXPECT_TRUE(log.all_terminated);
  for (std::size_t r = 1; r < log.rounds.size(); ++r) {
    const RoundRecord& rec = log.rounds[r];
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind != OpKind::kLL) continue;
      const auto& prev_snap = log.at(rec.round - 1);
      const auto it = prev_snap.regs.find(op.op.reg);
      const Value expected =
          it == prev_snap.regs.end() ? Value{} : it->second.value;
      EXPECT_EQ(op.result.value, expected)
          << "LL in round " << rec.round << " did not read the end-of-"
          << (rec.round - 1) << " value";
    }
  }
}

TEST(Adversary, AtMostOneSuccessfulScPerRegisterPerRound) {
  System sys(9, counter_wakeup());
  const RunLog log = run_adversary(sys);
  for (const RoundRecord& rec : log.rounds) {
    std::map<RegId, int> successes;
    for (const OpRecord& op : rec.ops) {
      if (op.op.kind == OpKind::kSC && op.result.flag) {
        ++successes[op.op.reg];
      }
    }
    for (const auto& [reg, count] : successes) {
      EXPECT_LE(count, 1) << "register " << reg << " round " << rec.round;
    }
  }
}

TEST(Adversary, RoundCapStopsNonTerminatingRuns) {
  // flaky with denominator 2 and all-zero tosses: every process draws
  // outcome 0 and spins forever.
  System sys(3, flaky_wakeup(2));
  AdversaryOptions opts;
  opts.max_rounds = 10;
  const RunLog log = run_adversary(sys, opts);
  EXPECT_FALSE(log.all_terminated);
  EXPECT_EQ(log.num_rounds(), 10);
}

TEST(Adversary, CounterWakeupForcedToLinearRounds) {
  // Under the adversary, the naive counter makes one process finish per
  // ~2 rounds: the last finisher performs Θ(n) operations.
  const int n = 16;
  System sys(n, counter_wakeup());
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  EXPECT_GE(sys.max_shared_ops(), static_cast<std::uint64_t>(n));
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

TEST(Adversary, SnapshotsCanBeDisabled) {
  System sys(4, tournament_wakeup());
  AdversaryOptions opts;
  opts.record_snapshots = false;
  const RunLog log = run_adversary(sys, opts);
  EXPECT_TRUE(log.all_terminated);
  EXPECT_TRUE(log.snapshots.empty());
  EXPECT_GT(log.num_rounds(), 0);
}

class AdversaryAlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AdversaryAlgorithmSweep, WakeupSpecHoldsUnderAdversary) {
  const int n = std::get<0>(GetParam());
  const int alg = std::get<1>(GetParam());
  ProcBody body;
  switch (alg) {
    case 0:
      body = tournament_wakeup();
      break;
    case 1:
      body = counter_wakeup();
      break;
    default:
      body = swap_mix_wakeup();
      break;
  }
  System sys(n, body);
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated) << "n=" << n << " alg=" << alg;
  const WakeupCheckResult check = check_wakeup_run(sys);
  EXPECT_TRUE(check.ok) << check.violations.front();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversaryAlgorithmSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 16, 31),
                       ::testing::Values(0, 1, 2)));

// One adversary run: its log, and the per-process counters and memory op
// counts the System held at the end.
struct AdversaryRun {
  RunLog log;
  std::vector<ProcSnapshot> procs;  // history_hash left 0
  MemoryOpCounts counts;
};

// Runs `body` on n processes under the adversary. `plan`, when given,
// drives a FaultInjector; `tosses` defaults to zeros.
AdversaryRun adversary_run(const ProcBody& body, int n, bool record_snapshots,
                           std::shared_ptr<const TossAssignment> tosses =
                               nullptr,
                           const FaultPlan* plan = nullptr) {
  System sys(n, body, std::move(tosses));
  std::optional<FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan, n);
    sys.set_fault_injector(&*injector);
  }
  AdversaryOptions opts;
  opts.max_rounds = 512;
  opts.record_snapshots = record_snapshots;
  AdversaryRun out{.log = run_adversary(sys, opts), .procs = {}, .counts = {}};
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = sys.process(p);
    ProcSnapshot ps;
    ps.num_tosses = proc.num_tosses();
    ps.shared_ops = proc.shared_ops();
    ps.done = proc.done();
    if (ps.done) ps.result = proc.result();
    out.procs.push_back(ps);
  }
  out.counts = sys.memory().counts();
  return out;
}

// Records and snapshots only observe a run: the lean run (which keeps
// neither) must end where the full run ends, in its round count, its
// termination, every process's counters and the memory's op counts.
void expect_same_run(const AdversaryRun& full, const AdversaryRun& lean,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_FALSE(full.log.snapshots.empty());
  EXPECT_TRUE(lean.log.rounds.empty());
  EXPECT_TRUE(lean.log.snapshots.empty());
  ASSERT_EQ(full.log.num_rounds(), lean.log.num_rounds());
  EXPECT_EQ(full.log.all_terminated, lean.log.all_terminated);
  const RoundSnapshot& last = full.log.at(full.log.num_rounds());
  ASSERT_EQ(last.procs.size(), lean.procs.size());
  for (std::size_t p = 0; p < lean.procs.size(); ++p) {
    SCOPED_TRACE("p" + std::to_string(p));
    const ProcSnapshot& a = last.procs[p];
    const ProcSnapshot& b = lean.procs[p];
    EXPECT_EQ(a.shared_ops, b.shared_ops);
    EXPECT_EQ(a.num_tosses, b.num_tosses);
    EXPECT_EQ(a.done, b.done);
    if (a.done && b.done) {
      EXPECT_EQ(a.result, b.result);
    }
  }
  EXPECT_EQ(full.counts.by_kind, lean.counts.by_kind);
}

TEST(Adversary, LogIndependentOfSnapshotRecording) {
  const struct {
    const char* name;
    ProcBody body;
  } deterministic[] = {{"tournament", tournament_wakeup()},
                       {"counter", counter_wakeup()},
                       {"swap_mix", swap_mix_wakeup()}};
  for (const auto& [name, body] : deterministic) {
    expect_same_run(adversary_run(body, 13, true),
                    adversary_run(body, 13, false), name);
  }

  const auto tosses = std::make_shared<SeededTossAssignment>(0xC0FFEE);
  expect_same_run(
      adversary_run(randomized_tournament_wakeup(), 16, true, tosses),
      adversary_run(randomized_tournament_wakeup(), 16, false, tosses),
      "randomized_tournament");

  // A crash-stop followed by an amnesiac restart: the rejoin happens at
  // the top of a round, so it goes through the same Phase 1 pass.
  FaultPlan plan;
  plan.seed = 3;
  CrashSpec crash{.proc = 2, .after_ops = 2, .recovery = {}};
  crash.recovery.max_restarts = 1;
  crash.recovery.amnesia = true;
  plan.crashes.push_back(crash);
  const AdversaryRun with =
      adversary_run(tournament_wakeup(), 8, true, nullptr, &plan);
  const AdversaryRun without =
      adversary_run(tournament_wakeup(), 8, false, nullptr, &plan);
  // p2 steps, misses rounds while crashed, then steps again.
  std::vector<bool> p2_stepped;
  for (const RoundRecord& rec : with.log.rounds) {
    p2_stepped.push_back(std::any_of(
        rec.ops.begin(), rec.ops.end(),
        [](const OpRecord& o) { return o.proc == 2; }));
  }
  const auto gap = std::find(p2_stepped.begin(), p2_stepped.end(), false);
  ASSERT_NE(gap, p2_stepped.end());
  EXPECT_NE(std::find(gap, p2_stepped.end(), true), p2_stepped.end())
      << "p2 never rejoined after its crash";
  expect_same_run(with, without, "tournament + crash/recover");
}

}  // namespace
}  // namespace llsc
