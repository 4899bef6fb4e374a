// The adversary's sharded pass (AdversaryOptions::threads): a run is the
// same at every thread count — round records, snapshots, per-process
// counters and event stamps, memory, the wakeup check and the Theorem 6.1
// report. Each body runs at two sizes, the second cut unevenly into the
// pass's chunks. A fault injector forces one thread, and a body's
// exception reaches the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/adversary.h"
#include "core/lower_bound.h"
#include "hw/fault.h"
#include "runtime/toss.h"
#include "wakeup/algorithms.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

struct ProcState {
  std::uint64_t shared_ops = 0;
  std::uint64_t num_tosses = 0;
  bool done = false;
  Value result;
  std::uint64_t first_event = 0;
  std::uint64_t completion_event = 0;

  bool operator==(const ProcState&) const = default;
};

struct Outcome {
  RunLog log;
  std::vector<ProcState> procs;
  std::uint64_t total_shared_ops = 0;
  std::size_t state_hash = 0;
  std::string wakeup_check;
  std::optional<FaultStats> fault;
  DecisionTrace trace;
};

Outcome run(const ProcBody& body, int n, int threads,
            std::shared_ptr<const TossAssignment> tosses = nullptr,
            bool full = true, const FaultPlan* plan = nullptr) {
  System sys(n, body, std::move(tosses));
  std::optional<FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan, n);
    sys.set_fault_injector(&*injector);
  }
  AdversaryOptions options;
  options.record_snapshots = full;
  options.threads = threads;
  Outcome out;
  out.log = run_adversary(sys, options);
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = sys.process(p);
    ProcState s;
    s.shared_ops = proc.shared_ops();
    s.num_tosses = proc.num_tosses();
    s.done = proc.done();
    if (s.done) s.result = proc.result();
    s.first_event = sys.first_event(p);
    s.completion_event = sys.completion_event(p);
    out.procs.push_back(s);
  }
  out.total_shared_ops = sys.total_shared_ops();
  out.state_hash = sys.memory().state_hash();
  out.wakeup_check = check_wakeup_run(sys).summary();
  if (injector) {
    out.fault = injector->stats();
    out.trace = injector->trace();
  }
  return out;
}

bool same_op(const OpRecord& a, const OpRecord& b) {
  return a.proc == b.proc && a.op.kind == b.op.kind && a.op.reg == b.op.reg &&
         a.op.src == b.op.src && a.op.arg == b.op.arg &&
         a.op.rmw == b.op.rmw && a.result.flag == b.result.flag &&
         a.result.value == b.result.value && a.step_index == b.step_index;
}

bool same_snapshot(const RoundSnapshot& a, const RoundSnapshot& b) {
  if (a.procs.size() != b.procs.size() || a.regs.size() != b.regs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    const ProcSnapshot& x = a.procs[i];
    const ProcSnapshot& y = b.procs[i];
    if (x.num_tosses != y.num_tosses || x.shared_ops != y.shared_ops ||
        x.history_hash != y.history_hash || x.done != y.done ||
        !(x.result == y.result)) {
      return false;
    }
  }
  for (auto i = a.regs.begin(), j = b.regs.begin(); i != a.regs.end();
       ++i, ++j) {
    if (i->first != j->first || !(i->second.value == j->second.value) ||
        i->second.pset != j->second.pset) {
      return false;
    }
  }
  return true;
}

// The first place two logs differ, or "" when they are the same.
std::string log_difference(const RunLog& a, const RunLog& b) {
  if (a.n != b.n || a.round_count != b.round_count ||
      a.all_terminated != b.all_terminated ||
      a.rounds.size() != b.rounds.size() ||
      a.snapshots.size() != b.snapshots.size()) {
    return "shape";
  }
  if (!same_snapshot(a.initial, b.initial)) return "initial snapshot";
  for (std::size_t k = 0; k < a.rounds.size(); ++k) {
    const RoundRecord& x = a.rounds[k];
    const RoundRecord& y = b.rounds[k];
    const std::string at = "round " + std::to_string(k + 1) + ": ";
    if (x.round != y.round) return at + "number";
    if (x.g_load != y.g_load || x.g_move != y.g_move ||
        x.g_swap != y.g_swap || x.g_sc != y.g_sc) {
      return at + "groups";
    }
    if (x.move_set != y.move_set || x.sigma != y.sigma) return at + "moves";
    if (x.terminated_in_phase1 != y.terminated_in_phase1) {
      return at + "terminated in phase 1";
    }
    if (x.ops.size() != y.ops.size()) return at + "op count";
    for (std::size_t i = 0; i < x.ops.size(); ++i) {
      if (!same_op(x.ops[i], y.ops[i])) {
        return at + "op " + std::to_string(i);
      }
    }
    if (!same_snapshot(a.snapshots[k], b.snapshots[k])) return at + "snapshot";
  }
  return "";
}

void expect_same(const Outcome& one, const Outcome& many) {
  EXPECT_EQ(log_difference(one.log, many.log), "");
  EXPECT_EQ(one.log.round_count, many.log.round_count);
  EXPECT_EQ(one.log.all_terminated, many.log.all_terminated);
  ASSERT_EQ(one.procs.size(), many.procs.size());
  for (std::size_t p = 0; p < one.procs.size(); ++p) {
    ASSERT_TRUE(one.procs[p] == many.procs[p]) << "p" << p;
  }
  EXPECT_EQ(one.total_shared_ops, many.total_shared_ops);
  EXPECT_EQ(one.state_hash, many.state_hash);
  EXPECT_EQ(one.wakeup_check, many.wakeup_check);
}

struct Case {
  const char* name;
  ProcBody body;
  std::shared_ptr<const TossAssignment> tosses;
  // Two sizes; the second does not divide evenly into chunks.
  std::vector<int> sizes;
};

// The swap+move mix stores whole up-sets in registers, so a run costs
// Θ(n²) set elements; it runs at smaller n than the rest.
std::vector<Case> cases() {
  return {
      {"tournament", tournament_wakeup(), nullptr, {4096, 5000}},
      {"randomized tournament", randomized_tournament_wakeup(),
       std::make_shared<SeededTossAssignment>(0x5EED), {4096, 5000}},
      {"swap+move mix", swap_mix_wakeup(), nullptr, {512, 601}},
      {"cheating", cheating_wakeup(2), nullptr, {4096, 5000}},
  };
}

TEST(AdversaryShards, FullLogIsTheSameAtEveryShardCount) {
  for (const Case& c : cases()) {
    for (const int n : c.sizes) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      const Outcome one = run(c.body, n, 1, c.tosses);
      EXPECT_GT(one.log.num_rounds(), 1);
      for (const int threads : {2, 3, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expect_same(one, run(c.body, n, threads, c.tosses));
      }
    }
  }
}

TEST(AdversaryShards, LeanRunIsTheSameAtEveryShardCount) {
  for (const Case& c : cases()) {
    const int n = c.sizes.back();
    SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
    const Outcome one = run(c.body, n, 1, c.tosses, /*full=*/false);
    EXPECT_TRUE(one.log.rounds.empty());
    expect_same(one, run(c.body, n, 4, c.tosses, /*full=*/false));
  }
}

// The counter takes Θ(n) rounds of Θ(n) ops, so it runs at a smaller n;
// 301 does not divide evenly into the chunks of 2, 3 or 4 threads.
TEST(AdversaryShards, CounterIsTheSameAtEveryShardCount) {
  for (const int n : {256, 301}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Outcome one = run(counter_wakeup(), n, 1);
    EXPECT_TRUE(one.log.all_terminated);
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_same(one, run(counter_wakeup(), n, threads));
    }
  }
}

TEST(AdversaryShards, MoreShardsThanProcessesClampToOnePerProcess) {
  const Outcome one = run(tournament_wakeup(), 3, 1);
  expect_same(one, run(tournament_wakeup(), 3, 8));
}

TEST(AdversaryShards, RoundCapStopsBeforeTheNextPhase1) {
  System one(4096, randomized_tournament_wakeup(),
             std::make_shared<SeededTossAssignment>(7));
  System four(4096, randomized_tournament_wakeup(),
              std::make_shared<SeededTossAssignment>(7));
  AdversaryOptions options;
  options.max_rounds = 3;
  options.record_snapshots = false;
  const RunLog a = run_adversary(one, options);
  options.threads = 4;
  const RunLog b = run_adversary(four, options);
  EXPECT_EQ(a.num_rounds(), 3);
  EXPECT_EQ(b.num_rounds(), 3);
  for (ProcId p = 0; p < 4096; ++p) {
    ASSERT_EQ(one.process(p).num_tosses(), four.process(p).num_tosses());
    ASSERT_EQ(one.process(p).shared_ops(), 3u);
    ASSERT_EQ(four.process(p).shared_ops(), 3u);
  }
}

TEST(AdversaryShards, LowerBoundReportIsTheSameAtEveryShardCount) {
  // A full analysis: lean run, snapshot replay, (S,A)-run and checker.
  const int n = 1500;
  WakeupLowerBoundOptions options;
  options.always_check_indistinguishability = true;
  options.adversary.threads = 1;
  const WakeupLowerBoundReport one =
      analyze_wakeup_run(tournament_wakeup(), n, nullptr, options);
  ASSERT_TRUE(one.s_run_built);
  EXPECT_TRUE(one.indist.ok);
  for (const int threads : {0, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.adversary.threads = threads;
    const WakeupLowerBoundReport r =
        analyze_wakeup_run(tournament_wakeup(), n, nullptr, options);
    EXPECT_EQ(r.summary(), one.summary());
    EXPECT_EQ(r.rounds, one.rounds);
    EXPECT_EQ(r.winner, one.winner);
    EXPECT_EQ(r.winner_ops, one.winner_ops);
    EXPECT_EQ(r.max_ops, one.max_ops);
    EXPECT_EQ(r.s_size, one.s_size);
    EXPECT_EQ(r.s_run_winner_returned_1, one.s_run_winner_returned_1);
    EXPECT_EQ(r.indist.ok, one.indist.ok);
    EXPECT_EQ(r.indist.violations, one.indist.violations);
    EXPECT_EQ(r.indist.process_checks, one.indist.process_checks);
    EXPECT_EQ(r.indist.register_checks, one.indist.register_checks);
  }
}

TEST(AdversaryShards, FaultInjectorForcesOneShard) {
  const int n = 2048;
  FaultPlan plan;
  plan.seed = 99;
  plan.sc_fail_rate = 0.05;
  plan.fault_budget = 40;  // capped: the placed decisions form a trace
  for (const auto& [proc, after_ops, amnesia] :
       {std::tuple<ProcId, std::uint64_t, bool>{5, 2, true},
        {700, 3, false},
        {1500, 1, true},
        {2000, 4, false}}) {
    CrashSpec crash{.proc = proc, .after_ops = after_ops, .recovery = {}};
    crash.recovery.delay_units = 3;
    crash.recovery.max_restarts = 1;
    crash.recovery.amnesia = amnesia;
    plan.crashes.push_back(crash);
  }
  const auto tosses = std::make_shared<SeededTossAssignment>(3);
  const ProcBody body = randomized_tournament_wakeup();
  const Outcome one = run(body, n, 1, tosses, /*full=*/true, &plan);
  const Outcome four = run(body, n, 4, tosses, /*full=*/true, &plan);
  ASSERT_TRUE(one.fault.has_value());
  EXPECT_EQ(one.fault->crashes, 4u);
  EXPECT_EQ(one.fault->recoveries, 4u);
  EXPECT_GT(one.fault->injected_sc_failures, 0u);
  EXPECT_FALSE(one.trace.empty());
  expect_same(one, four);
  const FaultStats& a = *one.fault;
  const FaultStats& b = *four.fault;
  EXPECT_EQ(a.injected_sc_failures, b.injected_sc_failures);
  EXPECT_EQ(a.injected_vl_failures, b.injected_vl_failures);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.stall_units, b.stall_units);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_units, b.recovery_units);
  EXPECT_TRUE(one.trace == four.trace);
}

// Each process LLs and SCs its own register five times; a thrower throws
// when its body resumes from its second LL.
SimTask ll_sc_five_times(ProcCtx ctx, RegId reg, bool thrower) {
  for (int k = 1;; ++k) {
    const Value v = co_await ctx.ll(reg);
    if (thrower && k == 2) {
      throw std::runtime_error("p" + std::to_string(ctx.id()));
    }
    const ScResult r = co_await ctx.sc(reg, v);
    if (k == 5) co_return Value::of_u64(r.ok ? 1 : 0);
  }
}

// The processes in `throwers` all throw in the same pass.
ProcBody throwing_body(std::vector<ProcId> throwers) {
  return [throwers](ProcCtx ctx, ProcId i, int) {
    return ll_sc_five_times(
        ctx, static_cast<RegId>(i),
        std::find(throwers.begin(), throwers.end(), i) != throwers.end());
  };
}

std::string thrown(const std::vector<ProcId>& throwers, int threads) {
  System sys(4096, throwing_body(throwers));
  AdversaryOptions options;
  options.record_snapshots = false;
  options.threads = threads;
  try {
    run_adversary(sys, options);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "nothing";
}

TEST(AdversaryShards, BodyExceptionReachesTheCaller) {
  // p3500 lies in a worker's own chunks at 2 and 4 threads.
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(thrown({3500}, threads), "p3500");
  }
}

TEST(AdversaryShards, LowestThrowingIdWins) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(thrown({3900, 1500}, threads), "p1500");
  }
}

}  // namespace
}  // namespace llsc
