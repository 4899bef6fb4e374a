// HwExecutor: whole algorithms on real threads — wakeup correctness under
// hardware interleavings, universal-construction exactness, toss parity
// with the simulator, the hw-vs-sim workload harness, and the 1:1 contract
// of the pool it runs on.
#include "hw/hw_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "hw/fault_scenarios.h"
#include "hw/oversub_executor.h"
#include "objects/arith.h"
#include "runtime/system.h"
#include "sched/scheduler.h"
#include "universal/group_update.h"
#include "universal/single_register.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

HwRunOptions with_seed(std::uint64_t seed) {
  HwRunOptions opts;
  opts.seed = seed;
  return opts;
}

// Five bounded tosses folded into a value — a pure function of the toss
// assignment, so it must agree across platforms and across runs.
SimTask toss_sum_body(ProcCtx ctx) {
  std::uint64_t sum = 0;
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t t = co_await ctx.toss(100);
    sum = sum * 101 + t;
  }
  co_return Value::of_u64(sum);
}

TEST(HwExecutorTest, TournamentWakeupSatisfiesSpecOnThreads) {
  // The tournament's guarantee is schedule-independent: in EVERY execution
  // at least one process returns 1 — including the OS's interleavings.
  for (const int n : {2, 4, 8}) {
    for (int rep = 0; rep < 5; ++rep) {
      HwExecutor exec(with_seed(static_cast<std::uint64_t>(rep)));
      const HwRunResult run = exec.run(n, tournament_wakeup());
      ASSERT_TRUE(run.ok);
      int ones = 0;
      for (const Value& v : run.results) {
        ASSERT_TRUE(v.holds_u64());
        ASSERT_LE(v.as_u64(), 1u);
        ones += static_cast<int>(v.as_u64());
      }
      EXPECT_GE(ones, 1) << "n=" << n << " rep=" << rep;
      EXPECT_GT(run.max_shared_ops, 0u);
    }
  }
}

// The tournament writes counts of at most n, so with default options
// every register stays an inline word and the run allocates no node.
TEST(HwExecutorTest, SmallValueRunAllocatesNoNodes) {
  HwExecutor exec;
  const HwRunResult run = exec.run(8, tournament_wakeup());
  ASSERT_TRUE(run.ok);
  EXPECT_GT(run.width.writes_inspected, 0u);
  EXPECT_EQ(run.reclaim.nodes_allocated, 0u);
}

TEST(HwExecutorTest, RandomizedWakeupRunsOnThreads) {
  HwExecutor exec(with_seed(3));
  const HwRunResult run = exec.run(4, randomized_tournament_wakeup());
  ASSERT_TRUE(run.ok);
  int ones = 0;
  for (const Value& v : run.results) ones += static_cast<int>(v.as_u64());
  EXPECT_GE(ones, 1);
  // The randomized variant actually tossed coins.
  std::uint64_t tosses = 0;
  for (const std::uint64_t t : run.num_tosses) tosses += t;
  EXPECT_GT(tosses, 0u);
}

TEST(HwExecutorTest, TossOutcomesMatchSimulatorExactly) {
  const int n = 3;
  const std::uint64_t seed = 99;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return toss_sum_body(ctx);
  };
  HwExecutor exec(with_seed(seed));
  const HwRunResult hw = exec.run(n, body);
  ASSERT_TRUE(hw.ok);

  // Same seed, same pure outcome function — the per-process results on
  // real threads must equal the simulator's, toss for toss.
  System sys(n, body, std::make_shared<SeededTossAssignment>(seed));
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1 << 20).all_terminated);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(hw.results[static_cast<std::size_t>(p)],
              sys.process(p).result())
        << "p=" << p;
    EXPECT_EQ(hw.num_tosses[static_cast<std::size_t>(p)], 5u);
  }

  // And a second hw run replays identically (interleaving-independent).
  HwExecutor exec2(with_seed(seed));
  const HwRunResult hw2 = exec2.run(n, body);
  EXPECT_EQ(hw.results, hw2.results);
}

TEST(HwExecutorTest, GroupUpdateFetchIncrementIsExactOnThreads) {
  const int n = 4;
  const int ops = 8;
  GroupUpdateUC uc(n, [] { return std::make_unique<FetchAddObject>(64, 0); });
  HwExecutor exec;
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  const UcThroughput t = run_uc_on_hw(exec, uc, n, ops, make_op);
  // n*ops distinct counter values 0..31 — their sum is invariant under any
  // linearization, so lost or duplicated operations are detected exactly.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * ops;
  EXPECT_EQ(t.total_uc_ops, total);
  EXPECT_EQ(t.response_sum, total * (total - 1) / 2);
  EXPECT_EQ(t.latency.count(), total);
  EXPECT_LE(t.latency.p50_ns(), t.latency.p99_ns());
  EXPECT_GT(t.ops_per_second, 0.0);
  // Wait-freedom carried over to metal: nobody exceeded the analytic
  // worst case.
  EXPECT_LE(t.shared_ops_per_uc_op,
            static_cast<double>(uc.worst_case_shared_ops()));
}

TEST(HwExecutorTest, SingleRegisterUcOnThreads) {
  const int n = 4;
  const int ops = 4;
  SingleRegisterUC uc(n, [] { return std::make_unique<FetchAddObject>(64, 0); });
  HwExecutor exec;
  const UcThroughput t = run_uc_on_hw(
      exec, uc, n, ops, [](ProcId, int) {
        return ObjOp{"fetch&increment", {}};
      });
  const std::uint64_t total = static_cast<std::uint64_t>(n) * ops;
  EXPECT_EQ(t.response_sum, total * (total - 1) / 2);
}

TEST(HwExecutorTest, SimulatorColumnMatchesHwResponses) {
  const int n = 4;
  const int ops = 4;
  const UcOpFactory make_op = [](ProcId, int) {
    return ObjOp{"fetch&increment", {}};
  };
  GroupUpdateUC hw_uc(n, [] { return std::make_unique<FetchAddObject>(64, 0); });
  HwExecutor exec;
  const UcThroughput hw = run_uc_on_hw(exec, hw_uc, n, ops, make_op);

  GroupUpdateUC sim_uc(n, [] { return std::make_unique<FetchAddObject>(64, 0); });
  const UcThroughput sim = run_uc_on_simulator(sim_uc, n, ops, make_op);
  // Different interleavings, same object: the multiset of responses (and
  // hence the sum) is forced by fetch&increment's semantics.
  EXPECT_EQ(hw.response_sum, sim.response_sum);
  EXPECT_EQ(sim.total_uc_ops, hw.total_uc_ops);
  EXPECT_GT(sim.max_shared_ops, 0u);
}

// A present-but-disabled fault plan (all rates zero, no crashes) must be
// indistinguishable from no plan at all: same clean taxonomy, same
// schedule-independent per-process op counts, zero decision counters.
TEST(HwExecutorTest, DisabledFaultPlanLeavesRunsUnchanged) {
  const int n = 4;
  const ProcBody algo = fault_scenario("fixed_swap");  // 8 ops/process
  HwExecutor plain;
  const HwRunResult baseline = plain.run(n, algo);

  FaultPlan disabled;  // enabled() == false
  HwRunOptions options;
  options.fault = &disabled;
  HwExecutor gated(options);
  const HwRunResult r = gated.run(n, algo);

  EXPECT_EQ(r.status, RunStatus::kClean);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shared_ops, baseline.shared_ops);
  EXPECT_EQ(r.fault.ops, 0u);
  EXPECT_EQ(r.fault.injected_sc_failures, 0u);
  EXPECT_EQ(r.fault.crashes, 0u);
}

TEST(HwExecutorTest, ProgressWatchdogCancelsStagnantRun) {
  // Workers that keep taking steps but stop advancing: a certain stall on
  // every op, long enough (minutes of wall clock) that the run can only
  // end through the progress watchdog. Stalls checkpoint cancellation
  // every unit, so the cancel lands promptly once stagnation is detected.
  // Deadlines are tight (tens of ms) to keep the test fast, hence scaled
  // for sanitized CI jobs (LLSC_TIMEOUT_SCALE=4 under TSan).
  const int n = 2;
  FaultPlan plan;
  plan.seed = 1;
  plan.stall_rate = 1.0;
  plan.max_stall_units = 1u << 20;
  plan.stall_unit_ns = 1000 * 1000;  // 1 ms per unit, ~17 min max stall
  HwRunOptions options;
  options.fault = &plan;
  options.progress_timeout_ms = scale_timeout_ms(50);
  options.timeout_ms = scale_timeout_ms(5000);  // backstop only
  options.watchdog_poll_ms = 2;
  HwExecutor exec(options);
  const HwRunResult r = exec.run(n, fault_scenario("fixed_swap"));
  EXPECT_EQ(r.status, RunStatus::kHung);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.hung_procs, n);
}

// The carrier thread a process started on and the one it finished on,
// across a cooperative yield point and a few LL/SC pairs on its own
// register.
struct CarrierTrace {
  std::thread::id before;
  std::thread::id after;
};

SimTask carrier_trace_body(ProcCtx ctx, CarrierTrace* trace) {
  trace->before = std::this_thread::get_id();
  co_await ctx.yield();
  const RegId reg = static_cast<RegId>(ctx.id());
  for (std::uint64_t k = 0; k < 4; ++k) {
    (void)co_await ctx.ll(reg);
    (void)co_await ctx.sc(reg, Value::of_u64(k));
  }
  trace->after = std::this_thread::get_id();
  co_return Value::of_u64(0);
}

// Runs carrier_trace_body for m processes and checks that each ran on a
// thread of its own, start to finish.
template <typename Executor>
HwRunResult run_carrier_traces(Executor& exec, int m) {
  std::vector<CarrierTrace> traces(static_cast<std::size_t>(m));
  const HwRunResult run = exec.run(m, [&traces](ProcCtx ctx, ProcId i, int) {
    return carrier_trace_body(ctx, &traces[static_cast<std::size_t>(i)]);
  });
  EXPECT_TRUE(run.ok);
  std::set<std::thread::id> threads;
  for (const CarrierTrace& t : traces) {
    threads.insert(t.before);
    EXPECT_EQ(t.before, t.after) << "a process migrated across a yield";
  }
  EXPECT_EQ(threads.size(), static_cast<std::size_t>(m));
  return run;
}

// HwExecutor is the pool at N = M = n with a platform that never yields:
// one thread per process, one resume per process, and no scheduling
// beyond that.
TEST(HwExecutorTest, RunsEachProcessOnItsOwnThreadWithoutScheduling) {
  const int n = 4;
  HwExecutor exec;
  const HwRunResult run = run_carrier_traces(exec, n);
  EXPECT_EQ(run.sched.num_threads, n);
  EXPECT_EQ(run.sched.num_procs, n);
  EXPECT_EQ(run.sched.resumes, static_cast<std::uint64_t>(n));
  EXPECT_EQ(run.sched.yields, 0u);
  EXPECT_EQ(run.sched.steals, 0u);
  EXPECT_EQ(run.sched.idle_parks, 0u);
  EXPECT_EQ(run.sched.idle_park_skips, 0u);
}

// Fewer processes than carriers: the pool keeps one process per carrier,
// so even a process that yields after every op comes back to its own
// thread, and no carrier steals or parks.
TEST(HwExecutorTest, UndersubscribedPoolNeverStealsOrParks) {
  const int m = 4;
  OversubRunOptions options;
  options.num_threads = 2 * m;
  OversubscribedExecutor exec(options);
  const HwRunResult run = run_carrier_traces(exec, m);
  EXPECT_EQ(run.sched.num_threads, m);
  EXPECT_GT(run.sched.yields, 0u);
  EXPECT_EQ(run.sched.steals, 0u);
  EXPECT_EQ(run.sched.idle_parks, 0u);
  EXPECT_EQ(run.sched.idle_park_skips, 0u);
}

}  // namespace
}  // namespace llsc
