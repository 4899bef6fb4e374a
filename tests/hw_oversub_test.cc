// OversubscribedExecutor: M logical coroutine processes on an N-thread
// pool. Covers the determinism contract (toss streams are migration-
// safe, so an oversubscribed run reproduces the 1:1 executor's results
// bit-for-bit), operation exactness, per-carrier counters that sum to
// every install, one yield per shared op, the
// watchdog's ⌈M/N⌉-scaled stagnation window (the false-hung regression),
// a TSan-facing stress leg with adaptive fault injection, and LL/SC
// exactness for a link held across other clients' turns.
#include "hw/oversub_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/fault.h"
#include "hw/fault_scenarios.h"
#include "memory/rmw.h"
#include "util/rng.h"

namespace llsc {
namespace {

OversubRunOptions pool(int num_threads, std::uint64_t seed) {
  OversubRunOptions options;
  options.num_threads = num_threads;
  options.seed = seed;
  return options;
}

// Each process folds five bounded tosses into a value — a pure function
// of the toss assignment, so it must agree between the 1:1 executor and
// every oversubscribed pool shape, whatever carrier threads the
// coroutine migrates across.
SimTask toss_sum_body(ProcCtx ctx) {
  std::uint64_t sum = 0;
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t t = co_await ctx.toss(100);
    sum = sum * 101 + t;
  }
  co_return Value::of_u64(sum);
}

// `ops` fetch&add(1)s on register 0; returns the sum of the observed old
// values. Across all processes the old values are exactly {0, ..., T-1}
// (T = m * ops), so the grand total T(T-1)/2 detects any lost or
// duplicated operation.
SimTask counter_body(ProcCtx ctx, std::shared_ptr<const RmwFunction> inc,
                     int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    const Value old = co_await ctx.rmw(0, inc);
    sum += old.is_nil() ? 0 : old.as_u64();
  }
  co_return Value::of_u64(sum);
}

std::shared_ptr<const RmwFunction> fetch_add1() {
  return make_rmw("fetch&add1", [](const Value& v) {
    return Value::of_u64(v.is_nil() ? 1 : v.as_u64() + 1);
  });
}

std::uint64_t result_sum(const HwRunResult& run) {
  std::uint64_t sum = 0;
  for (const Value& v : run.results) {
    if (v.holds_u64()) sum += v.as_u64();
  }
  return sum;
}

TEST(HwOversubTest, CounterIsExact) {
  const int m = 16;
  const int ops = 8;
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubscribedExecutor exec(pool(2, 7));
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
  EXPECT_EQ(run.sched.num_threads, 2);
  EXPECT_EQ(run.sched.num_procs, m);
  // Every process was started (and possibly resumed) by the pool.
  EXPECT_GE(run.sched.resumes, static_cast<std::uint64_t>(m));
}

TEST(HwOversubTest, PerCarrierCountersSumToEveryInstall) {
  // The backoff and width counters live per carrier slot, 4 for 64
  // processes. Every fetch&add lands exactly once, so the merged counters
  // must equal M·n: a counter lost on a carrier, or counted on two, shows.
  const int m = 64;
  const int ops = 8;
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  auto inc = fetch_add1();
  OversubscribedExecutor exec(pool(4, 3));
  const HwRunResult run = exec.run(m, [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  });
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.sched.num_threads, 4);
  EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
  EXPECT_EQ(run.backoff.cas_successes, total);
  EXPECT_EQ(run.width.writes_inspected, total);
  EXPECT_EQ(run.width.inline_installs + run.width.boxed_installs, total);
}

TEST(HwOversubTest, EveryOpPolicyYieldsOncePerSharedOp) {
  // One process, one carrier: each of the `ops` RMWs suspends the
  // coroutine exactly once, so the scheduler counters are fully
  // deterministic.
  const int ops = 8;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  OversubscribedExecutor exec(pool(1, 1));
  const HwRunResult run = exec.run(1, body);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.sched.yields, static_cast<std::uint64_t>(ops));
  EXPECT_EQ(run.sched.resumes, static_cast<std::uint64_t>(ops) + 1);
  EXPECT_EQ(run.sched.steals, 0u);
}

TEST(HwOversubTest, TossStreamsAreMigrationSafe) {
  // Toss outcomes are pure in (seed, p, j) and each Process carries its
  // own toss counter, so the per-process results must be identical on the
  // 1:1 executor and on every pool shape — and across repeated
  // oversubscribed runs, whatever interleaving the OS picks.
  const int m = 16;
  const ProcBody body = [](ProcCtx ctx, ProcId, int) {
    return toss_sum_body(ctx);
  };
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    HwRunOptions one_to_one;
    one_to_one.seed = seed;
    HwExecutor baseline(one_to_one);
    const HwRunResult ref = baseline.run(m, body);
    ASSERT_TRUE(ref.ok);
    for (const int num_threads : {1, 2, 4}) {
      OversubscribedExecutor exec(pool(num_threads, seed));
      const HwRunResult run = exec.run(m, body);
      ASSERT_TRUE(run.ok) << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.results, ref.results)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.num_tosses, ref.num_tosses)
          << "seed=" << seed << " N=" << num_threads;
      EXPECT_EQ(run.shared_ops, ref.shared_ops)
          << "seed=" << seed << " N=" << num_threads;
    }
    // Replay determinism: the same pool shape again, bit-for-bit.
    OversubscribedExecutor again(pool(2, seed));
    const HwRunResult replay = again.run(m, body);
    EXPECT_EQ(replay.results, ref.results) << "seed=" << seed;
  }
}

TEST(HwOversubTest, WatchdogScalesStagnationWindowWithOversubFactor) {
  // The false-hung regression: M = 32 logical processes share N = 2
  // carriers, and every op stalls 8 ms, so the pool's global progress
  // counter can sit still for ~one whole stall — longer than the raw
  // 5 ms stagnation window. The watchdog must scale the window by
  // ⌈M/N⌉ = 16 (run_support.h) or this perfectly healthy run is
  // cancelled as hung.
  const int m = 32;
  const int ops = 3;
  auto inc = fetch_add1();
  const ProcBody body = [&](ProcCtx ctx, ProcId, int) {
    return counter_body(ctx, inc, ops);
  };
  FaultPlan plan;
  plan.seed = 11;
  plan.stall_rate = 1.0;
  plan.max_stall_units = 1;
  plan.stall_unit_ns = 8'000'000;  // 8 ms per op
  OversubRunOptions options = pool(2, 11);
  options.fault = &plan;
  options.progress_timeout_ms = scale_timeout_ms(5);
  options.timeout_ms = scale_timeout_ms(30'000);  // backstop only
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  EXPECT_FALSE(run.cancelled);
  ASSERT_TRUE(run.ok);
  const std::uint64_t total = static_cast<std::uint64_t>(m) * ops;
  EXPECT_EQ(result_sum(run), total * (total - 1) / 2);
}

TEST(HwOversubTest, AdaptiveFaultStressIsExactUnderOversubscription) {
  // The TSan-facing stress leg: M = 64 processes on 4 carriers running
  // the contended fixed LL/SC scenario while an adaptive adversary
  // spends a fault budget on the observed history. The fixed op stream
  // means forced SC failures never add retries, so the run must stay
  // clean and fully accounted whatever the interleaving.
  const int m = 64;
  const ProcBody body = fault_scenario("fixed_ll_sc");
  FaultPlan plan;
  plan.seed = 23;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 16;
  OversubRunOptions options = pool(4, 23);
  options.fault = &plan;
  OversubscribedExecutor exec(options);
  const HwRunResult run = exec.run(m, body);
  ASSERT_TRUE(run.ok);
  ASSERT_EQ(static_cast<int>(run.proc_status.size()), m);
  for (ProcId p = 0; p < m; ++p) {
    EXPECT_EQ(run.proc_status[static_cast<std::size_t>(p)],
              HwProcOutcome::kDone);
    EXPECT_GT(run.shared_ops[static_cast<std::size_t>(p)], 0u);
  }
  EXPECT_LE(run.fault.injected_sc_failures, plan.fault_budget);
  EXPECT_GE(run.sched.resumes, static_cast<std::uint64_t>(m));
}

// The ABA probe on the pool: client 0 writes 0 to register 0 and links
// it, then holds the link across yields while the other clients complete one full tag period
// of fetch&add-mod-period writes, which leaves the register on the linked
// value. Client 0's VL and SC must still fail (paper §3).
struct LinkProbe {
  std::atomic<bool> linked{false};
  std::atomic<int> writers_done{0};
};

constexpr int kProbeWriters = 5;
constexpr std::uint64_t kProbeWritesEach = kInlineTagPeriod / kProbeWriters;
static_assert(kProbeWritesEach * kProbeWriters == kInlineTagPeriod);

// Returns 2 * VL flag + SC flag; 0 is the only correct outcome.
SimTask link_holder_body(ProcCtx ctx, LinkProbe* probe) {
  (void)co_await ctx.swap(0, Value::of_u64(0));
  (void)co_await ctx.ll(0);
  probe->linked.store(true, std::memory_order_release);
  for (;;) {
    if (probe->writers_done.load(std::memory_order_acquire) ==
        kProbeWriters) {
      break;
    }
    co_await ctx.yield();
  }
  const VlResult vl = co_await ctx.validate(0);
  const ScResult sc = co_await ctx.sc(0, Value::of_u64(1));
  co_return Value::of_u64((vl.ok ? 2u : 0u) + (sc.ok ? 1u : 0u));
}

SimTask period_writer_body(ProcCtx ctx, LinkProbe* probe,
                           std::shared_ptr<const RmwFunction> step) {
  for (;;) {
    if (probe->linked.load(std::memory_order_acquire)) break;
    co_await ctx.yield();
  }
  for (std::uint64_t k = 0; k < kProbeWritesEach; ++k) {
    (void)co_await ctx.rmw(0, step);
  }
  probe->writers_done.fetch_add(1, std::memory_order_release);
  co_return Value::of_u64(0);
}

TEST(HwOversubTest, LinkHeldAcrossATagPeriodOfWritesStaysDead) {
  LinkProbe probe;
  // kInlineTagPeriod steps of x -> (x + 1) mod kInlineTagPeriod bring the
  // register back to the value client 0 linked, whatever their order.
  const auto step = make_rmw("inc_mod_period", [](const Value& v) {
    return Value::of_u64((v.as_u64() + 1) % kInlineTagPeriod);
  });
  const ProcBody body = [&](ProcCtx ctx, ProcId i, int) {
    if (i == 0) return link_holder_body(ctx, &probe);
    return period_writer_body(ctx, &probe, step);
  };
  OversubscribedExecutor exec(pool(2, 5));
  const HwRunResult run = exec.run(1 + kProbeWriters, body);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.results[0].as_u64(), 0u)
      << "2 = VL passed, 1 = SC passed, 3 = both";
  EXPECT_EQ(run.width.overflow_events, 0u);
}

}  // namespace
}  // namespace llsc
