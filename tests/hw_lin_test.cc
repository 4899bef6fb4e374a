// Linearizability smoke test on the hw backend: a genuinely concurrent
// queue history produced by GroupUpdateUC on HwExecutor, recorded with the
// thread-safe recorder and fed through the src/lin checker — plus
// linearizability UNDER SPURIOUS SC FAILURES. The wait-free universal
// constructions assume the helping lemma and abort when an injected
// failure voids it, so those fault legs use DirectFetchAdd's lock-free
// LL/SC retry loop: a spurious SC failure there is indistinguishable from
// losing the race, costing only a retry. CombiningUniversal is lock-free
// the same way — a lost SC only delays a batch — so it gets its own fault
// legs: histories through the announce/toggle/combine protocol must stay
// linearizable under oblivious and adaptive injection, and the sequence
// numbers in the announce slots must prevent double-application (each
// announced op's return value observed exactly once). The checker then
// proves the safety half of the fault model: injected failures are false
// NEGATIVES only — they may delay an operation, never corrupt one.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "direct/direct.h"
#include "hw/fault.h"
#include "hw/hw_executor.h"
#include "lin/checker.h"
#include "lin/history.h"
#include "memory/storage_policy.h"
#include "objects/arith.h"
#include "objects/containers.h"
#include "objects/leader.h"
#include "objects/tas.h"
#include "universal/combining.h"
#include "universal/group_update.h"
#include "util/check.h"

namespace llsc {
namespace {

// Each process enqueues two tagged values and then dequeues twice. The
// free coroutine shape is required by the GCC 12 notes in runtime/sim_task.h.
SimTask queue_workload(ProcCtx ctx, ConcurrentHistoryRecorder* rec) {
  // ObjOps are hoisted out of the co_await full-expressions — see the
  // GCC 12 braced-init note in runtime/sim_task.h.
  const std::uint64_t base = static_cast<std::uint64_t>(ctx.id()) * 100;
  ObjOp enq1{"enqueue", Value::of_u64(base + 1)};
  ObjOp enq2{"enqueue", Value::of_u64(base + 2)};
  ObjOp deq1{"dequeue", {}};
  ObjOp deq2{"dequeue", {}};
  Value v = co_await rec->execute(ctx, std::move(enq1));
  v = co_await rec->execute(ctx, std::move(enq2));
  v = co_await rec->execute(ctx, std::move(deq1));
  v = co_await rec->execute(ctx, std::move(deq2));
  co_return v;
}

History record_hw_queue_history(int n, std::uint64_t seed) {
  GroupUpdateUC uc(n, [] { return std::make_unique<QueueObject>(); });
  ConcurrentHistoryRecorder rec(uc, n);
  HwRunOptions opts;
  opts.seed = seed;
  HwExecutor exec(opts);
  const HwRunResult run = exec.run(n, [&rec](ProcCtx ctx, ProcId, int) {
    return queue_workload(ctx, &rec);
  });
  EXPECT_TRUE(run.ok);
  return rec.history();
}

TEST(HwLinTest, ConcurrentQueueHistoryIsLinearizable) {
  const ObjectFactory factory = [] { return std::make_unique<QueueObject>(); };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const History hist = record_hw_queue_history(/*n=*/3, seed);
    ASSERT_EQ(hist.ops.size(), 12u);
    const LinResult lin = check_linearizability(hist, factory);
    EXPECT_TRUE(lin.search_exhausted);
    EXPECT_TRUE(lin.linearizable) << hist.to_string();
  }
}

TEST(HwLinTest, CheckerRejectsCorruptedHwHistory) {
  const ObjectFactory factory = [] { return std::make_unique<QueueObject>(); };
  History hist = record_hw_queue_history(/*n=*/3, /*seed=*/1);
  // Forge a response no linearization of a FIFO queue can produce.
  for (HistOp& op : hist.ops) {
    if (op.op.name == "dequeue") {
      op.response = Value::of_u64(424242);
      break;
    }
  }
  const LinResult lin = check_linearizability(hist, factory);
  EXPECT_FALSE(lin.linearizable);
}

// --- linearizability under injected SC failures --------------------------
//
// A spurious SC loss is decided purely in (plan.seed, p, k) and substitutes
// a read-only probe, so injection behaves identically over inline words and
// demoted registers' nodes (memory/storage_policy.h).

constexpr int kFaultProcs = 3;
constexpr int kFetchAddsPerProc = 4;

SimTask fetch_add_workload(ProcCtx ctx, ConcurrentHistoryRecorder* rec) {
  Value v;
  for (int k = 0; k < kFetchAddsPerProc; ++k) {
    ObjOp op{"fetch&increment", {}};
    v = co_await rec->execute(ctx, std::move(op));
  }
  co_return v;
}

// Records a concurrent fetch&add history over DirectFetchAdd's LL/SC
// retry loop while `plan` injects spurious SC failures.
History record_faulted_fetch_add_history(std::uint64_t seed,
                                         const FaultPlan& plan,
                                         FaultStats* stats) {
  DirectFetchAdd fa(/*reg=*/0, /*initial=*/0);
  ConcurrentHistoryRecorder rec(fa, kFaultProcs);
  HwRunOptions opts;
  opts.seed = seed;
  opts.fault = plan.enabled() ? &plan : nullptr;
  HwExecutor exec(opts);
  const HwRunResult run =
      exec.run(kFaultProcs, [&rec](ProcCtx ctx, ProcId, int) {
        return fetch_add_workload(ctx, &rec);
      });
  EXPECT_TRUE(run.ok);
  if (stats != nullptr) *stats = run.fault;
  return rec.history();
}

void expect_faulted_history_linearizable(const FaultPlan& plan) {
  const ObjectFactory factory = [] {
    return std::make_unique<FetchAddObject>(64, 0);
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FaultStats stats;
    const History hist =
        record_faulted_fetch_add_history(seed, plan, &stats);
    ASSERT_EQ(hist.ops.size(),
              static_cast<std::size_t>(kFaultProcs * kFetchAddsPerProc));
    // The injection actually happened — without it the test is vacuous.
    EXPECT_GT(stats.injected_sc_failures, 0u);
    const LinResult lin = check_linearizability(hist, factory);
    EXPECT_TRUE(lin.search_exhausted);
    EXPECT_TRUE(lin.linearizable) << hist.to_string();
  }
}

TEST(HwLinFaultTest, FetchAddHistoryUnderObliviousScFailuresIsLinearizable) {
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.4;
  expect_faulted_history_linearizable(plan);
}

TEST(HwLinFaultTest, FetchAddHistoryUnderAdaptiveAdversaryIsLinearizable) {
  FaultPlan plan;
  plan.seed = 7;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 6;
  expect_faulted_history_linearizable(plan);
}

// --- CombiningUniversal under injected SC failures -----------------------
//
// Lock-free like DirectFetchAdd, so the full strict protocol (announce,
// toggle flip retry, combine-until-applied) runs to completion under
// injection: a spurious SC loss delays a batch, never drops it.

History record_faulted_combining_history(std::uint64_t seed,
                                         const FaultPlan& plan,
                                         FaultStats* stats) {
  CombiningUniversal uc(kFaultProcs, [] {
    return std::make_unique<FetchAddObject>(64, 0);
  });
  ConcurrentHistoryRecorder rec(uc, kFaultProcs);
  HwRunOptions opts;
  opts.seed = seed;
  opts.fault = plan.enabled() ? &plan : nullptr;
  HwExecutor exec(opts);
  const HwRunResult run =
      exec.run(kFaultProcs, [&rec](ProcCtx ctx, ProcId, int) {
        return fetch_add_workload(ctx, &rec);
      });
  EXPECT_TRUE(run.ok);
  if (stats != nullptr) *stats = run.fault;
  // The deliberate demote-on-overflow story: the structured state and
  // announce payloads demote their n + 1 registers, the ≤46-bit toggle
  // words never do.
  EXPECT_EQ(run.width.boxed_fallback_registers,
            static_cast<std::uint64_t>(kFaultProcs) + 1);
  return rec.history();
}

void expect_faulted_combining_history_sound(const FaultPlan& plan) {
  const ObjectFactory factory = [] {
    return std::make_unique<FetchAddObject>(64, 0);
  };
  constexpr std::size_t kTotal =
      static_cast<std::size_t>(kFaultProcs * kFetchAddsPerProc);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FaultStats stats;
    const History hist =
        record_faulted_combining_history(seed, plan, &stats);
    ASSERT_EQ(hist.ops.size(), kTotal);
    // The injection actually happened — without it the test is vacuous.
    EXPECT_GT(stats.injected_sc_failures, 0u);
    const LinResult lin = check_linearizability(hist, factory);
    EXPECT_TRUE(lin.search_exhausted);
    EXPECT_TRUE(lin.linearizable) << hist.to_string();
    // No-double-apply: a fetch&increment counter hands out each value at
    // most once, so the announced ops' return values must be exactly
    // {0, ..., kTotal-1}, each observed exactly once. A dropped op would
    // shrink the set; a double-applied one would skip a value and (for
    // two announcements of the same op) duplicate a response.
    std::map<std::uint64_t, int> seen;
    for (const HistOp& op : hist.ops) {
      ASSERT_TRUE(op.response.holds_u64()) << hist.to_string();
      ++seen[op.response.as_u64()];
    }
    ASSERT_EQ(seen.size(), kTotal) << hist.to_string();
    for (const auto& [value, count] : seen) {
      EXPECT_LT(value, kTotal);
      EXPECT_EQ(count, 1) << "response " << value << " observed " << count
                          << " times";
    }
  }
}

TEST(HwLinFaultTest, CombiningHistoryUnderObliviousScFailuresIsSound) {
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.4;
  expect_faulted_combining_history_sound(plan);
}

TEST(HwLinFaultTest, CombiningHistoryUnderAdaptiveAdversaryIsSound) {
  FaultPlan plan;
  plan.seed = 7;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 6;
  expect_faulted_combining_history_sound(plan);
}

// --- randomized TAS under injected faults --------------------------------
//
// The strict TAS protocol (objects/tas.h) is a one-shot object, not a
// universal construction — but its concurrent histories are exactly what
// the lin checker consumes. This adapter presents one tas_subtask call as
// the "test&set" operation of TasObject's sequential spec (returns the
// OLD value: 0 to the winner, 1 to everyone else). Safety is deterministic
// — the claim register is write-once — so the histories must linearize
// under ANY injection pressure; the fault legs check precisely that, plus
// non-vacuity. (Defined here, not in src/objects: the objects library
// stays independent of src/universal.)
class TasProtocolAdapter final : public UniversalConstruction {
 public:
  TasProtocolAdapter(int n, TasOptions options) : n_(n), options_(options) {}

  SubTask<Value> execute(ProcCtx ctx, ObjOp op) override {
    LLSC_EXPECTS(op.name == "test&set",
                 "TAS adapter implements only test&set");
    const Value won = co_await tas_subtask(ctx, options_);
    // tas_subtask reports "did I win"; test&set returns the old value.
    co_return Value::of_u64(won.as_u64() == 1 ? 0 : 1);
  }

  std::uint64_t worst_case_shared_ops() const override {
    return tas_fault_free_max_ops(n_);  // fault-free bound (strict body
                                        // retries under injection)
  }

  std::string name() const override { return "tas-protocol"; }

 private:
  const int n_;
  const TasOptions options_;
};

// Independent TAS (or leader) instances per recorded run, each at its own
// register base. The strict protocol issues a schedule-dependent number of
// SCs — an uncontended fast winner issues exactly one — so a single
// instance can finish without one injected failure, depending on which
// process wins the race. Every instance is checked on its own; the
// non-vacuity guard asks the run as a whole to have injected at least one
// failure. Each instance starts from a common start line: without it the
// threads tend to run the instances one after another in wakeup order,
// the same near-sequential schedule every time, and that schedule can
// dodge every injection.
constexpr int kTasInstances = 8;

TasOptions tas_instance(int k) {
  TasOptions options;
  options.base = k * TasLayout::make(kFaultProcs, 0).registers_used();
  return options;
}

// Host-side start line for instance k: spins (yielding the CPU) until all
// kFaultProcs processes have reached it, so every instance starts as a
// race among all of them instead of running in thread-wakeup order. Not a
// shared-memory step; relies on HwExecutor's one thread per process.
void await_start_line(std::atomic<int>* arrived, int k) {
  arrived->fetch_add(1, std::memory_order_acq_rel);
  while (arrived->load(std::memory_order_acquire) < (k + 1) * kFaultProcs) {
    std::this_thread::yield();
  }
}

SimTask tas_workload(
    ProcCtx ctx,
    std::vector<std::unique_ptr<ConcurrentHistoryRecorder>>* recs,
    std::atomic<int>* arrived) {
  for (std::size_t k = 0; k < recs->size(); ++k) {
    await_start_line(arrived, static_cast<int>(k));
    ObjOp op{"test&set", {}};
    (void)co_await (*recs)[k]->execute(ctx, std::move(op));
  }
  co_return Value::of_u64(0);
}

// One history per TAS instance.
std::vector<History> record_faulted_tas_histories(std::uint64_t seed,
                                                  const FaultPlan& plan,
                                                  FaultStats* stats) {
  std::vector<std::unique_ptr<TasProtocolAdapter>> tas;
  std::vector<std::unique_ptr<ConcurrentHistoryRecorder>> recs;
  for (int k = 0; k < kTasInstances; ++k) {
    tas.push_back(
        std::make_unique<TasProtocolAdapter>(kFaultProcs, tas_instance(k)));
    recs.push_back(
        std::make_unique<ConcurrentHistoryRecorder>(*tas.back(), kFaultProcs));
  }
  HwRunOptions opts;
  opts.seed = seed;
  opts.fault = plan.enabled() ? &plan : nullptr;
  HwExecutor exec(opts);
  std::atomic<int> arrived{0};
  const HwRunResult run =
      exec.run(kFaultProcs, [&recs, &arrived](ProcCtx ctx, ProcId, int) {
        return tas_workload(ctx, &recs, &arrived);
      });
  EXPECT_TRUE(run.ok);
  if (stats != nullptr) *stats = run.fault;
  std::vector<History> histories;
  for (auto& rec : recs) histories.push_back(rec->history());
  return histories;
}

void expect_faulted_tas_history_linearizable(const FaultPlan& plan) {
  const ObjectFactory factory = [] { return std::make_unique<TasObject>(); };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FaultStats stats;
    const std::vector<History> histories =
        record_faulted_tas_histories(seed, plan, &stats);
    // The injection actually happened — without it the test is vacuous.
    EXPECT_GT(stats.injected_sc_failures, 0u) << "seed=" << seed;
    for (const History& hist : histories) {
      ASSERT_EQ(hist.ops.size(), static_cast<std::size_t>(kFaultProcs));
      // Exactly one winner in the raw responses (old value 0), before even
      // asking the checker: the protocol's deterministic-safety claim.
      int winners = 0;
      for (const HistOp& op : hist.ops) {
        ASSERT_TRUE(op.response.holds_u64());
        if (op.response.as_u64() == 0) ++winners;
      }
      EXPECT_EQ(winners, 1) << hist.to_string();
      const LinResult lin = check_linearizability(hist, factory);
      EXPECT_TRUE(lin.search_exhausted);
      EXPECT_TRUE(lin.linearizable) << hist.to_string();
    }
  }
}

TEST(HwLinFaultTest, TasHistoryUnderObliviousScFailuresIsLinearizable) {
  FaultPlan plan;
  plan.seed = 7;
  plan.sc_fail_rate = 0.4;
  expect_faulted_tas_history_linearizable(plan);
}

TEST(HwLinFaultTest, TasHistoryUnderAdaptiveAdversaryIsLinearizable) {
  FaultPlan plan;
  plan.seed = 7;
  plan.strategy = FaultStrategyKind::kAdaptive;
  plan.fault_budget = 6;
  expect_faulted_tas_history_linearizable(plan);
}

// Leader election rides the same claim register: under the same injection
// pressure every process must report the SAME elected id (agreement is
// the object's whole spec — no history search needed, the responses are
// the proof obligation). leaders[k][p] is process p's answer for
// instance k.
SimTask leader_workload(ProcCtx ctx, std::vector<std::vector<Value>>* leaders,
                        std::atomic<int>* arrived) {
  for (int k = 0; k < kTasInstances; ++k) {
    await_start_line(arrived, k);
    const TasOptions options = tas_instance(k);
    const Value leader = co_await leader_subtask(ctx, options);
    (*leaders)[static_cast<std::size_t>(k)]
              [static_cast<std::size_t>(ctx.id())] = leader;
  }
  co_return Value::of_u64(0);
}

TEST(HwLinFaultTest, LeaderElectionUnderFaultsAgreesOnOneLeader) {
  FaultPlan plan;
  plan.seed = 9;
  plan.sc_fail_rate = 0.4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    HwRunOptions opts;
    opts.seed = seed;
    opts.fault = &plan;
    HwExecutor exec(opts);
    std::vector<std::vector<Value>> leaders(
        kTasInstances, std::vector<Value>(kFaultProcs));
    std::atomic<int> arrived{0};
    const HwRunResult run = exec.run(
        kFaultProcs, [&leaders, &arrived](ProcCtx ctx, ProcId, int) {
          return leader_workload(ctx, &leaders, &arrived);
        });
    ASSERT_TRUE(run.ok);
    EXPECT_GT(run.fault.injected_sc_failures, 0u) << "seed=" << seed;
    for (const std::vector<Value>& answers : leaders) {
      ASSERT_TRUE(answers[0].holds_u64());
      const std::uint64_t leader = answers[0].as_u64();
      EXPECT_LT(leader, static_cast<std::uint64_t>(kFaultProcs));
      for (ProcId p = 1; p < kFaultProcs; ++p) {
        ASSERT_TRUE(answers[p].holds_u64());
        EXPECT_EQ(answers[p].as_u64(), leader) << "p" << p << " disagrees";
      }
    }
  }
}

// The memory-level invariant behind those lin checks: a spurious failure
// is a false negative only. In one LL epoch two SCs can never BOTH
// succeed — the first success consumes the link, and an injected failure
// also erases it — under any injection pressure.
SimTask double_sc_workload(ProcCtx ctx, ProcId i, int) {
  constexpr int kEpochs = 8;
  std::uint64_t both_succeeded = 0;
  for (int k = 0; k < kEpochs; ++k) {
    (void)co_await ctx.ll(0);
    const ScResult first = co_await ctx.sc(
        0, Value::of_u64(static_cast<std::uint64_t>(i) * 100 + 1));
    const ScResult second = co_await ctx.sc(
        0, Value::of_u64(static_cast<std::uint64_t>(i) * 100 + 2));
    if (first.ok && second.ok) ++both_succeeded;
  }
  co_return Value::of_u64(both_succeeded);
}

TEST(HwLinFaultTest, SpuriousFailuresNeverYieldTwoSuccessfulScsPerEpoch) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.sc_fail_rate = 0.9;
    HwRunOptions opts;
    opts.seed = seed;
    opts.fault = &plan;
    HwExecutor exec(opts);
    const HwRunResult run = exec.run(kFaultProcs, &double_sc_workload);
    ASSERT_TRUE(run.ok);
    EXPECT_GT(run.fault.injected_sc_failures, 0u);
    for (ProcId p = 0; p < kFaultProcs; ++p) {
      ASSERT_TRUE(run.results[p].holds_u64());
      EXPECT_EQ(run.results[p].as_u64(), 0u)
          << "proc " << p << " saw two successful SCs in one LL epoch";
    }
  }
}

TEST(HwLinTest, RecorderStampsRespectRealTime) {
  const History hist = record_hw_queue_history(/*n=*/3, /*seed=*/2);
  for (const HistOp& op : hist.ops) {
    EXPECT_LT(op.inv_time, op.resp_time);
  }
  // Program order per process survives the merge.
  for (ProcId p = 0; p < 3; ++p) {
    const auto idx = hist.by_process(p);
    ASSERT_EQ(idx.size(), 4u);
    for (std::size_t k = 1; k < idx.size(); ++k) {
      EXPECT_LT(hist.ops[idx[k - 1]].resp_time, hist.ops[idx[k]].inv_time);
    }
  }
}

}  // namespace
}  // namespace llsc
