// Tests for the Herlihy-style consensus-based universal construction:
// correctness under schedulers and the adversary, linearizability,
// long-lived multi-op use, and the O(n) worst-case bound.
#include "universal/consensus_based.h"

#include <gtest/gtest.h>

#include <set>

#include "core/adversary.h"
#include "lin/checker.h"
#include "lin/history.h"
#include "objects/arith.h"
#include "objects/containers.h"
#include "sched/scheduler.h"
#include "wakeup/reductions.h"
#include "wakeup/spec.h"

namespace llsc {
namespace {

ObjectFactory counter_factory() {
  return [] { return std::make_unique<FetchAddObject>(64, 0); };
}

SimTask fai_worker(ProcCtx ctx, UniversalConstruction* uc, int ops) {
  std::uint64_t sum = 0;
  for (int k = 0; k < ops; ++k) {
    ObjOp op{"fetch&increment", {}};
    const Value r = co_await uc->execute(ctx, std::move(op));
    sum += r.as_u64();
  }
  co_return Value::of_u64(sum);
}

class ConsensusUcSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConsensusUcSweep, FetchIncrementExactlyOnce) {
  const int n = std::get<0>(GetParam());
  const int ops = std::get<1>(GetParam());
  const int sched_kind = std::get<2>(GetParam());

  ConsensusBasedUC uc(n, counter_factory());
  System sys(n, [&uc, ops](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, ops);
  });
  std::unique_ptr<Scheduler> sched;
  switch (sched_kind) {
    case 0:
      sched = std::make_unique<RoundRobinScheduler>();
      break;
    case 1:
      sched = std::make_unique<SequentialScheduler>();
      break;
    default:
      sched = std::make_unique<RandomScheduler>(
          static_cast<std::uint64_t>(n * 31 + ops));
      break;
  }
  ASSERT_TRUE(sched->run(sys, 1 << 24).all_terminated);
  std::uint64_t total = 0;
  for (ProcId p = 0; p < n; ++p) total += sys.process(p).result().as_u64();
  const std::uint64_t count = static_cast<std::uint64_t>(n) * ops;
  EXPECT_EQ(total, count * (count - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsensusUcSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8), ::testing::Values(1, 3),
                       ::testing::Values(0, 1, 2)));

TEST(ConsensusUc, WaitFreeUnderAdversaryWithinBound) {
  const int n = 12;
  ConsensusBasedUC uc(n, counter_factory());
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, 1);
  });
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_LE(sys.process(p).shared_ops(), uc.worst_case_shared_ops())
        << "p" << p;
  }
  // The related-work claim [25]: consensus-based oblivious constructions
  // pay Ω(n); the adversary indeed forces a linear-in-n cost on someone.
  EXPECT_GE(sys.max_shared_ops(), static_cast<std::uint64_t>(n));
}

SimTask queue_worker(ProcCtx ctx, ConcurrentHistoryRecorder* rec, ProcId me) {
  ObjOp enq{"enqueue", Value::of_u64(static_cast<std::uint64_t>(me))};
  (void)co_await rec->execute(ctx, std::move(enq));
  ObjOp deq{"dequeue", {}};
  const Value r = co_await rec->execute(ctx, std::move(deq));
  co_return r;
}

TEST(ConsensusUc, LinearizableQueueHistories) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const int n = 4;
    ConsensusBasedUC uc(n, [] { return std::make_unique<QueueObject>(); });
    ConcurrentHistoryRecorder recorder(uc, n);
    System sys(n, [&recorder](ProcCtx ctx, ProcId i, int) {
      return queue_worker(ctx, &recorder, i);
    });
    RandomScheduler sched(seed);
    ASSERT_TRUE(sched.run(sys, 1 << 22).all_terminated);
    const LinResult lin = check_linearizability(
        recorder.history(), [] { return std::make_unique<QueueObject>(); });
    EXPECT_TRUE(lin.linearizable) << recorder.history().to_string();
  }
}

TEST(ConsensusUc, SolvesWakeupReductions) {
  for (const char* name : {"fetch&increment", "queue"}) {
    const int n = 6;
    ConsensusBasedUC uc(n, reduction_object_factory(name, n));
    System sys(n, reduction_wakeup_body(name, uc));
    const RunLog log = run_adversary(sys);
    ASSERT_TRUE(log.all_terminated) << name;
    const WakeupCheckResult check = check_wakeup_run(sys);
    EXPECT_TRUE(check.ok) << name << ": " << check.violations.front();
  }
}

TEST(ConsensusUc, SoloOperationIsCheap) {
  // Without contention an op costs a handful of steps (announce, one
  // consensus cell, response replayed locally).
  ConsensusBasedUC uc(1, counter_factory());
  System sys(1, [&uc](ProcCtx ctx, ProcId, int) {
    return fai_worker(ctx, &uc, 1);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  EXPECT_LE(sys.process(0).shared_ops(), 5u);
}

}  // namespace
}  // namespace llsc
