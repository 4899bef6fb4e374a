// Tests for the type-exploiting implementations (src/direct) and the
// Section 7 unit-time RMW universal construction: correctness, exact
// shared-op costs, linearizability, and the adversary's refusal to
// schedule RMW steps.
#include <gtest/gtest.h>

#include "core/adversary.h"
#include "direct/direct.h"
#include "direct/rmw_universal.h"
#include "lin/checker.h"
#include "lin/history.h"
#include "objects/arith.h"
#include "objects/basic.h"
#include "objects/containers.h"
#include "sched/scheduler.h"

namespace llsc {
namespace {

SimTask one_op_worker(ProcCtx ctx, UniversalConstruction* impl, ObjOp op) {
  const Value r = co_await impl->execute(ctx, std::move(op));
  co_return r;
}

TEST(DirectRegister, ReadWriteSingleOpEach) {
  DirectRegister reg(5);
  System sys(2, [&reg](ProcCtx ctx, ProcId i, int) {
    ObjOp op = i == 0 ? ObjOp{"write", Value::of_u64(7)}
                      : ObjOp{"read", {}};
    return one_op_worker(ctx, &reg, std::move(op));
  });
  SequentialScheduler sched;  // p0 writes, then p1 reads
  ASSERT_TRUE(sched.run(sys, 100).all_terminated);
  EXPECT_EQ(sys.process(1).result().as_u64(), 7u);
  EXPECT_EQ(sys.process(0).shared_ops(), 1u);
  EXPECT_EQ(sys.process(1).shared_ops(), 1u);
}

TEST(DirectSwapObject, SwapChainsValues) {
  DirectSwapObject obj(9);
  const int n = 4;
  System sys(n, [&obj](ProcCtx ctx, ProcId i, int) {
    ObjOp op{"swap", Value::of_u64(static_cast<std::uint64_t>(i) + 100)};
    return one_op_worker(ctx, &obj, std::move(op));
  });
  SequentialScheduler sched;
  ASSERT_TRUE(sched.run(sys, 100).all_terminated);
  // Sequential: p0 gets nil, p_k gets p_{k-1}'s value; each pays 1 op.
  EXPECT_TRUE(sys.process(0).result().is_nil());
  for (ProcId p = 1; p < n; ++p) {
    EXPECT_EQ(sys.process(p).result().as_u64(),
              static_cast<std::uint64_t>(p) + 99);
    EXPECT_EQ(sys.process(p).shared_ops(), 1u);
  }
}

class DirectConsensusSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DirectConsensusSweep, AgreementValidityWaitFree) {
  const int n = std::get<0>(GetParam());
  const int sched_kind = std::get<1>(GetParam());
  DirectConsensus cons(3);
  System sys(n, [&cons](ProcCtx ctx, ProcId i, int) {
    ObjOp op{"propose", Value::of_u64(static_cast<std::uint64_t>(i) + 50)};
    return one_op_worker(ctx, &cons, std::move(op));
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
          static_cast<std::uint64_t>(n) * 17);
      break;
  }
  ASSERT_TRUE(sched->run(sys, 10000).all_terminated);
  // Agreement: all decide the same value. Validity: it was proposed.
  const std::uint64_t decision = sys.process(0).result().as_u64();
  EXPECT_GE(decision, 50u);
  EXPECT_LT(decision, 50u + static_cast<std::uint64_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(sys.process(p).result().as_u64(), decision);
    EXPECT_LE(sys.process(p).shared_ops(), cons.worst_case_shared_ops());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirectConsensusSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 9, 17),
                       ::testing::Values(0, 1, 2)));

TEST(DirectFetchAdd, CorrectUnderContentionButLinearUnderAdversary) {
  const int n = 16;
  DirectFetchAdd counter(0);
  System sys(n, [&counter](ProcCtx ctx, ProcId, int) {
    ObjOp op{"fetch&increment", {}};
    return one_op_worker(ctx, &counter, std::move(op));
  });
  const RunLog log = run_adversary(sys);
  ASSERT_TRUE(log.all_terminated);
  // Each response 0..n-1 exactly once.
  std::set<std::uint64_t> seen;
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_TRUE(seen.insert(sys.process(p).result().as_u64()).second);
  }
  EXPECT_EQ(*seen.rbegin(), static_cast<std::uint64_t>(n - 1));
  // Lock-free, not wait-free: the adversary forces Θ(n) on someone.
  EXPECT_GE(sys.max_shared_ops(), static_cast<std::uint64_t>(n));
}

TEST(RmwUniversal, OneSharedOpPerOperation) {
  const int n = 8;
  RmwUniversalUC uc(n, [] { return std::make_unique<FetchAddObject>(64); });
  System sys(n, [&uc](ProcCtx ctx, ProcId, int) {
    ObjOp op{"fetch&increment", {}};
    return one_op_worker(ctx, &uc, std::move(op));
  });
  RandomScheduler sched(5);
  ASSERT_TRUE(sched.run(sys, 10000).all_terminated);
  std::uint64_t total = 0;
  for (ProcId p = 0; p < n; ++p) {
    total += sys.process(p).result().as_u64();
    // Section 7: unit worst-case shared-access time complexity.
    EXPECT_EQ(sys.process(p).shared_ops(), 1u);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(n * (n - 1) / 2));
}

SimTask enq_deq_worker(ProcCtx c, ProcId me, ConcurrentHistoryRecorder* q) {
  ObjOp enq{"enqueue", Value::of_u64(static_cast<std::uint64_t>(me))};
  (void)co_await q->execute(c, std::move(enq));
  ObjOp deq{"dequeue", {}};
  const Value r = co_await q->execute(c, std::move(deq));
  co_return r;
}

TEST(RmwUniversal, ObliviouslyImplementsQueue) {
  const int n = 4;
  RmwUniversalUC uc(n, [] { return std::make_unique<QueueObject>(); });
  ConcurrentHistoryRecorder recorder(uc, n);
  System sys(n, [&recorder](ProcCtx ctx, ProcId i, int) {
    return enq_deq_worker(ctx, i, &recorder);
  });
  RandomScheduler sched(77);
  ASSERT_TRUE(sched.run(sys, 10000).all_terminated);
  const LinResult lin = check_linearizability(
      recorder.history(), [] { return std::make_unique<QueueObject>(); });
  EXPECT_TRUE(lin.linearizable) << recorder.history().to_string();
}

SimTask rmw_under_adversary(ProcCtx ctx) {
  const Value v = co_await ctx.rmw(
      0, make_rmw("inc", [](const Value& cur) {
        return Value::of_u64(cur.is_nil() ? 1 : cur.as_u64() + 1);
      }));
  co_return v;
}

TEST(RmwDeath, AdversaryRefusesRmwSteps) {
  // Theorem 6.1's adversary is defined for LL/SC/VL/swap/move only; an
  // algorithm that issues RMW under it is a contract violation.
  System sys(2, [](ProcCtx ctx, ProcId, int) {
    return rmw_under_adversary(ctx);
  });
  EXPECT_DEATH(run_adversary(sys), "RMW is outside");
}

TEST(Rmw, WorksUnderGenericSchedulers) {
  const int n = 5;
  System sys(n, [](ProcCtx ctx, ProcId, int) {
    return rmw_under_adversary(ctx);
  });
  RoundRobinScheduler sched;
  ASSERT_TRUE(sched.run(sys, 1000).all_terminated);
  // Each RMW returned the old counter value; all distinct.
  std::set<std::uint64_t> seen;
  for (ProcId p = 0; p < n; ++p) {
    const Value& r = sys.process(p).result();
    seen.insert(r.is_nil() ? 0 : r.as_u64());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(sys.memory().counts()[OpKind::kRmw],
            static_cast<std::uint64_t>(n));
}

TEST(DirectDeath, WrongOperationRejected) {
  DirectRegister reg(0);
  System sys(1, [&reg](ProcCtx ctx, ProcId, int) {
    ObjOp op{"dequeue", {}};
    return one_op_worker(ctx, &reg, std::move(op));
  });
  RoundRobinScheduler sched;
  EXPECT_DEATH(sched.run(sys, 100), "read/write only");
}

}  // namespace
}  // namespace llsc
