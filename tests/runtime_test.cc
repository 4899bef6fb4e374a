// Tests for the coroutine runtime: pending-step exposure, op/toss
// delivery, counters, SubTask nesting, toss assignments, System stepping.
#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/process.h"
#include "runtime/sub_task.h"
#include "runtime/system.h"
#include "runtime/toss.h"

namespace llsc {
namespace {

SimTask writer_body(ProcCtx ctx) {
  const Value old = co_await ctx.ll(0);
  (void)old;
  const ScResult sc = co_await ctx.sc(0, Value::of_u64(ctx.id() + 100));
  co_return Value::of_u64(sc.ok ? 1 : 0);
}

TEST(Runtime, PendingStepsVisibleToScheduler) {
  System sys(1, [](ProcCtx ctx, ProcId, int) { return writer_body(ctx); });
  Process& p = sys.process(0);
  EXPECT_EQ(p.step_kind(), StepKind::kNotStarted);
  sys.step(0);  // start: runs to the first suspension
  ASSERT_EQ(p.step_kind(), StepKind::kOp);
  EXPECT_EQ(p.pending_op().kind, OpKind::kLL);
  EXPECT_EQ(p.pending_op().reg, 0u);
  sys.step(0);  // execute the LL
  ASSERT_EQ(p.step_kind(), StepKind::kOp);
  EXPECT_EQ(p.pending_op().kind, OpKind::kSC);
  sys.step(0);  // execute the SC
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.result().as_u64(), 1u);
  EXPECT_EQ(p.shared_ops(), 2u);
  EXPECT_EQ(p.num_tosses(), 0u);
}

SimTask tosser_body(ProcCtx ctx) {
  const std::uint64_t a = co_await ctx.toss(10);
  const std::uint64_t b = co_await ctx.toss(10);
  const std::uint64_t raw = co_await ctx.toss(0);
  co_return Value::of_u64(a * 100 + b * 10 + (raw % 10));
}

TEST(Runtime, TossesServedFromAssignment) {
  auto table = std::make_shared<TableTossAssignment>();
  table->set(0, 0, 3);
  table->set(0, 1, 17);  // reduced mod 10 -> 7
  table->set(0, 2, 42);  // raw
  System sys(1, [](ProcCtx ctx, ProcId, int) { return tosser_body(ctx); },
             table);
  while (!sys.all_done()) sys.step(0);
  EXPECT_EQ(sys.process(0).result().as_u64(), 372u);
  EXPECT_EQ(sys.process(0).num_tosses(), 3u);
  EXPECT_EQ(sys.process(0).shared_ops(), 0u);
}

TEST(Runtime, AdvanceThroughTossesStopsAtOp) {
  SimTask (*body)(ProcCtx) = [](ProcCtx ctx) -> SimTask {
    (void)co_await ctx.toss(2);
    (void)co_await ctx.toss(2);
    (void)co_await ctx.ll(0);
    co_return Value::of_u64(0);
  };
  System sys(1, [body](ProcCtx ctx, ProcId, int) { return body(ctx); });
  const std::uint64_t served = sys.advance_through_tosses(0);
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(sys.process(0).step_kind(), StepKind::kOp);
}

// A nested helper that performs two operations.
SubTask<Value> nested_two_ops(ProcCtx ctx, RegId r) {
  (void)co_await ctx.ll(r);
  const ScResult sc = co_await ctx.sc(r, Value::of_u64(7));
  co_return Value::of_u64(sc.ok ? 7 : 0);
}

// Doubly nested: calls nested_two_ops twice.
SubTask<Value> nested_outer(ProcCtx ctx) {
  const Value a = co_await nested_two_ops(ctx, 1);
  const Value b = co_await nested_two_ops(ctx, 2);
  co_return Value::of_u64(a.as_u64() + b.as_u64());
}

SimTask nesting_body(ProcCtx ctx) {
  const Value v = co_await nested_outer(ctx);
  (void)co_await ctx.validate(1);
  co_return v;
}

TEST(Runtime, SubTaskNestingSuspendsPerOperation) {
  System sys(1, [](ProcCtx ctx, ProcId, int) { return nesting_body(ctx); });
  int op_steps = 0;
  sys.step(0);  // start
  while (!sys.all_done()) {
    ASSERT_EQ(sys.process(0).step_kind(), StepKind::kOp);
    sys.step(0);
    ++op_steps;
  }
  EXPECT_EQ(op_steps, 5);  // 2 + 2 nested + 1 top-level validate
  EXPECT_EQ(sys.process(0).result().as_u64(), 14u);
  EXPECT_EQ(sys.process(0).shared_ops(), 5u);
}

TEST(Runtime, SeededAssignmentIsPure) {
  SeededTossAssignment a(99), b(99);
  for (ProcId p = 0; p < 4; ++p) {
    for (std::uint64_t j = 0; j < 10; ++j) {
      EXPECT_EQ(a.outcome(p, j), b.outcome(p, j));
    }
  }
  EXPECT_NE(a.outcome(0, 0), a.outcome(0, 1));
  EXPECT_NE(a.outcome(0, 0), a.outcome(1, 0));
  SeededTossAssignment c(100);
  EXPECT_NE(a.outcome(0, 0), c.outcome(0, 0));
}

TEST(Runtime, SystemTracksTraceAndClock) {
  System sys(2, [](ProcCtx ctx, ProcId, int) { return writer_body(ctx); });
  while (!sys.all_done()) {
    for (ProcId p = 0; p < 2; ++p) {
      if (!sys.process(p).done()) sys.step(p);
    }
  }
  // p0: LL, SC(success). p1: LL, SC — p1's SC fails (p0's SC cleared the
  // Pset), so p1 retries nothing (writer_body returns 0 on failure).
  EXPECT_EQ(sys.trace().size(), 4u);
  EXPECT_EQ(sys.process(0).result().as_u64(), 1u);
  EXPECT_EQ(sys.process(1).result().as_u64(), 0u);
  EXPECT_GT(sys.first_event(0), 0u);
  EXPECT_GT(sys.completion_event(1), sys.first_event(1));
}

TEST(Runtime, RecordingCanBeDisabled) {
  System sys(1, [](ProcCtx ctx, ProcId, int) { return writer_body(ctx); });
  sys.set_recording(false);
  while (!sys.all_done()) sys.step(0);
  EXPECT_TRUE(sys.trace().empty());
  EXPECT_EQ(sys.total_shared_ops(), 2u);
}

// A co_await keeps its awaitable in the body's coroutine frame, so each
// awaitable holds only its operands. One that carried a whole PendingOp
// again would cost ~72 bytes of frame per co_await, per process.
static_assert(sizeof(internal::LlAwaitable) <= 16);
static_assert(sizeof(internal::VlAwaitable) <= 16);
static_assert(sizeof(internal::ReadAwaitable) <= 16);

SimTask stale_operand_body(ProcCtx ctx) {
  (void)co_await ctx.sc(0, Value::of_string("boxed operand"));
  (void)co_await ctx.ll(0);
  co_await ctx.move(0, 1);
  (void)co_await ctx.rmw(
      2, make_rmw("inc", [](const Value& v) {
        return Value::of_u64(v.holds_u64() ? v.as_u64() + 1 : 1);
      }));
  (void)co_await ctx.validate(2);
  co_return Value{};
}

// Every op is written into the one pending-op slot field by field; no
// operand of the previous op may survive into the next (the adversary's
// full log hashes arg into each process's history).
TEST(Runtime, PendingOpCarriesNoStaleOperand) {
  System sys(1,
             [](ProcCtx ctx, ProcId, int) { return stale_operand_body(ctx); });
  Process& p = sys.process(0);
  sys.step(0);  // start: the SC is pending
  ASSERT_EQ(p.pending_op().kind, OpKind::kSC);
  EXPECT_EQ(p.pending_op().arg, Value::of_string("boxed operand"));
  sys.step(0);  // SC
  ASSERT_EQ(p.pending_op().kind, OpKind::kLL);
  EXPECT_TRUE(p.pending_op().arg.is_nil());
  EXPECT_EQ(p.pending_op().rmw, nullptr);
  sys.step(0);  // LL
  ASSERT_EQ(p.pending_op().kind, OpKind::kMove);
  EXPECT_EQ(p.pending_op().src, 0u);
  EXPECT_EQ(p.pending_op().reg, 1u);
  sys.step(0);  // move
  ASSERT_EQ(p.pending_op().kind, OpKind::kRmw);
  EXPECT_NE(p.pending_op().rmw, nullptr);
  EXPECT_TRUE(p.pending_op().arg.is_nil());
  EXPECT_EQ(p.pending_op().src, 0u);
  sys.step(0);  // RMW
  ASSERT_EQ(p.pending_op().kind, OpKind::kValidate);
  EXPECT_EQ(p.pending_op().reg, 2u);
  EXPECT_EQ(p.pending_op().rmw, nullptr);
  EXPECT_TRUE(p.pending_op().arg.is_nil());
  sys.step(0);  // validate
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.shared_ops(), 5u);
  // The recorded trace carries each op's own operands, not the slot's
  // later contents.
  ASSERT_EQ(sys.trace().size(), 5u);
  EXPECT_EQ(sys.trace()[0].op.arg, Value::of_string("boxed operand"));
  EXPECT_TRUE(sys.trace()[1].op.arg.is_nil());
  EXPECT_EQ(sys.trace()[2].op.src, 0u);
  EXPECT_NE(sys.trace()[3].op.rmw, nullptr);
  EXPECT_EQ(sys.trace()[4].op.rmw, nullptr);
  EXPECT_EQ(sys.trace()[4].result.value, Value::of_u64(1));
}

// Each control block owns whole cache lines, so processes run by
// different carrier threads never share one.
static_assert(alignof(Process) == 64 && sizeof(Process) % 64 == 0);

TEST(Runtime, ProcessBlockIsCacheLineAligned) {
  for (const int n : {1, 3, 17}) {
    const ProcessBlock procs = make_processes(n);
    for (ProcId p = 0; p < n; ++p) {
      const Process& proc = procs[static_cast<std::size_t>(p)];
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&proc) % 64, 0u)
          << "n=" << n << " p" << p;
      EXPECT_EQ(proc.id(), p);
      EXPECT_EQ(proc.num_processes(), n);
    }
  }
}

TEST(RuntimeDeath, SelfMoveRejected) {
  SimTask (*body)(ProcCtx) = [](ProcCtx ctx) -> SimTask {
    co_await ctx.move(3, 3);
    co_return Value{};
  };
  System sys(1, [body](ProcCtx ctx, ProcId, int) { return body(ctx); });
  EXPECT_DEATH(sys.step(0), "move");
}

}  // namespace
}  // namespace llsc
