// OversubscribedExecutor — M logical processes on an N-thread pool.
//
// One thread per process caps hw-substrate scenarios at core count; the
// paper's Ω(log n) curve (and the follow-up bounds in PAPERS.md) only
// separates from its competitors at n far beyond that. This pool is the
// one real-thread run loop in src/hw: HwExecutor is the same pool at
// N = M with a platform that never yields. At M ≤ N every carrier runs
// one process and its shard never holds another, so no worker steals or
// parks idle; the 1:1 behaviour follows from the shape alone.
//
// This executor multiplexes M coroutine processes onto N carrier threads
// by reusing the runtime's awaitable suspension points as yield points:
// each co_awaited shared-memory op still executes inline against
// HwMemory (the platform stays synchronous), but afterwards — under the
// configured YieldPolicy — the coroutine parks its handle on a per-worker
// run-queue shard instead of monopolizing the thread. Workers pop their
// own shard FIFO, steal from siblings when dry, and fall back to the
// adaptive+parking Backoff (hw/backoff.h) on the executor's idle
// ParkSpot when the whole pool runs dry — the same fixed
// register-in-waiters → re-check protocol the register spots use, with
// the work-epoch counter as the re-checked word.
//
// Determinism contract (what makes the oversubscribed leg of
// hw_fault_diff_test replay bit-for-bit):
//   * tosses — SeededTossAssignment outcomes are pure in (seed, p, j) and
//     each Process carries its own toss counter, so a coroutine observes
//     the identical toss stream no matter which carrier thread resumes
//     it (toss migration safety);
//   * faults — FaultInjector decisions are pure in (plan seed, p,
//     op-index) or replayed from a DecisionTrace keyed the same way;
//   * memory — HwMemory is constructed with M per-process contexts
//     (links, epochs, backoff state are per ProcId, not per thread), and
//     a coroutine's steps are serialized by the run queue: the shard
//     mutex handoff is the happens-before edge between consecutive
//     carrier threads of one process.
//
// The watchdog (hw/run_support.h) tracks progress per LOGICAL process
// and scales its stagnation window by ⌈M/N⌉, so a correctly parked
// coroutine — runnable, just unscheduled — is not misread as hung.
#ifndef LLSC_HW_OVERSUB_EXECUTOR_H_
#define LLSC_HW_OVERSUB_EXECUTOR_H_

#include <cstdint>

#include "hw/hw_executor.h"

namespace llsc {

// When does a coroutine give its carrier thread back to the scheduler?
enum class YieldPolicy : int {
  // After every shared-memory op: maximal interleaving, the scheduler
  // round-robins runnable processes at op granularity. The default, and
  // what service-mode latency runs want.
  kEveryOp = 0,
  // After every k-th shared-memory op of a process: amortizes scheduling
  // cost when ops are cheap and fairness at op granularity is overkill.
  kEveryK = 1,
  // Only after a FAILED SC: a process losing its register races is the
  // one burning its timeslice; winners keep their thread. The polite-
  // loser discipline of flat combining, at the scheduler level.
  kOnScFailure = 2,
};

const char* to_string(YieldPolicy policy);

struct OversubRunOptions : HwRunOptions {
  // Carrier threads (N). 0 = std::thread::hardware_concurrency().
  int num_threads = 0;
  YieldPolicy yield_policy = YieldPolicy::kEveryOp;
  // kEveryK's k; clamped to >= 1.
  std::uint32_t yield_every_k = 8;
};

class OversubscribedExecutor {
 public:
  explicit OversubscribedExecutor(OversubRunOptions options = {});

  // Runs body(ctx, i, m) for i in [0, m) — M logical processes scheduled
  // over the option's N carrier threads against a fresh HwMemory with M
  // per-process contexts. Returns the same result shape as
  // HwExecutor::run (n = m). Exceptions
  // thrown by a body are re-thrown on the calling thread after the pool
  // joins. ctx.yield() suspends here (and only here).
  HwRunResult run(int m, const ProcBody& body);

  const OversubRunOptions& options() const { return options_; }

 private:
  OversubRunOptions options_;
};

}  // namespace llsc

#endif  // LLSC_HW_OVERSUB_EXECUTOR_H_
