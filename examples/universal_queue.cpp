// A wait-free shared queue from the oblivious Group-Update universal
// construction, exercised by concurrent producers and consumers, with the
// resulting history checked for linearizability.
//
// This is the "tightness" side of the paper: with unbounded registers the
// construction completes any queue operation in O(log n) shared-memory
// operations — and, being oblivious, the very same code implements every
// other type in src/objects.
//
// Run: ./build/examples/universal_queue
#include <cstdio>

#include "lin/checker.h"
#include "lin/history.h"
#include "objects/containers.h"
#include "sched/scheduler.h"
#include "universal/group_update.h"

using namespace llsc;

namespace {

// Producers (even ids) enqueue two items; consumers (odd ids) dequeue two.
SimTask worker(ProcCtx ctx, ProcId me, ConcurrentHistoryRecorder* q) {
  if (me % 2 == 0) {
    for (int k = 0; k < 2; ++k) {
      ObjOp enq{"enqueue", Value::of_u64(
                               static_cast<std::uint64_t>(me * 10 + k))};
      (void)co_await q->execute(ctx, std::move(enq));
    }
    co_return Value::of_u64(0);
  }
  std::uint64_t got = 0;
  for (int k = 0; k < 2; ++k) {
    ObjOp deq{"dequeue", {}};
    const Value r = co_await q->execute(ctx, std::move(deq));
    if (!r.is_nil()) ++got;
  }
  co_return Value::of_u64(got);
}

}  // namespace

int main() {
  const int n = 6;
  GroupUpdateUC uc(n, [] { return std::make_unique<QueueObject>(); });
  ConcurrentHistoryRecorder recorder(uc, n);

  System sys(n, [&recorder](ProcCtx ctx, ProcId i, int) {
    return worker(ctx, i, &recorder);
  });
  RandomScheduler sched(/*seed=*/2024);
  const RunOutcome out = sched.run(sys, 1 << 22);
  const History history = recorder.history();
  std::printf("run terminated: %s, %d processes, %zu operations recorded\n",
              out.all_terminated ? "yes" : "no", n, history.ops.size());

  std::printf("\nconcurrent history (inv/resp timestamps):\n%s\n",
              history.to_string().c_str());

  const LinResult lin = check_linearizability(
      history, [] { return std::make_unique<QueueObject>(); });
  std::printf("linearizability: %s\n", lin.summary().c_str());
  if (lin.linearizable) {
    std::printf("witness order:");
    for (const std::size_t idx : lin.witness) {
      std::printf(" %s", history.ops[idx].op.to_string().c_str());
    }
    std::printf("\n");
  }

  std::printf("\nper-process shared-memory cost (worst case bound: %llu):\n",
              static_cast<unsigned long long>(uc.worst_case_shared_ops()));
  for (ProcId p = 0; p < n; ++p) {
    std::printf("  p%d: %llu ops for 2 queue operations\n", p,
                static_cast<unsigned long long>(sys.process(p).shared_ops()));
  }
  return 0;
}
