// Concurrent operation histories.
//
// To validate that the universal constructions implement *linearizable*
// objects, we record each implemented operation's invocation and response
// against a logical clock, then search for a sequential witness
// (lin/checker.h). The recorder wraps a construction's execute() and
// serves both substrates. It stamps invocations and responses from one
// atomic counter. On the simulator's single thread the stamps are exactly
// the simulated order. On real threads they are a conservative
// approximation of real time: if op A's response stamp is below op B's
// invocation stamp then A really did complete before B began, so any
// linearization admitted under these stamps respects the true real-time
// partial order. (Overlap may be over-reported, which only makes the
// checker's job easier, never unsound.)
//
// Each process writes its completed ops into its own padded slot, so no
// lock is ever held on the operation path; history() merges the slots.
#ifndef LLSC_LIN_HISTORY_H_
#define LLSC_LIN_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "objects/object.h"
#include "runtime/sub_task.h"
#include "universal/universal.h"
#include "util/line_allocator.h"

namespace llsc {

struct HistOp {
  ProcId proc = -1;
  ObjOp op;
  Value response;
  std::uint64_t inv_time = 0;
  std::uint64_t resp_time = 0;

  std::string to_string() const;
};

struct History {
  std::vector<HistOp> ops;

  // Operations of process p, in invocation order.
  std::vector<std::size_t> by_process(ProcId p) const;
  std::string to_string() const;
};

// Wraps a universal construction and records every completed operation
// routed through it by processes [0, num_procs). Must outlive the run
// whose processes use it.
class ConcurrentHistoryRecorder {
 public:
  ConcurrentHistoryRecorder(UniversalConstruction& uc, int num_procs);

  // Executes `op` through the wrapped construction, recording it into the
  // calling process's slot. Safe to call concurrently from distinct
  // processes; a single process's calls are sequential.
  SubTask<Value> execute(ProcCtx ctx, ObjOp op);

  // The completed operations ordered by invocation stamp. Leaves the
  // record as it is, so it may be read more than once. Call it while no
  // other thread is inside execute(): after a hw run joins, or anywhere
  // on the simulator's one thread.
  History history() const;

 private:
  struct alignas(64) Slot {
    std::vector<HistOp> ops;
  };

  UniversalConstruction* uc_;
  std::atomic<std::uint64_t> clock_{0};
  std::vector<Slot, LineAllocator<Slot>> slots_;
};

}  // namespace llsc

#endif  // LLSC_LIN_HISTORY_H_
