// Platform: where a process's shared-memory steps and coin tosses execute.
//
// The paper's model has one shared memory and one step relation; this
// library now has two execution substrates for the SAME algorithm sources:
//
//   * the simulator (runtime/system.h) — the paper's model, exactly: steps
//     are *deferred*; a suspended process exposes its pending step and a
//     scheduler (possibly the Fig. 2 adversary) decides when it executes
//     against the paper-faithful SharedMemory;
//   * the hardware backend (hw/hw_executor.h, hw/oversub_executor.h) —
//     steps are *synchronous*; processes run on a pool of OS threads and
//     every LL/SC/VL/swap/move completes inline against the lock-free
//     HwMemory emulation.
//
// Platform is the seam between them. The coroutine awaitables in
// runtime/process.h route every step through Process::submit_op /
// submit_toss, which consult the process's Platform: a deferred platform
// suspends the coroutine (the scheduler later delivers the result), a
// synchronous platform executes the step immediately and the coroutine
// continues without suspending. Algorithm code — wakeup algorithms,
// universal constructions — is identical on both; only who advances the
// process differs.
//
// Coin tosses are served from a pre-committed assignment on BOTH
// platforms (outcome(p, j) is a pure function of the seed), so a run's
// toss outcomes are reproducible across platforms and across repeated
// hw runs — only the interleaving of shared-memory steps varies.
//
// Register storage is a second seam below this one
// (memory/storage_policy.h): both substrates honour the same
// boxed/inline policy choice — HwMemory through its RegisterStorage's
// policy member (hw/register_storage.h), SharedMemory by mirroring the
// width / overflow accounting — so a policy can be compared across
// platforms without touching algorithm code.
#ifndef LLSC_HW_PLATFORM_H_
#define LLSC_HW_PLATFORM_H_

#include <cstdint>
#include <string>

#include "memory/op.h"

namespace llsc {

class Platform {
 public:
  virtual ~Platform() = default;

  // True when steps complete inline on the calling thread (hw backend);
  // false when a scheduler must pick the moment and deliver the result
  // (simulator).
  virtual bool synchronous() const = 0;

  // Executes one shared-memory step on behalf of process p. On a
  // synchronous platform this is called from p's own thread at the moment
  // the algorithm issues the operation; on a deferred platform, from the
  // scheduler when it decides p's pending step happens.
  virtual OpResult apply(ProcId p, const PendingOp& op) = 0;

  // Raw 64-bit outcome of p's j-th coin toss (0-based). Must be a pure
  // function of (p, j) so runs replay identically (paper Section 5.2).
  virtual std::uint64_t toss(ProcId p, std::uint64_t j) = 0;

  // --- cooperative-scheduling hook (hw/oversub_executor.h) ---
  //
  // Only meaningful on synchronous platforms that multiplex M logical
  // processes onto fewer carrier threads: true means a coroutine gives up
  // its carrier thread after every shared-memory op apply() ran inline
  // (the op's result is already latched; the scheduler resumes the
  // coroutine later and the awaitable reads it then) and at every
  // explicit ctx.yield() point. Defaults to false: 1:1 platforms and the
  // simulator never suspend here, so algorithm code with yield points
  // runs unchanged everywhere.
  virtual bool yields() const { return false; }

  virtual std::string name() const = 0;
};

}  // namespace llsc

#endif  // LLSC_HW_PLATFORM_H_
