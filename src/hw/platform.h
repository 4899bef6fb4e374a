// Platform: where a hw process's shared-memory steps and coin tosses
// execute.
//
// The paper's model has one shared memory and one step relation; this
// library has two execution substrates for the SAME algorithm sources:
//
//   * the simulator (runtime/system.h) — the paper's model, exactly: a
//     process has NO platform, so every step is *deferred*; a suspended
//     process exposes its pending step and a scheduler (possibly the
//     Fig. 2 adversary) decides when System executes it against the
//     paper-faithful SharedMemory;
//   * the hardware backend (hw/hw_executor.h, hw/oversub_executor.h) —
//     a process with a platform steps *synchronously*; processes run on a
//     pool of OS threads and every LL/SC/VL/swap/move completes inline
//     against the lock-free HwMemory emulation.
//
// The coroutine awaitables in runtime/process.h route every step through
// Process::submit_op / submit_toss: with no platform the coroutine
// suspends (the scheduler later delivers the result); with one, the step
// executes immediately and the coroutine continues without suspending.
// Algorithm code — wakeup algorithms, universal constructions — is
// identical on both; only who advances the process differs. The seam has
// one implementation (hw/run_support.h); it keeps runtime/ from
// depending on HwMemory.
//
// Coin tosses are served from a pre-committed assignment on BOTH
// substrates (outcome(p, j) is a pure function of the seed), so a run's
// toss outcomes are reproducible across substrates and across repeated
// hw runs — only the interleaving of shared-memory steps varies.
#ifndef LLSC_HW_PLATFORM_H_
#define LLSC_HW_PLATFORM_H_

#include <cstdint>

#include "memory/op.h"

namespace llsc {

class Platform {
 public:
  virtual ~Platform() = default;

  // Executes one shared-memory step on behalf of process p, from p's own
  // thread at the moment the algorithm issues the operation. `k` is p's
  // executed-op count before this op (Process::shared_ops()): the index
  // every fault decision for the op is keyed on (hw/fault.h).
  virtual OpResult apply(ProcId p, std::uint64_t k, const PendingOp& op) = 0;

  // Raw 64-bit outcome of p's j-th coin toss (0-based). Must be a pure
  // function of (p, j) so runs replay identically (paper Section 5.2).
  virtual std::uint64_t toss(ProcId p, std::uint64_t j) = 0;

  // --- cooperative-scheduling hook (hw/oversub_executor.h) ---
  //
  // True on a platform that multiplexes M logical processes onto fewer
  // carrier threads: a coroutine gives up its carrier thread after every
  // shared-memory op apply() ran inline (the op's result is already
  // latched; the scheduler resumes the coroutine later and the awaitable
  // reads it then) and at every explicit ctx.yield() point. Defaults to
  // false: 1:1 runs and the simulator never suspend here, so algorithm
  // code with yield points runs unchanged everywhere.
  virtual bool yields() const { return false; }
};

}  // namespace llsc

#endif  // LLSC_HW_PLATFORM_H_
