// System: n processes + shared memory + a toss assignment = one run.
//
// A System instance embodies one run of an algorithm: schedulers pick which
// process moves next, the System executes that step against the shared
// memory (or serves the coin toss from the assignment) and counts it. Its
// processes have no Platform (hw/platform.h), so every step is deferred: a
// process stays suspended on its pending step until a scheduler picks it.
// An installed fault injector (hw/fault.h) sees each op keyed by the
// process's own executed-op count, the index the hw backend passes too.
// The System keeps no transcript: a caller that wants an op's record
// passes one to execute_pending_op (the adversary's full RunLog keeps them
// in RoundRecord::ops). Complexity accounting follows the paper's
// Section 3: t(p, R) is Process::shared_ops(), t(R) is max_shared_ops(),
// and expected complexities are averages of t(R) over sampled toss
// assignments (Lemma 3.1).
#ifndef LLSC_RUNTIME_SYSTEM_H_
#define LLSC_RUNTIME_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/fault.h"
#include "memory/shared_memory.h"
#include "runtime/frame_arena.h"
#include "runtime/process.h"
#include "runtime/toss.h"
#include "util/check.h"

namespace llsc {

class System {
 public:
  // Creates processes p_0..p_{n-1}, each running body(ctx, i, n).
  // The toss assignment defaults to all-zeros.
  System(int n, const ProcBody& body,
         std::shared_ptr<const TossAssignment> tosses = nullptr);

  int num_processes() const { return n_; }
  SharedMemory& memory() { return memory_; }
  const SharedMemory& memory() const { return memory_; }
  Process& process(ProcId p) {
    LLSC_EXPECTS(p >= 0 && p < n_, "process id out of range");
    return procs_[static_cast<std::size_t>(p)];
  }
  const Process& process(ProcId p) const {
    LLSC_EXPECTS(p >= 0 && p < n_, "process id out of range");
    return procs_[static_cast<std::size_t>(p)];
  }

  // --- step execution (used by schedulers) ---

  // Perform one step of process p: a coin toss if one is pending, otherwise
  // the pending shared-memory operation. Starts the process if needed.
  // Precondition: p is not done.
  void step(ProcId p);

  // Execute p's pending shared-memory operation. Its OpRecord is built
  // only when the caller keeps it: written to `*record` when non-null. The
  // lean path passes none and copies no PendingOp.
  // Precondition: p's pending step is an operation and p has not crashed.
  // Same as deliver_applied(p, apply_pending_op(p, record)).
  void execute_pending_op(ProcId p, OpRecord* record = nullptr);

  // --- a step in two halves (core/adversary.h) ---
  //
  // The adversary applies a whole round's ops in order, then resumes the
  // bodies, on several threads when its options ask for them. The
  // halves below that take a ProcId touch only that process's block, its
  // body and its event stamps, so calls for distinct processes may run
  // concurrently; everything else here is single-threaded.

  // An op applied to memory whose result p has not received yet, and the
  // event-clock value of its step (never 0).
  struct AppliedOp {
    OpResult result;
    std::uint64_t clock = 0;
  };
  // Applies p's pending op to memory and ticks the event clock, leaving p
  // suspended on the op: p's block is only read. Same preconditions and
  // `record` as execute_pending_op.
  AppliedOp apply_pending_op(ProcId p, OpRecord* record = nullptr);
  // Delivers the result to p, resumes p, and stamps p's first/completion
  // events at the op's clock value. Concurrent across processes.
  void deliver_applied(ProcId p, AppliedOp&& applied);
  // Phase 1 of the paper's adversary for p, without the event clock: starts
  // p if needed and runs its local coin tosses until p terminates or its
  // next step is a shared-memory op. Returns the tosses served; the caller
  // charges them with advance_clock and, when stamp_due(p), calls
  // note_step(p, clock) with the clock value after p's last toss.
  // Concurrent across processes.
  std::uint64_t serve_tosses(ProcId p);
  // True when note_step(p, ·) would stamp an event p has not had stamped.
  bool stamp_due(ProcId p) const;
  // Stamps p's first/completion events, as its last step left p, at
  // `clock` (floored to 1).
  void note_step(ProcId p, std::uint64_t clock);
  std::uint64_t event_clock() const { return event_clock_; }
  void advance_clock(std::uint64_t ticks) { event_clock_ += ticks; }
  bool injects_faults() const { return fault_ != nullptr; }

  // --- fault injection (hw/fault.h) ---

  // Install a fault injector for this run (nullptr to remove). The caller
  // owns it and keeps it alive for the run; schedulers must consult
  // maybe_crash(p) before executing p's pending op. Adversarial placement
  // (hw/fault_adversary.h) rides through this same seam: the injector
  // places and records its faults inside apply(), so the simulator needs
  // no extra wiring to record or replay adaptive schedules.
  void set_fault_injector(FaultInjector* injector);
  // If the installed plan crash-stops p at its current op count, freeze p
  // now. Returns true when p is (now or already) crashed.
  bool maybe_crash(ProcId p);
  // If p is crashed and the plan's RecoverySpec allows it to rejoin,
  // recover it now: the injector consumes the crash (pure delay/cursor
  // accounting — hw sleeps the delay; here the adversary owns schedule
  // time) and p either resumes its suspended frame (amnesia=false) or
  // restarts its body from scratch with links invalidated (amnesia=true).
  // Returns true when p was recovered by this call.
  bool maybe_recover(ProcId p);
  // True when p can take a step now — not halted, or crashed with a
  // recovery still owed. Schedulers loop on this instead of !halted() so
  // a recoverable process is neither skipped forever nor spun on.
  bool runnable(ProcId p) const;

  // --- run state ---

  bool all_done() const;
  // True when no process will ever take another step: every process is
  // done, or crashed with no recovery owed. A crashed process the fault
  // plan will revive does NOT halt the run.
  bool all_halted() const;
  // Number of crash-stopped processes.
  int num_crashed() const;
  // max over p of t(p, run-so-far) — the paper's t(R).
  std::uint64_t max_shared_ops() const;
  // Total shared-memory steps executed so far.
  std::uint64_t total_shared_ops() const { return next_step_index_; }

  // --- event clock (local + shared steps) ---

  // The clock ticks on every executed step (coin tosses included).
  // Clock value just after p's first step, or 0 if p has not stepped.
  std::uint64_t first_event(ProcId p) const;
  // Clock value at which p terminated, or 0 if p is still live. A process
  // that terminates without taking any step gets the current clock value,
  // floored to 1 so that "has terminated" is distinguishable.
  std::uint64_t completion_event(ProcId p) const;

  // Kept because perfbench/ calls it; the System records nothing.
  void set_recording(bool /*on*/) {}

 private:
  bool maybe_crash(Process& proc);
  bool runnable(const Process& proc) const;

  int n_;
  SharedMemory memory_;
  // The bodies' first frames, in id order (runtime/frame_arena.h).
  // Declared before procs_, so it outlives every frame in it.
  FrameArena frames_;
  // p_0..p_{n-1} in one allocation. It never moves: each body's ProcCtx
  // holds its Process*.
  ProcessBlock procs_;
  // Kept so maybe_recover can rebuild an amnesiac process's coroutine; the
  // new frame reads ProcCtx::incarnation() to skip one-time construction.
  ProcBody body_;
  std::shared_ptr<const TossAssignment> tosses_;
  FaultInjector* fault_ = nullptr;
  void note_step(const Process& proc, std::uint64_t clock);

  std::uint64_t next_step_index_ = 0;
  std::uint64_t event_clock_ = 0;
  std::vector<std::uint64_t> first_event_;
  std::vector<std::uint64_t> completion_event_;
};

}  // namespace llsc

#endif  // LLSC_RUNTIME_SYSTEM_H_
