// System: n processes + shared memory + a toss assignment = one run.
//
// A System instance embodies one run of an algorithm: schedulers pick which
// process moves next, the System executes that step against the shared
// memory (or serves the coin toss from the assignment), counts it, and
// optionally records a transcript. Complexity accounting follows the
// paper's Section 3: t(p, R) is Process::shared_ops(), t(R) is
// max_shared_ops(), and expected complexities are averages of t(R) over
// sampled toss assignments (Lemma 3.1).
#ifndef LLSC_RUNTIME_SYSTEM_H_
#define LLSC_RUNTIME_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/fault.h"
#include "hw/platform.h"
#include "memory/shared_memory.h"
#include "runtime/process.h"
#include "runtime/toss.h"

namespace llsc {

// The simulator's Platform (hw/platform.h): steps are DEFERRED — a
// suspended process exposes its pending step and a scheduler decides when
// it executes — and when one executes it goes against the paper-exact
// SharedMemory, with tosses served from the run's pre-committed
// assignment. System owns one of these and registers it with every
// process, making the simulator and the hw backend two implementations of
// the same step interface.
class SimPlatform final : public Platform {
 public:
  SimPlatform(SharedMemory* memory, const TossAssignment* tosses)
      : memory_(memory), tosses_(tosses) {}

  bool synchronous() const override { return false; }
  // Out of line (system.cc): routes through the fault injector when one is
  // installed, so an injected fault schedule replays identically here and
  // on the hw backend.
  OpResult apply(ProcId p, const PendingOp& op) override;
  std::uint64_t toss(ProcId p, std::uint64_t j) override {
    return tosses_->outcome(p, j);
  }
  std::string name() const override { return "sim"; }

  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

 private:
  SharedMemory* memory_;
  const TossAssignment* tosses_;
  FaultInjector* fault_ = nullptr;
};

class System {
 public:
  // Creates processes p_0..p_{n-1}, each running body(ctx, i, n).
  // The toss assignment defaults to all-zeros.
  System(int n, const ProcBody& body,
         std::shared_ptr<const TossAssignment> tosses = nullptr);

  int num_processes() const { return n_; }
  SharedMemory& memory() { return memory_; }
  const SharedMemory& memory() const { return memory_; }
  Process& process(ProcId p);
  const Process& process(ProcId p) const;

  // --- step execution (used by schedulers) ---

  // Perform one step of process p: a coin toss if one is pending, otherwise
  // the pending shared-memory operation. Starts the process if needed.
  // Precondition: p is not done.
  void step(ProcId p);

  // Phase-1 behaviour of the paper's adversary: run p's local coin tosses
  // until p terminates or its next step is a shared-memory operation.
  // (Starts p if it has not run yet.) Returns the number of tosses served.
  std::uint64_t advance_through_tosses(ProcId p);

  // Execute p's pending shared-memory operation. Its OpRecord is built
  // only when someone keeps it: written to `*record` when non-null, and
  // appended to trace() while recording. The lean path passes neither and
  // copies no PendingOp.
  // Precondition: p's pending step is an operation and p has not crashed.
  void execute_pending_op(ProcId p, OpRecord* record = nullptr);

  // --- fault injection (hw/fault.h) ---

  // Install a fault injector for this run (nullptr to remove). The caller
  // owns it and keeps it alive for the run; schedulers must consult
  // maybe_crash(p) before executing p's pending op. Adversarial placement
  // (hw/fault_adversary.h) rides through this same seam: the injector
  // places and records its faults inside apply(), so the simulator needs
  // no extra wiring to record or replay adaptive schedules.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return fault_; }
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
  // Number of processes that have terminated.
  int num_done() const;
  // Number of crash-stopped processes.
  int num_crashed() const;
  // max over p of t(p, run-so-far) — the paper's t(R).
  std::uint64_t max_shared_ops() const;
  // Total shared-memory steps executed so far.
  std::uint64_t total_shared_ops() const { return next_step_index_; }

  // --- event clock (local + shared steps) ---

  // Monotone clock ticking on every executed step (coin tosses included).
  std::uint64_t event_clock() const { return event_clock_; }
  // Clock value just after p's first step, or 0 if p has not stepped.
  std::uint64_t first_event(ProcId p) const;
  // Clock value at which p terminated, or 0 if p is still live. A process
  // that terminates without taking any step gets the current clock value,
  // floored to 1 so that "has terminated" is distinguishable.
  std::uint64_t completion_event(ProcId p) const;

  // --- transcript ---

  // Transcripts are on by default; heavy benches can disable them.
  void set_recording(bool on) { recording_ = on; }
  const std::vector<OpRecord>& trace() const { return trace_; }

 private:
  bool maybe_crash(Process& proc);
  bool runnable(const Process& proc) const;

  int n_;
  SharedMemory memory_;
  // p_0..p_{n-1} in one allocation. It never moves: each body's ProcCtx
  // holds its Process*.
  ProcessBlock procs_;
  // Kept so maybe_recover can rebuild an amnesiac process's coroutine; the
  // new frame reads ProcCtx::incarnation() to skip one-time construction.
  ProcBody body_;
  std::shared_ptr<const TossAssignment> tosses_;
  // Declared after memory_ and tosses_ (it points into both).
  SimPlatform platform_;
  FaultInjector* fault_ = nullptr;
  // Marks completion/first-step clocks for proc after it executed a step.
  void note_step(const Process& proc);

  std::vector<OpRecord> trace_;
  std::uint64_t next_step_index_ = 0;
  std::uint64_t event_clock_ = 0;
  std::vector<std::uint64_t> first_event_;
  std::vector<std::uint64_t> completion_event_;
  bool recording_ = true;
};

}  // namespace llsc

#endif  // LLSC_RUNTIME_SYSTEM_H_
