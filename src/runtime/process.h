// Process control blocks and the awaitable interface algorithms use.
//
// A simulated process alternates local steps (coin tosses) and shared-memory
// steps, per the paper's model. Between steps it is suspended, and its
// control block reports what it wants to do next:
//
//   kNotStarted — created, has not executed any local computation yet
//   kToss       — next step is a local coin toss
//   kOp         — next step is a shared-memory operation (pending_op())
//   kDone       — terminated, result() is available
//
// A shared-memory step is a few stores into the control block: the
// awaitable holds only its operands and, when the body suspends on it,
// writes them into the block's one pending-op slot (Process::write_op).
// The platform applies the op from that slot — at once on a synchronous
// platform, later on the simulator when a scheduler picks the step.
//
// Algorithm code receives a ProcCtx and writes straight-line logic:
//
//   SimTask body(ProcCtx ctx) {
//     Value v = co_await ctx.ll(0);
//     ScResult r = co_await ctx.sc(0, Value::of_u64(1));
//     std::uint64_t coin = co_await ctx.toss(2);
//     co_return Value::of_u64(r.ok && coin ? 1 : 0);
//   }
#ifndef LLSC_RUNTIME_PROCESS_H_
#define LLSC_RUNTIME_PROCESS_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "memory/op.h"
#include "memory/value.h"
#include "runtime/sim_task.h"

namespace llsc {

class Platform;
class Process;

enum class StepKind : std::uint8_t {
  kNotStarted,
  kToss,
  kOp,
  kDone,
  // Suspended at a cooperative yield point on an oversubscribed
  // synchronous platform (hw/oversub_executor.h): the last op's result is
  // already latched in the process block and resume_yielded() continues
  // the body. Never observed on the simulator or a 1:1 hw run.
  kYielded,
};

const char* step_kind_name(StepKind kind);

// Result of an SC as surfaced to algorithm code.
struct ScResult {
  bool ok = false;
  // Previous value on success; current value on failure (the paper's
  // strengthened SC response).
  Value value;
};

// Result of a validate as surfaced to algorithm code.
struct VlResult {
  bool ok = false;  // true iff the caller's link is still live
  Value value;      // the register's current value
};

namespace internal {
struct OpAwaitableBase;
struct LlAwaitable;
struct ScAwaitable;
struct VlAwaitable;
struct ReadAwaitable;
struct SwapAwaitable;
struct MoveAwaitable;
struct RmwAwaitable;
struct TossAwaitable;
struct YieldAwaitable;
}  // namespace internal

// Handle through which a coroutine body talks to its control block. Cheap
// to copy; valid as long as the owning Process lives.
class ProcCtx {
 public:
  explicit ProcCtx(Process* proc) : proc_(proc) {}

  ProcId id() const;
  int num_processes() const;
  // Restart count of the owning process: 0 for the original body, +1 per
  // amnesia recovery (hw/fault.h). Lets a shared-state builder guard
  // one-time construction against re-running when its body restarts.
  std::uint32_t incarnation() const;

  // --- awaitables (each is one step of the paper's model) ---

  // LL(r): links and returns the register value.
  internal::LlAwaitable ll(RegId r) const;
  // SC(r, v): conditional store; see ScResult.
  internal::ScAwaitable sc(RegId r, Value v) const;
  // validate(r): link-validity flag plus current value.
  internal::VlAwaitable validate(RegId r) const;
  // A plain read — validate's value component (the model has no separate
  // read operation; see paper Section 3). Returns Value.
  internal::ReadAwaitable read(RegId r) const;
  // swap(r, v): unconditional store returning the previous value.
  internal::SwapAwaitable swap(RegId r, Value v) const;
  // move(src, dst): copies value(src) into dst; returns only an ack.
  internal::MoveAwaitable move(RegId src, RegId dst) const;
  // RMW(r, f): the Section 7 strong operation — value(r) <- f(value(r)),
  // returns the old value. NOT schedulable by the Fig. 2 adversary.
  internal::RmwAwaitable rmw(RegId r,
                             std::shared_ptr<const RmwFunction> f) const;

  // Local coin toss. `range` > 0 yields a value in [0, range); range == 0
  // yields the raw 64-bit outcome. Either way this consumes exactly one
  // outcome of the toss assignment.
  internal::TossAwaitable toss(std::uint64_t range) const;

  // Cooperative yield point — NOT a step of the paper's model (no shared
  // op, no toss, no counter changes). On an oversubscribed platform the
  // coroutine gives its carrier thread back to the scheduler; everywhere
  // else (simulator, 1:1 hw) it is a no-op that never suspends. Lets
  // open-loop service bodies wait for an arrival time without pinning a
  // thread (hw/service.h).
  internal::YieldAwaitable yield() const;
  // True when yield() really suspends (an oversubscribed platform). Code
  // that waits on a peer's progress between yields checks it: where
  // yield() is a no-op such a wait never hands the peer a step.
  bool yields() const;

 private:
  Process* proc_;
};

// Algorithm: builds the coroutine body for process `id` of `n`.
using ProcBody = std::function<SimTask(ProcCtx, ProcId, int)>;

// Control block of one simulated process. Owned by System or a hw pool
// run, in a make_processes block; exposes the pending step to schedulers
// and carries step counters. Cache-line aligned, so no two processes share
// a line even when different carrier threads run them.
class alignas(64) Process {
 public:
  Process(ProcId id, int n) noexcept : id_(id), n_(n) {}
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcId id() const { return id_; }
  int num_processes() const { return n_; }

  // The platform this process's steps execute on (hw/platform.h). A null
  // or deferred platform keeps the classic simulator behaviour: awaitables
  // suspend and a scheduler delivers results. A synchronous platform makes
  // every awaitable execute its step inline, so start() runs the whole
  // body to completion on the calling thread. Set before start(); the
  // platform's synchronous() is read here, once, not on every step.
  void set_platform(Platform* platform);
  Platform* platform() const { return platform_; }

  // Attach the coroutine (done once by the owning executor/System).
  void attach(SimTask task);

  StepKind step_kind() const { return kind_; }
  bool done() const { return kind_ == StepKind::kDone; }
  // Crash-stopped by fault injection (hw/fault.h): the process froze at an
  // op boundary and will take no further steps; result() stays unavailable
  // and its pending step must never be executed.
  bool crashed() const { return crashed_; }
  // done-or-crashed: this process will take no further steps. Schedulers
  // and the adversary loop on this, not done(), so a crashed process
  // cannot spin a schedule forever.
  bool halted() const { return done() || crashed_; }
  // Freeze the process permanently. Precondition: !done(). Idempotent.
  void mark_crashed();
  // Crash-recovery without amnesia: lift the crash flag and leave the
  // suspended frame exactly where it froze — the pending step executes
  // next, a pause rather than a rebirth. Precondition: crashed().
  void mark_recovered();
  // Crash-recovery WITH amnesia: drop the suspended coroutine frame (all
  // private state is lost), bump incarnation(), and attach a fresh body
  // built by `body` — which observes the NEW incarnation via
  // ProcCtx::incarnation(). Cumulative counters (shared_ops, num_tosses)
  // are preserved so the fault-decision and toss streams continue where
  // the dead incarnation left off. Also usable on an unwound hw process
  // (whose frame completed by exception), so no crashed() precondition.
  void restart(const ProcBody& body);
  // Amnesia restarts taken so far (0 = original incarnation).
  std::uint32_t incarnation() const { return incarnation_; }
  // Pending shared-memory operation. Precondition: step_kind() == kOp.
  const PendingOp& pending_op() const;
  // Range of the pending toss (0 = raw u64). Precondition: kind == kToss.
  std::uint64_t pending_toss_range() const;

  // Deliver the result of the pending op and resume to the next suspension
  // point. Precondition: step_kind() == kOp. Increments shared_ops().
  void deliver_op_result(OpResult result);
  // Deliver a raw toss outcome and resume. Precondition: kind == kToss.
  // Increments num_tosses().
  void deliver_toss(std::uint64_t raw_outcome);
  // Run the coroutine to its first suspension point.
  // Precondition: kind == kNotStarted.
  void start();
  // Continue a coroutine suspended at a cooperative yield point (the
  // oversubscribed scheduler's resume edge). Precondition: kind ==
  // kYielded. Runs until the next yield suspension or completion.
  void resume_yielded();

  // Return value of the coroutine. Precondition: done().
  const Value& result() const;

  // t(p, R): number of shared-memory steps taken so far.
  std::uint64_t shared_ops() const { return shared_ops_; }
  // numtosses(p): number of coin tosses taken so far.
  std::uint64_t num_tosses() const { return num_tosses_; }

  std::string to_string() const;

 private:
  friend class ProcCtx;
  friend struct internal::OpAwaitableBase;
  friend struct internal::TossAwaitable;
  friend struct internal::YieldAwaitable;

  // Called from awaitables: write one op into the pending-op slot. Every
  // field is assigned — arg nil and rmw null when the kind has none — so
  // no operand of an earlier op survives into this one (the adversary's
  // full log hashes arg).
  void write_op(OpKind kind, RegId reg, RegId src, Value&& arg,
                std::shared_ptr<const RmwFunction>&& rmw) {
    pending_op_.kind = kind;
    pending_op_.reg = reg;
    pending_op_.src = src;
    pending_op_.arg = std::move(arg);
    pending_op_.rmw = std::move(rmw);
  }
  // Called from awaitables: route one step through the platform — the op
  // just written by write_op, or a toss. Returns true when the coroutine
  // must stay suspended (deferred platform — a scheduler will deliver the
  // result), false when the step already executed and the coroutine
  // should continue inline (synchronous platform). `frame` is the
  // (possibly nested) coroutine that suspended; in the deferred case
  // deliver/resume must resume exactly that frame.
  bool submit_op(std::coroutine_handle<> frame);
  bool submit_toss(std::uint64_t range, std::coroutine_handle<> frame);
  // ctx.yield(): true = suspend as kYielded (oversubscribed platform),
  // false = continue inline (everywhere else).
  bool submit_yield(std::coroutine_handle<> frame);

  void set_pending_toss(std::uint64_t range, std::coroutine_handle<> frame) {
    toss_range_ = range;
    kind_ = StepKind::kToss;
    resume_handle_ = frame;
  }
  OpResult take_op_result() { return std::move(op_result_); }
  std::uint64_t toss_result() const { return toss_result_; }

  void resume();

  ProcId id_;
  int n_;
  Platform* platform_ = nullptr;
  SimTask task_;
  StepKind kind_ = StepKind::kNotStarted;
  PendingOp pending_op_;
  std::uint64_t toss_range_ = 0;
  // Innermost suspended coroutine frame (the top-level task until a nested
  // SubTask suspends on a shared-memory or toss awaitable).
  std::coroutine_handle<> resume_handle_;
  OpResult op_result_;             // result slot read by the op awaitables
  std::uint64_t toss_result_ = 0;  // result slot read by the toss awaitable
  std::uint64_t shared_ops_ = 0;
  std::uint64_t num_tosses_ = 0;
  std::uint32_t incarnation_ = 0;
  bool crashed_ = false;
  // platform_->synchronous(), read once. Sits in crashed_'s padding, so
  // caching it does not grow the block.
  bool synchronous_ = false;
};

// Destroys the n control blocks of a make_processes block in order and
// frees the block.
struct DestroyProcesses {
  std::size_t n;
  void operator()(Process* procs) const;
};
using ProcessBlock = std::unique_ptr<Process[], DestroyProcesses>;
// Allocates one block (util/line_allocator.h) and constructs p_0..p_{n-1}
// of an n-process system in it, bodies not yet attached. The block never
// moves, so each body's ProcCtx may hold its Process*.
ProcessBlock make_processes(int n);

namespace internal {

// Base behaviour shared by the operation awaitables. An awaitable holds
// only its operands — the target register here, plus whatever value,
// source register or function its kind takes — so a body's coroutine frame
// keeps no PendingOp per co_await. await_suspend writes the operands into
// the process's pending-op slot and submits the step to the process's
// platform. Deferred platform (simulator): suspend with the op pending and
// pick up the OpResult the scheduler delivered on resume. Synchronous
// platform (hw): the step executes inside await_suspend, from the same
// slot, which returns false so the coroutine continues without ever
// suspending.
struct OpAwaitableBase {
  Process* proc;
  RegId reg;

  bool await_ready() const noexcept { return false; }

 protected:
  bool submit(std::coroutine_handle<> frame, OpKind kind, RegId src = 0,
              Value&& arg = Value(),
              std::shared_ptr<const RmwFunction>&& rmw = nullptr) {
    proc->write_op(kind, reg, src, std::move(arg), std::move(rmw));
    return proc->submit_op(frame);
  }
  OpResult take() { return proc->take_op_result(); }
};

struct LlAwaitable : OpAwaitableBase {
  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kLL);
  }
  Value await_resume() { return std::move(take().value); }
};

struct ScAwaitable : OpAwaitableBase {
  Value arg;

  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kSC, 0, std::move(arg));
  }
  ScResult await_resume() {
    OpResult r = take();
    return ScResult{.ok = r.flag, .value = std::move(r.value)};
  }
};

struct VlAwaitable : OpAwaitableBase {
  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kValidate);
  }
  VlResult await_resume() {
    OpResult r = take();
    return VlResult{.ok = r.flag, .value = std::move(r.value)};
  }
};

struct ReadAwaitable : OpAwaitableBase {
  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kValidate);
  }
  Value await_resume() { return std::move(take().value); }
};

struct SwapAwaitable : OpAwaitableBase {
  Value arg;

  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kSwap, 0, std::move(arg));
  }
  Value await_resume() { return std::move(take().value); }
};

// `reg` is the destination register.
struct MoveAwaitable : OpAwaitableBase {
  RegId src;

  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kMove, src);
  }
  void await_resume() { (void)take(); }
};

struct RmwAwaitable : OpAwaitableBase {
  std::shared_ptr<const RmwFunction> f;

  bool await_suspend(std::coroutine_handle<> frame) {
    return submit(frame, OpKind::kRmw, 0, Value(), std::move(f));
  }
  Value await_resume() { return std::move(take().value); }
};

struct TossAwaitable {
  Process* proc;
  std::uint64_t range;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> frame) {
    return proc->submit_toss(range, frame);
  }
  std::uint64_t await_resume() {
    const std::uint64_t raw = proc->toss_result();
    return range == 0 ? raw : raw % range;
  }
};

struct YieldAwaitable {
  Process* proc;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> frame) {
    return proc->submit_yield(frame);
  }
  void await_resume() {}
};

}  // namespace internal

inline internal::LlAwaitable ProcCtx::ll(RegId r) const {
  return {{proc_, r}};
}

inline internal::VlAwaitable ProcCtx::validate(RegId r) const {
  return {{proc_, r}};
}

inline internal::ReadAwaitable ProcCtx::read(RegId r) const {
  return {{proc_, r}};
}

inline internal::ScAwaitable ProcCtx::sc(RegId r, Value v) const {
  return {{proc_, r}, std::move(v)};
}

inline internal::SwapAwaitable ProcCtx::swap(RegId r, Value v) const {
  return {{proc_, r}, std::move(v)};
}

inline internal::MoveAwaitable ProcCtx::move(RegId src, RegId dst) const {
  // Self-moves are value no-ops and are excluded from the model so that the
  // Section 4 secretive-schedule machinery applies (see
  // sched/secretive_schedule.cc for the discussion).
  LLSC_EXPECTS(src != dst, "move(R, R) is excluded from the model");
  return {{proc_, dst}, src};
}

inline internal::RmwAwaitable ProcCtx::rmw(
    RegId r, std::shared_ptr<const RmwFunction> f) const {
  LLSC_EXPECTS(f != nullptr, "RMW requires a function");
  return {{proc_, r}, std::move(f)};
}

inline internal::TossAwaitable ProcCtx::toss(std::uint64_t range) const {
  return {proc_, range};
}

inline internal::YieldAwaitable ProcCtx::yield() const { return {proc_}; }

}  // namespace llsc

#endif  // LLSC_RUNTIME_PROCESS_H_
