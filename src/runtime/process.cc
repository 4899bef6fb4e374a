#include "runtime/process.h"

#include <memory>
#include <type_traits>

#include "hw/platform.h"
#include "util/check.h"
#include "util/line_allocator.h"

namespace llsc {

const char* step_kind_name(StepKind kind) {
  switch (kind) {
    case StepKind::kNotStarted:
      return "not-started";
    case StepKind::kToss:
      return "toss";
    case StepKind::kOp:
      return "op";
    case StepKind::kDone:
      return "done";
    case StepKind::kYielded:
      return "yielded";
  }
  LLSC_UNREACHABLE("bad StepKind");
}

void DestroyProcesses::operator()(Process* procs) const {
  std::destroy_n(procs, n);
  LineAllocator<Process>().deallocate(procs, n);
}

ProcessBlock make_processes(int n) {
  LLSC_EXPECTS(n >= 1, "a system needs at least one process");
  const std::size_t count = static_cast<std::size_t>(n);
  Process* const block = LineAllocator<Process>().allocate(count);
  // Nothing between the allocation and the hand-over can throw, so the
  // deleter may count all n from the start.
  static_assert(std::is_nothrow_constructible_v<Process, ProcId, int>);
  for (ProcId i = 0; i < n; ++i) std::construct_at(block + i, i, n);
  return ProcessBlock(block, DestroyProcesses{count});
}

ProcId ProcCtx::id() const { return proc_->id(); }
int ProcCtx::num_processes() const { return proc_->num_processes(); }
std::uint32_t ProcCtx::incarnation() const { return proc_->incarnation(); }
bool ProcCtx::yields() const {
  return proc_->platform() != nullptr && proc_->platform()->yields();
}

void Process::set_platform(Platform* platform) {
  platform_ = platform;
  synchronous_ = platform != nullptr && platform->synchronous();
}

void Process::attach(SimTask task) {
  LLSC_EXPECTS(!task_.valid(), "process already has a coroutine attached");
  LLSC_EXPECTS(task.valid(), "cannot attach an empty SimTask");
  task_ = std::move(task);
}

const PendingOp& Process::pending_op() const {
  LLSC_EXPECTS(kind_ == StepKind::kOp,
               "pending_op() requires a pending shared-memory step");
  return pending_op_;
}

std::uint64_t Process::pending_toss_range() const {
  LLSC_EXPECTS(kind_ == StepKind::kToss,
               "pending_toss_range() requires a pending toss");
  return toss_range_;
}

bool Process::submit_op(std::coroutine_handle<> frame) {
  if (synchronous_) {
    // Synchronous platform (hw backend): the step happens now, on this
    // thread, and the coroutine usually continues without suspending. An
    // oversubscribed platform may ask the coroutine to give back its
    // carrier thread AFTER the op executed — the result is latched in
    // op_result_, the frame suspends as kYielded, and the awaitable's
    // await_resume reads the result when the scheduler resumes it.
    op_result_ = platform_->apply(id_, pending_op_);
    ++shared_ops_;
    if (platform_->yields()) {
      kind_ = StepKind::kYielded;
      resume_handle_ = frame;
      return true;
    }
    return false;
  }
  kind_ = StepKind::kOp;
  resume_handle_ = frame;
  return true;
}

bool Process::submit_yield(std::coroutine_handle<> frame) {
  if (platform_ == nullptr || !platform_->yields()) return false;
  kind_ = StepKind::kYielded;
  resume_handle_ = frame;
  return true;
}

bool Process::submit_toss(std::uint64_t range, std::coroutine_handle<> frame) {
  if (synchronous_) {
    toss_result_ = platform_->toss(id_, num_tosses_);
    ++num_tosses_;
    return false;
  }
  set_pending_toss(range, frame);
  return true;
}

void Process::deliver_op_result(OpResult result) {
  LLSC_EXPECTS(kind_ == StepKind::kOp,
               "deliver_op_result() requires a pending shared-memory step");
  op_result_ = std::move(result);
  ++shared_ops_;
  resume();
}

void Process::deliver_toss(std::uint64_t raw_outcome) {
  LLSC_EXPECTS(kind_ == StepKind::kToss,
               "deliver_toss() requires a pending toss");
  toss_result_ = raw_outcome;
  ++num_tosses_;
  resume();
}

void Process::start() {
  LLSC_EXPECTS(kind_ == StepKind::kNotStarted, "process already started");
  resume();
}

void Process::resume_yielded() {
  LLSC_EXPECTS(kind_ == StepKind::kYielded,
               "resume_yielded() requires a cooperatively yielded process");
  resume();
}

void Process::mark_crashed() {
  LLSC_EXPECTS(kind_ != StepKind::kDone,
               "cannot crash a terminated process");
  crashed_ = true;
}

void Process::mark_recovered() {
  LLSC_EXPECTS(crashed_, "mark_recovered() requires a crashed process");
  crashed_ = false;
}

void Process::restart(const ProcBody& body) {
  // Bump the incarnation BEFORE building the new body: builders read
  // ProcCtx::incarnation() at invocation time to guard one-time shared
  // construction against re-running.
  ++incarnation_;
  crashed_ = false;
  kind_ = StepKind::kNotStarted;
  resume_handle_ = {};
  op_result_ = OpResult{};
  toss_range_ = 0;
  // Destroying the old SimTask tears down the suspended (or exception-
  // unwound) frame stack; shared_ops_/num_tosses_ survive so the new
  // incarnation's fault and toss streams continue the cumulative count.
  SimTask task = body(ProcCtx(this), id_, n_);
  LLSC_EXPECTS(task.valid(), "restart body built an empty SimTask");
  task_ = std::move(task);
}

const Value& Process::result() const {
  LLSC_EXPECTS(kind_ == StepKind::kDone,
               "result() requires a terminated process");
  return task_.handle().promise().result;
}

void Process::resume() {
  LLSC_CHECK(task_.valid(), "process has no coroutine");
  // Resume the innermost suspended frame (the top-level task initially; a
  // nested SubTask if one suspended last). The stack will either set a new
  // pending step via an awaitable's await_suspend, or run to completion.
  kind_ = StepKind::kDone;  // default if no awaitable re-arms the block
  std::coroutine_handle<> frame =
      resume_handle_ ? resume_handle_
                     : std::coroutine_handle<>(task_.handle());
  frame.resume();
  const auto top = task_.handle();
  if (top.done() && top.promise().exception) {
    std::rethrow_exception(top.promise().exception);
  }
  // A coroutine stack must either complete or arm its next pending step.
  // The one known way to violate this is a GCC 12 codegen bug: a co_await
  // inside an if/while/switch *condition* gets a spurious extra suspension
  // that returns control here with nothing armed. Fail loudly rather than
  // silently treating the process as terminated — the fix is to bind the
  // awaited value to a named local before testing it.
  LLSC_CHECK(top.done() || kind_ != StepKind::kDone,
             "coroutine suspended without arming a pending step "
             "(co_await inside a condition? see process.cc)");
}

std::string Process::to_string() const {
  std::string s = "p" + std::to_string(id_) + "[" + step_kind_name(kind_);
  if (crashed_) s += " CRASHED";
  if (kind_ == StepKind::kOp) s += " " + pending_op_.to_string();
  s += ", ops=" + std::to_string(shared_ops_) +
       ", tosses=" + std::to_string(num_tosses_) + "]";
  return s;
}

}  // namespace llsc
