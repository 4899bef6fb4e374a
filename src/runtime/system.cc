#include "runtime/system.h"

#include <algorithm>
#include <memory>

#include "util/check.h"

namespace llsc {

System::System(int n, const ProcBody& body,
               std::shared_ptr<const TossAssignment> tosses)
    : n_(n),
      procs_(make_processes(n)),
      body_(body),
      tosses_(tosses ? std::move(tosses)
                     : std::make_shared<ZeroTossAssignment>()) {
  first_event_.assign(static_cast<std::size_t>(n), 0);
  completion_event_.assign(static_cast<std::size_t>(n), 0);
  const FrameArena::Scope scope(frames_);
  for (ProcId i = 0; i < n; ++i) {
    Process& proc = procs_[static_cast<std::size_t>(i)];
    proc.attach(body(ProcCtx(&proc), i, n));
  }
}

void System::step(ProcId p) {
  Process& proc = process(p);
  if (proc.crashed()) {
    LLSC_EXPECTS(maybe_recover(p), "cannot step a crashed process");
    // An amnesiac restart leaves kNotStarted and falls into the start
    // branch below; a resumed frame continues at its suspension point.
  }
  LLSC_EXPECTS(!proc.halted(), "cannot step a halted process");
  if (proc.step_kind() == StepKind::kNotStarted) {
    proc.start();
    // Terminated without any step.
    if (proc.done()) note_step(proc, event_clock_);
    return;  // running to the first suspension point is local computation
  }
  if (proc.step_kind() == StepKind::kToss) {
    proc.deliver_toss(tosses_->outcome(p, proc.num_tosses()));
    note_step(proc, ++event_clock_);
    return;
  }
  if (maybe_crash(proc)) return;  // crash-stop instead of the pending op
  execute_pending_op(p);
}

std::uint64_t System::serve_tosses(ProcId p) {
  Process& proc = process(p);
  if (proc.step_kind() == StepKind::kNotStarted) proc.start();
  std::uint64_t served = 0;
  while (proc.step_kind() == StepKind::kToss) {
    proc.deliver_toss(tosses_->outcome(p, proc.num_tosses()));
    ++served;
  }
  return served;
}

void System::execute_pending_op(ProcId p, OpRecord* record) {
  deliver_applied(p, apply_pending_op(p, record));
}

System::AppliedOp System::apply_pending_op(ProcId p, OpRecord* record) {
  const Process& proc = process(p);
  LLSC_EXPECTS(!proc.crashed(), "cannot execute an op of a crashed process");
  const PendingOp& op = proc.pending_op();  // checks that an op is pending
  OpResult result =
      fault_ == nullptr
          ? memory_.apply(p, op)
          : fault_->apply(
                p, proc.shared_ops(), op,
                [&](const PendingOp& o) { return memory_.apply(p, o); },
                [](std::uint32_t) {
                  // A stall is schedule time, not wall time: the decision
                  // is counted (FaultStats) and the scheduler already owns
                  // when this process moves next.
                });
  const std::uint64_t step_index = next_step_index_++;
  if (record != nullptr) {
    // Taken before delivery: resuming the body re-arms the pending-op slot.
    record->proc = p;
    record->op = op;
    record->result = result;
    record->step_index = step_index;
  }
  return AppliedOp{.result = std::move(result), .clock = ++event_clock_};
}

void System::deliver_applied(ProcId p, AppliedOp&& applied) {
  Process& proc = process(p);
  proc.deliver_op_result(std::move(applied.result));
  note_step(proc, applied.clock);
}

void System::set_fault_injector(FaultInjector* injector) {
  LLSC_EXPECTS(injector == nullptr ||
                   injector->num_processes() >= num_processes(),
               "fault injector sized for fewer processes than the system");
  fault_ = injector;
}

bool System::maybe_crash(ProcId p) { return maybe_crash(process(p)); }

bool System::maybe_crash(Process& proc) {
  if (proc.crashed()) return true;
  if (fault_ == nullptr || proc.done()) return false;
  if (!fault_->take_crash(proc.id(), proc.shared_ops())) return false;
  proc.mark_crashed();
  return true;
}

bool System::maybe_recover(ProcId p) {
  Process& proc = process(p);
  if (!proc.crashed() || fault_ == nullptr) return false;
  RecoverySpec spec;
  if (!fault_->recovery_spec(p, &spec)) return false;
  // Pure accounting: the delay is charged to FaultStats::recovery_units;
  // the adversary owns schedule time here, so the rejoin takes effect at
  // whatever point the scheduler called us.
  fault_->note_recovery(p, spec);
  if (spec.amnesia) {
    memory_.invalidate_links(p);
    proc.restart(body_);
  } else {
    proc.mark_recovered();
  }
  return true;
}

bool System::runnable(ProcId p) const { return runnable(process(p)); }

bool System::runnable(const Process& proc) const {
  if (!proc.halted()) return true;
  RecoverySpec spec;
  return proc.crashed() && fault_ != nullptr &&
         fault_->recovery_spec(proc.id(), &spec);
}

bool System::all_done() const {
  return std::all_of(procs_.get(), procs_.get() + n_,
                     [](const Process& p) { return p.done(); });
}

bool System::all_halted() const {
  return std::none_of(procs_.get(), procs_.get() + n_,
                      [this](const Process& p) { return runnable(p); });
}

int System::num_crashed() const {
  return static_cast<int>(
      std::count_if(procs_.get(), procs_.get() + n_,
                    [](const Process& p) { return p.crashed(); }));
}

bool System::stamp_due(ProcId p) const {
  const Process& proc = process(p);
  const std::size_t i = static_cast<std::size_t>(p);
  return (first_event_[i] == 0 &&
          (proc.shared_ops() > 0 || proc.num_tosses() > 0)) ||
         (completion_event_[i] == 0 && proc.done());
}

void System::note_step(ProcId p, std::uint64_t clock) {
  note_step(process(p), clock);
}

void System::note_step(const Process& proc, std::uint64_t clock) {
  const std::size_t i = static_cast<std::size_t>(proc.id());
  const std::uint64_t at = clock == 0 ? 1 : clock;
  if (first_event_[i] == 0 &&
      (proc.shared_ops() > 0 || proc.num_tosses() > 0)) {
    first_event_[i] = at;
  }
  if (completion_event_[i] == 0 && proc.done()) completion_event_[i] = at;
}

std::uint64_t System::first_event(ProcId p) const {
  return first_event_[static_cast<std::size_t>(p)];
}

std::uint64_t System::completion_event(ProcId p) const {
  return completion_event_[static_cast<std::size_t>(p)];
}

std::uint64_t System::max_shared_ops() const {
  std::uint64_t best = 0;
  for (ProcId p = 0; p < n_; ++p) {
    best = std::max(best, procs_[static_cast<std::size_t>(p)].shared_ops());
  }
  return best;
}

}  // namespace llsc
