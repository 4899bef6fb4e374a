#include "runtime/system.h"

#include <algorithm>
#include <memory>

#include "util/check.h"

namespace llsc {

OpResult SimPlatform::apply(ProcId p, const PendingOp& op) {
  if (fault_ == nullptr) return memory_->apply(p, op);
  return fault_->apply(
      p, op, [&](const PendingOp& o) { return memory_->apply(p, o); },
      [](std::uint32_t) {
        // Deferred platform: a stall is schedule time, not wall time — the
        // decision is counted (FaultStats) and the adversary/scheduler
        // already owns when this process moves next.
      });
}

System::System(int n, const ProcBody& body,
               std::shared_ptr<const TossAssignment> tosses)
    : n_(n),
      procs_(make_processes(n)),
      body_(body),
      tosses_(tosses ? std::move(tosses)
                     : std::make_shared<ZeroTossAssignment>()),
      platform_(&memory_, tosses_.get()) {
  first_event_.assign(static_cast<std::size_t>(n), 0);
  completion_event_.assign(static_cast<std::size_t>(n), 0);
  for (ProcId i = 0; i < n; ++i) {
    Process& proc = procs_[static_cast<std::size_t>(i)];
    proc.set_platform(&platform_);
    proc.attach(body(ProcCtx(&proc), i, n));
  }
}

Process& System::process(ProcId p) {
  LLSC_EXPECTS(p >= 0 && p < n_, "process id out of range");
  return procs_[static_cast<std::size_t>(p)];
}

const Process& System::process(ProcId p) const {
  LLSC_EXPECTS(p >= 0 && p < n_, "process id out of range");
  return procs_[static_cast<std::size_t>(p)];
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
    if (proc.done()) note_step(proc);  // terminated without any step
    return;  // running to the first suspension point is local computation
  }
  if (proc.step_kind() == StepKind::kToss) {
    proc.deliver_toss(platform_.toss(p, proc.num_tosses()));
    ++event_clock_;
    note_step(proc);
    return;
  }
  if (maybe_crash(proc)) return;  // crash-stop instead of the pending op
  execute_pending_op(p);
}

std::uint64_t System::advance_through_tosses(ProcId p) {
  Process& proc = process(p);
  if (proc.step_kind() == StepKind::kNotStarted) proc.start();
  std::uint64_t served = 0;
  while (proc.step_kind() == StepKind::kToss) {
    proc.deliver_toss(platform_.toss(p, proc.num_tosses()));
    ++event_clock_;
    ++served;
  }
  note_step(proc);
  return served;
}

void System::execute_pending_op(ProcId p, OpRecord* record) {
  Process& proc = process(p);
  LLSC_EXPECTS(!proc.crashed(), "cannot execute an op of a crashed process");
  const PendingOp& op = proc.pending_op();  // checks that an op is pending
  OpResult result = platform_.apply(p, op);
  const std::uint64_t step_index = next_step_index_++;
  if (record != nullptr || recording_) {
    // Taken before delivery: resuming the body re-arms the pending-op slot.
    OpRecord& rec = recording_ ? trace_.emplace_back() : *record;
    rec.proc = p;
    rec.op = op;
    rec.result = result;
    rec.step_index = step_index;
    if (record != nullptr && recording_) *record = rec;
  }
  proc.deliver_op_result(std::move(result));
  ++event_clock_;
  note_step(proc);
}

void System::set_fault_injector(FaultInjector* injector) {
  LLSC_EXPECTS(injector == nullptr ||
                   injector->num_processes() >= num_processes(),
               "fault injector sized for fewer processes than the system");
  fault_ = injector;
  platform_.set_fault_injector(injector);
}

bool System::maybe_crash(ProcId p) { return maybe_crash(process(p)); }

bool System::maybe_crash(Process& proc) {
  if (proc.crashed()) return true;
  if (fault_ == nullptr || proc.done()) return false;
  if (!fault_->crash_pending(proc.id(), proc.shared_ops())) return false;
  proc.mark_crashed();
  fault_->note_crash(proc.id());
  return true;
}

bool System::maybe_recover(ProcId p) {
  Process& proc = process(p);
  if (!proc.crashed() || fault_ == nullptr) return false;
  RecoverySpec spec;
  if (!fault_->recovery_spec(p, &spec)) return false;
  // Pure accounting: the delay is charged to FaultStats::recovery_units;
  // on the deferred platform the adversary owns schedule time, so the
  // rejoin takes effect at whatever point the scheduler called us.
  fault_->note_recovery(p);
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
  return proc.crashed() && fault_ != nullptr &&
         fault_->recovery_pending(proc.id());
}

bool System::all_done() const {
  return std::all_of(procs_.get(), procs_.get() + n_,
                     [](const Process& p) { return p.done(); });
}

bool System::all_halted() const {
  return std::none_of(procs_.get(), procs_.get() + n_,
                      [this](const Process& p) { return runnable(p); });
}

int System::num_done() const {
  return static_cast<int>(
      std::count_if(procs_.get(), procs_.get() + n_,
                    [](const Process& p) { return p.done(); }));
}

int System::num_crashed() const {
  return static_cast<int>(
      std::count_if(procs_.get(), procs_.get() + n_,
                    [](const Process& p) { return p.crashed(); }));
}

void System::note_step(const Process& proc) {
  const std::size_t i = static_cast<std::size_t>(proc.id());
  if (first_event_[i] == 0 &&
      (proc.shared_ops() > 0 || proc.num_tosses() > 0)) {
    first_event_[i] = event_clock_ == 0 ? 1 : event_clock_;
  }
  if (completion_event_[i] == 0 && proc.done()) {
    completion_event_[i] = event_clock_ == 0 ? 1 : event_clock_;
  }
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
