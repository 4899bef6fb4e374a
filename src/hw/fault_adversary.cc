#include "hw/fault_adversary.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace llsc {

AdaptiveAdversary::AdaptiveAdversary(int num_processes)
    : n_(num_processes), live_links_(static_cast<std::size_t>(num_processes)) {
  know_.reserve(static_cast<std::size_t>(n_));
  for (ProcId p = 0; p < n_; ++p) know_.push_back(ProcSet::singleton(n_, p));
}

const ProcSet& AdaptiveAdversary::reg_knowledge(RegId reg) {
  return reg_know_.try_emplace(reg, n_).first->second;
}

void AdaptiveAdversary::learn_from(ProcId p, RegId reg) {
  know_[static_cast<std::size_t>(p)].unite(reg_knowledge(reg));
}

void AdaptiveAdversary::publish(ProcId p, RegId reg) {
  reg_know_[reg] = know_[static_cast<std::size_t>(p)];
}

void AdaptiveAdversary::invalidate_links(RegId reg) {
  for (auto& links : live_links_) links.erase(reg);
}

void AdaptiveAdversary::on_amnesia(ProcId p) {
  if (p < 0 || p >= n_) return;
  know_[static_cast<std::size_t>(p)] = ProcSet::singleton(n_, p);
  live_links_[static_cast<std::size_t>(p)].clear();
}

bool AdaptiveAdversary::has_live_link(ProcId p, RegId reg) const {
  return live_links_[static_cast<std::size_t>(p)].count(reg) != 0;
}

std::size_t AdaptiveAdversary::knowledge(ProcId p) const {
  LLSC_EXPECTS(p >= 0 && p < n_, "process id out of range");
  return know_[static_cast<std::size_t>(p)].count();
}

std::size_t AdaptiveAdversary::max_knowledge() const {
  std::size_t best = 0;
  for (const ProcSet& s : know_) best = std::max(best, s.count());
  return best;
}

ProcId AdaptiveAdversary::argmax_knowledge() const {
  const std::size_t best = max_knowledge();
  for (ProcId p = 0; p < n_; ++p) {
    if (know_[static_cast<std::size_t>(p)].count() == best) return p;
  }
  return -1;
}

bool AdaptiveAdversary::targets(ProcId p, RegId reg) {
  if (!has_live_link(p, reg)) return false;
  // Sticky: keep the current target while it remains an argmax, so the
  // budget starves one victim instead of spraying across ties.
  if (target_ < 0 || knowledge(target_) != max_knowledge()) {
    target_ = argmax_knowledge();
  }
  return p == target_;
}

void AdaptiveAdversary::observe(ProcId p, const PendingOp& op,
                                const OpResult& result) {
  if (p < 0 || p >= n_) return;
  switch (op.kind) {
    case OpKind::kLL:
      // Section 5.3 process rule 1: a load observes the register's
      // knowledge; a fresh link supersedes a lost one.
      learn_from(p, op.reg);
      live_links_[static_cast<std::size_t>(p)].insert(op.reg);
      break;
    case OpKind::kValidate:
      learn_from(p, op.reg);
      if (!result.flag) live_links_[static_cast<std::size_t>(p)].erase(op.reg);
      break;
    case OpKind::kSC:
      // A failed SC still reports the current value (learn); a
      // successful one additionally determines it (register rule 1) and
      // consumes every outstanding reservation on the register.
      learn_from(p, op.reg);
      if (result.flag) {
        publish(p, op.reg);
        invalidate_links(op.reg);
      } else {
        live_links_[static_cast<std::size_t>(p)].erase(op.reg);
      }
      break;
    case OpKind::kSwap:
      // Swapper reads the old value, then determines the new one
      // (register rule 2); the write kills outstanding links.
      learn_from(p, op.reg);
      publish(p, op.reg);
      invalidate_links(op.reg);
      break;
    case OpKind::kMove: {
      // Register rule 3: destination gets source knowledge plus the
      // mover's; process rule 2: the mover itself learns nothing.
      ProcSet influx = reg_knowledge(op.src);
      influx.unite(know_[static_cast<std::size_t>(p)]);
      reg_know_[op.reg] = std::move(influx);
      invalidate_links(op.reg);
      break;
    }
    case OpKind::kRmw:
      learn_from(p, op.reg);
      publish(p, op.reg);
      invalidate_links(op.reg);
      break;
  }
}

}  // namespace llsc
