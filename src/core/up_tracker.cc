#include "core/up_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace llsc {

UpTracker::UpTracker(int n) : n_(n), empty_(n) {
  // Round 0: UP(p, 0) = {p}, UP(R, 0) = {} for every register.
  std::vector<ProcSet> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) procs.push_back(ProcSet::singleton(n, p));
  proc_up_.push_back(std::move(procs));
  reg_up_.emplace_back();
}

UpTracker UpTracker::over(const RunLog& log) {
  UpTracker tracker(log.n);
  for (int r = 1; r <= log.num_rounds(); ++r) tracker.advance(log.round(r));
  return tracker;
}

const ProcSet& UpTracker::reg_at(const std::map<RegId, ProcSet>& regs,
                                 RegId r) const {
  const auto it = regs.find(r);
  return it == regs.end() ? empty_ : it->second;
}

void UpTracker::advance(const RoundRecord& rec) {
  const std::vector<ProcSet>& prev_proc = proc_up_.back();
  const std::map<RegId, ProcSet>& prev_reg = reg_up_.back();

  // Classify this round's operations per register.
  struct RegEvents {
    ProcId successful_sc = -1;
    std::vector<ProcId> swappers;  // in execution order
    bool moved_into = false;
  };
  std::map<RegId, RegEvents> events;
  for (const OpRecord& op : rec.ops) {
    switch (op.op.kind) {
      case OpKind::kSC:
        if (op.result.flag) {
          LLSC_CHECK(events[op.op.reg].successful_sc == -1,
                     "at most one SC per register can succeed per round");
          events[op.op.reg].successful_sc = op.proc;
        }
        break;
      case OpKind::kSwap:
        events[op.op.reg].swappers.push_back(op.proc);
        break;
      case OpKind::kMove:
        events[op.op.reg].moved_into = true;
        break;
      case OpKind::kLL:
      case OpKind::kValidate:
        break;
      case OpKind::kRmw:
        LLSC_UNREACHABLE("the adversary never schedules RMW steps");
    }
  }

  // The move analysis of sigma_r with respect to (G_{2,r}, f_r).
  const MoveAnalysis moves(rec.move_set, rec.sigma);

  // UP-of-source ∪ UPs-of-movers for a register some move targeted.
  const auto move_influx = [&](RegId r) {
    ProcSet s = reg_at(prev_reg, moves.source(r));
    for (const ProcId q : moves.movers(r)) {
      s.unite(prev_proc[static_cast<std::size_t>(q)]);
    }
    return s;
  };

  // --- register update rules ---
  std::map<RegId, ProcSet> new_reg = prev_reg;
  for (const auto& [r, ev] : events) {
    if (ev.successful_sc != -1) {
      // Rule 1: the successful SC's writer determines the value.
      new_reg[r] = prev_proc[static_cast<std::size_t>(ev.successful_sc)];
    } else if (!ev.swappers.empty()) {
      // Rule 2: the last swapper determines the value.
      new_reg[r] =
          prev_proc[static_cast<std::size_t>(ev.swappers.back())];
    } else if (ev.moved_into) {
      // Rule 3: the moved-in source value, enabled by the movers.
      new_reg[r] = move_influx(r);
    }
    // Rule 4 (no change) is the default: new_reg already copied prev_reg.
  }

  // --- process update rules ---
  std::vector<ProcSet> new_proc = prev_proc;
  for (const OpRecord& op : rec.ops) {
    ProcSet& up = new_proc[static_cast<std::size_t>(op.proc)];
    const RegId r = op.op.reg;
    switch (op.op.kind) {
      case OpKind::kLL:
      case OpKind::kValidate:
        // Rule 1: loads in Phase 2 observe end-of-round-(r-1) values.
        up.unite(reg_at(prev_reg, r));
        break;
      case OpKind::kMove:
        // Rule 2: move returns only an ack; no information gained.
        break;
      case OpKind::kSwap: {
        const auto& swappers = events.at(r).swappers;
        if (swappers.front() == op.proc) {
          if (!events.at(r).moved_into) {
            // Rule 3: the first swapper reads the end-of-(r-1) value.
            up.unite(reg_at(prev_reg, r));
          } else {
            // Rule 4: the first swapper reads what the moves brought in.
            up.unite(move_influx(r));
          }
        } else {
          // Rule 5: a later swapper reads what the previous swapper wrote.
          const auto it =
              std::find(swappers.begin(), swappers.end(), op.proc);
          LLSC_CHECK(it != swappers.end() && it != swappers.begin());
          up.unite(prev_proc[static_cast<std::size_t>(*(it - 1))]);
        }
        break;
      }
      case OpKind::kSC:
        if (op.result.flag) {
          // Rule 6: a successful SC returns the end-of-(r-1) value.
          up.unite(reg_at(prev_reg, r));
        } else {
          // Rule 7: an unsuccessful SC may observe this round's new value.
          up.unite(reg_at(new_reg, r));
        }
        break;
      case OpKind::kRmw:
        LLSC_UNREACHABLE("the adversary never schedules RMW steps");
    }
  }
  // Rule 8 (no operation -> unchanged) is the default via the copy.

  proc_up_.push_back(std::move(new_proc));
  reg_up_.push_back(std::move(new_reg));
}

const ProcSet& UpTracker::up_process(ProcId p, int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  LLSC_EXPECTS(p >= 0 && p < n_, "process out of range");
  return proc_up_[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
}

const ProcSet& UpTracker::up_register(RegId reg, int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  return reg_at(reg_up_[static_cast<std::size_t>(r)], reg);
}

std::size_t UpTracker::max_up_size(int r) const {
  LLSC_EXPECTS(r >= 0 && r <= num_rounds(), "round out of range");
  std::size_t best = 0;
  for (const ProcSet& s : proc_up_[static_cast<std::size_t>(r)]) {
    best = std::max(best, s.count());
  }
  for (const auto& [_, s] : reg_up_[static_cast<std::size_t>(r)]) {
    best = std::max(best, s.count());
  }
  return best;
}

std::size_t UpTracker::lemma51_bound(int r) {
  std::size_t bound = 1;
  for (int i = 0; i < r; ++i) {
    if (bound > (~std::size_t{0}) / 4) return ~std::size_t{0};
    bound *= 4;
  }
  return bound;
}

bool UpTracker::lemma51_holds() const {
  for (int r = 0; r <= num_rounds(); ++r) {
    if (max_up_size(r) > lemma51_bound(r)) return false;
  }
  return true;
}

}  // namespace llsc
