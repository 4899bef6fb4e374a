// Adaptive fault placement: the paper's Fig. 2 adversary, aimed through
// the fault layer.
//
// Oblivious placement (hw/fault.h) fails an SC/VL on a pure hash of
// (seed, proc, op-index). The paper's Fig. 2 adversary does not: it
// watches what every process could have *learned* and aims its
// interference at the most knowledgeable one, which is what drives the
// Omega(log n) rounds of Theorem 6.1 (knowledge at most quadruples per
// round, Lemma 5.1). AdaptiveAdversary gives FaultInjector that target:
//
//   * knowledge — the same bookkeeping as core/up_tracker, on the same
//     ProcSet (memory/proc_set.h): know(p) per process, know(r) per
//     register, unions on LL/SC/swap/move/RMW exactly as in Section 5.3,
//     plus which LL links are live. The rules see raw shared-memory ops
//     only, so one instance accounts for a wakeup, TAS or leader-election
//     run alike.
//   * target — the lowest-id argmax of |know(p)|, sticky: it is re-picked
//     only when the current target stops being an argmax, so the budget
//     starves one victim the way the paper's adversary starves one winner.
//
// The budget, the decision record and the locking live in FaultInjector;
// this class is the unsynchronized state machine behind them. Its
// decisions are a function of the observed op history only (pinned by the
// E13 golden-trace test in tests/hw_fault_adversary_test.cc).
#ifndef LLSC_HW_FAULT_ADVERSARY_H_
#define LLSC_HW_FAULT_ADVERSARY_H_

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "memory/op.h"
#include "memory/proc_set.h"

namespace llsc {

class AdaptiveAdversary final {
 public:
  explicit AdaptiveAdversary(int num_processes);

  // Fold one executed op and its result into the Section 5.3 knowledge
  // state. Ops of processes outside [0, n) are ignored.
  void observe(ProcId p, const PendingOp& op, const OpResult& result);

  // An amnesiac rejoin: p knows only itself and holds no live links (its
  // dead predecessor's reservations were invalidated, not adopted). The
  // sticky target may now point at a process that forgot everything; the
  // next targets() call re-picks the argmax.
  void on_amnesia(ProcId p);

  // Whether the adversary fails p's SC/VL on `reg`. It spends nothing on
  // an SC that fails naturally, so p must hold a live link on `reg`; then
  // the sticky argmax is refreshed and p must be it.
  bool targets(ProcId p, RegId reg);

  bool has_live_link(ProcId p, RegId reg) const;
  std::size_t knowledge(ProcId p) const;  // |know(p)|
  std::size_t max_knowledge() const;
  // Lowest process id attaining max_knowledge().
  ProcId argmax_knowledge() const;
  // The sticky target; -1 before the first targets() call with a live link.
  ProcId current_target() const { return target_; }

 private:
  const ProcSet& reg_knowledge(RegId reg);
  void learn_from(ProcId p, RegId reg);  // know(p) |= know(reg)
  void publish(ProcId p, RegId reg);     // know(reg) = know(p)
  void invalidate_links(RegId reg);      // everyone's link on reg dies

  const int n_;
  std::vector<ProcSet> know_;                    // know(p), Section 5.3
  std::unordered_map<RegId, ProcSet> reg_know_;  // know(r)
  std::vector<std::unordered_set<RegId>> live_links_;
  ProcId target_ = -1;
};

}  // namespace llsc

#endif  // LLSC_HW_FAULT_ADVERSARY_H_
