// UP-set bookkeeping (paper Section 5.3).
//
// For a run structured by the Fig. 2 adversary, UP(p, r) is the set of
// processes p could possibly know to be "up" (to have taken a step) by the
// end of round r, and UP(R, r) is the set inferable from register R's value
// at the end of round r. The update rules are conservative upper bounds on
// information flow through each of the five operations:
//
//   registers:  a successful SC installs the writer's knowledge; swaps
//   install the last swapper's; moves install the source register's
//   knowledge plus that of the (at most two, by Lemma 4.1) movers; an
//   untouched register keeps yesterday's set.
//
//   processes:  loads and successful SCs acquire the register's previous
//   set; an unsuccessful SC may observe the value written this round, so it
//   acquires the register's *new* set; the first swapper acquires what the
//   register held (through moves, if any); later swappers acquire the
//   previous swapper's set (they read what that swapper wrote); movers
//   learn nothing (move returns only an ack).
//
// Lemma 5.1: every UP set has size at most 4^r after r rounds — each rule
// unions at most four sets. The tracker records the per-round maximum so
// the lemma can be checked empirically (and its failure demonstrated when
// the secretive move schedule is ablated).
#ifndef LLSC_CORE_UP_TRACKER_H_
#define LLSC_CORE_UP_TRACKER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/round_record.h"
#include "memory/proc_set.h"

namespace llsc {

class UpTracker {
 public:
  explicit UpTracker(int n);

  // Incorporate one more round (records must be fed in round order).
  void advance(const RoundRecord& rec);

  // Convenience: track a whole run log (a full one; a lean log fails
  // "lean log: no round records").
  static UpTracker over(const RunLog& log);

  int num_rounds() const { return static_cast<int>(proc_up_.size()) - 1; }

  // UP(p, r): 0 <= r <= num_rounds().
  const ProcSet& up_process(ProcId p, int r) const;
  // UP(R, r); registers never written have the empty set.
  const ProcSet& up_register(RegId reg, int r) const;

  // max over all processes and registers of |UP(X, r)|.
  std::size_t max_up_size(int r) const;
  // 4^r saturated to SIZE_MAX (the Lemma 5.1 bound).
  static std::size_t lemma51_bound(int r);
  // True iff max_up_size(r) <= min(4^r, n) for all r so far.
  bool lemma51_holds() const;

 private:
  const ProcSet& reg_at(const std::map<RegId, ProcSet>& regs, RegId r) const;

  int n_;
  ProcSet empty_;
  // proc_up_[r][p] = UP(p, r); reg_up_[r] maps touched registers only.
  std::vector<std::vector<ProcSet>> proc_up_;
  std::vector<std::map<RegId, ProcSet>> reg_up_;
};

}  // namespace llsc

#endif  // LLSC_CORE_UP_TRACKER_H_
