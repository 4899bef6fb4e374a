// Helpers shared by the (All,A)-run and (S,A)-run drivers: the round's
// partition and its phases 2-5, end-of-round snapshots, and the per-process
// history hash that stands in for the paper's state(p, r).
//
// A simulated process is a deterministic coroutine: its state after round r
// is a pure function of the sequence of operation results and coin-toss
// outcomes delivered to it. Toss outcomes are themselves a pure function of
// (process, toss index) via the pre-committed assignment, so hashing the
// issued operations and their results (plus the toss count, recorded
// separately in ProcSnapshot) pins state(p, r) down exactly — equal hashes
// and toss counts imply equal states.
#ifndef LLSC_CORE_SNAPSHOT_H_
#define LLSC_CORE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/round_record.h"
#include "runtime/system.h"

namespace llsc {

// Running-hash update for one executed operation (issued op + its result).
std::size_t combine_op_into_history(std::size_t h, const OpRecord& rec);

// Files live process `p`, whose Phase 1 left a pending shared-memory op,
// under that op's group in `rec` (a mover's (src, dst) also goes to
// rec.move_set). Returns the group.
OpGroup partition_process(const System& sys, ProcId p, RoundRecord& rec);

// Phases 2-5 of a partitioned round, memory side: applies the load group
// in id order, the move group in rec.sigma's order, then the swap and SC
// groups in id order (System::apply_pending_op), handing each applied op
// to on_applied(p, System::AppliedOp&&); the caller delivers it there or
// later (System::deliver_applied). When `hist` is non-null (a full log),
// each executed op is moved into rec.ops and folded into its process's
// running history hash, which only snapshots read. When null (a lean
// run), the ops' records are dropped.
template <typename OnApplied>
void apply_round(System& sys, RoundRecord& rec, std::vector<std::size_t>* hist,
                 OnApplied&& on_applied) {
  if (hist != nullptr) {
    rec.ops.reserve(rec.g_load.size() + rec.sigma.size() +
                    rec.g_swap.size() + rec.g_sc.size());
  }
  const auto apply = [&](ProcId p) {
    if (hist == nullptr) {
      on_applied(p, sys.apply_pending_op(p));
      return;
    }
    System::AppliedOp applied =
        sys.apply_pending_op(p, &rec.ops.emplace_back());
    std::size_t& h = (*hist)[static_cast<std::size_t>(p)];
    h = combine_op_into_history(h, rec.ops.back());
    on_applied(p, std::move(applied));
  };
  for (const ProcId p : rec.g_load) apply(p);
  for (const ProcId p : rec.sigma) apply(p);
  for (const ProcId p : rec.g_swap) apply(p);
  for (const ProcId p : rec.g_sc) apply(p);
}

// End-of-round snapshot of `sys` (every touched register, every process).
// `history_hashes` is the per-process running history hash maintained by
// the caller. It is snapshot_registers plus snapshot_process for every p;
// the adversary takes the two parts at different points of its round.
RoundSnapshot take_snapshot(const System& sys,
                            const std::vector<std::size_t>& history_hashes);
void snapshot_registers(const System& sys, RoundSnapshot& snap);
ProcSnapshot snapshot_process(const System& sys, ProcId p,
                              std::size_t history_hash);

}  // namespace llsc

#endif  // LLSC_CORE_SNAPSHOT_H_
