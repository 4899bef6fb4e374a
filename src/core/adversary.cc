#include "core/adversary.h"

#include <algorithm>

#include "core/snapshot.h"
#include "util/check.h"
#include "util/rng.h"

namespace llsc {

std::size_t combine_op_into_history(std::size_t h, const OpRecord& rec) {
  h = mix64(h ^ static_cast<std::size_t>(rec.op.kind));
  h = mix64(h ^ rec.op.reg);
  h = mix64(h ^ rec.op.src);
  h = mix64(h ^ rec.op.arg.hash());
  h = mix64(h ^ (rec.result.flag ? 0x51u : 0xA3u));
  h = mix64(h ^ rec.result.value.hash());
  return h;
}

OpGroup partition_process(const System& sys, ProcId p, RoundRecord& rec) {
  const Process& proc = sys.process(p);
  LLSC_CHECK(proc.step_kind() == StepKind::kOp,
             "phase 1 must leave a pending shared-memory op");
  const PendingOp& op = proc.pending_op();
  const OpGroup group = op_group(op.kind);
  switch (group) {
    case OpGroup::kLoad:
      rec.g_load.push_back(p);
      break;
    case OpGroup::kMove:
      rec.g_move.push_back(p);
      rec.move_set.push_back(MoveOp{.proc = p, .src = op.src, .dst = op.reg});
      break;
    case OpGroup::kSwap:
      rec.g_swap.push_back(p);
      break;
    case OpGroup::kStoreConditional:
      rec.g_sc.push_back(p);
      break;
  }
  return group;
}

void execute_round(System& sys, RoundRecord& rec,
                   std::vector<std::size_t>* hist) {
  if (hist != nullptr) {
    rec.ops.reserve(rec.g_load.size() + rec.sigma.size() +
                    rec.g_swap.size() + rec.g_sc.size());
  }
  const auto execute = [&](ProcId p) {
    if (hist == nullptr) {
      sys.execute_pending_op(p);
      return;
    }
    sys.execute_pending_op(p, &rec.ops.emplace_back());
    std::size_t& h = (*hist)[static_cast<std::size_t>(p)];
    h = combine_op_into_history(h, rec.ops.back());
  };
  for (const ProcId p : rec.g_load) execute(p);
  for (const ProcId p : rec.sigma) execute(p);
  for (const ProcId p : rec.g_swap) execute(p);
  for (const ProcId p : rec.g_sc) execute(p);
}

RoundSnapshot take_snapshot(const System& sys,
                            const std::vector<std::size_t>& history_hashes) {
  RoundSnapshot snap;
  const int n = sys.num_processes();
  snap.procs.resize(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const Process& proc = sys.process(p);
    ProcSnapshot& ps = snap.procs[static_cast<std::size_t>(p)];
    ps.num_tosses = proc.num_tosses();
    ps.shared_ops = proc.shared_ops();
    ps.history_hash = history_hashes[static_cast<std::size_t>(p)];
    ps.done = proc.done();
    if (ps.done) ps.result = proc.result();
  }
  for (const RegId r : sys.memory().touched_registers()) {
    RegSnapshot rs;
    rs.value = sys.memory().peek_value(r);
    rs.pset = sys.memory().peek_pset(r);
    snap.regs.emplace(r, std::move(rs));
  }
  return snap;
}

RunLog run_adversary(System& sys, const AdversaryOptions& options) {
  const int n = sys.num_processes();
  RunLog log;
  log.n = n;
  std::vector<std::size_t> hist(static_cast<std::size_t>(n), 0);
  if (options.record_snapshots) log.initial = take_snapshot(sys, hist);

  for (int round = 1; round <= options.max_rounds; ++round) {
    // all_halted, not all_done: with injected crash-stops (hw/fault.h)
    // the remaining rounds would otherwise be empty spins to max_rounds.
    if (sys.all_halted()) break;

    RoundRecord rec;
    rec.round = round;

    // Phase 1: local coin tosses until termination or a pending op, and
    // the partition of live processes by the group of that op, in one pass
    // (Phase 1 of p never changes another process's pending op). A process
    // whose crash point is reached halts here, before its op is
    // partitioned (crashes happen only at op boundaries). A crashed
    // process whose RecoverySpec still owes it a restart rejoins at the
    // top of the round — the earliest op boundary after its crash, which
    // is also where the hw workers respawn it.
    for (ProcId p = 0; p < n; ++p) {
      Process& proc = sys.process(p);
      if (proc.crashed() && !sys.maybe_recover(p)) continue;
      if (proc.halted()) continue;
      sys.advance_through_tosses(p);
      if (proc.done()) {
        rec.terminated_in_phase1.push_back(p);
        continue;
      }
      if (sys.maybe_crash(p)) continue;
      partition_process(sys, p, rec);
    }

    // Phases 2-5: loads, then moves in secretive-complete-schedule order,
    // then swaps and SCs.
    rec.sigma = options.secretive_moves
                    ? secretive_complete_schedule(rec.move_set)
                    : rec.g_move;  // ablation: id order
    execute_round(sys, rec, options.record_snapshots ? &hist : nullptr);

    log.round_count = round;
    if (options.record_snapshots) {
      log.rounds.push_back(std::move(rec));
      log.snapshots.push_back(take_snapshot(sys, hist));
    }
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace llsc
