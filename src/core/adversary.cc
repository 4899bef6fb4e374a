#include "core/adversary.h"

#include <algorithm>
#include <vector>

#include "core/s_run.h"
#include "util/check.h"
#include "util/crew.h"
#include "util/rng.h"

namespace llsc {

namespace {

// A simulated process is a deterministic coroutine: its state after round r
// is a pure function of the operation results and coin-toss outcomes
// delivered to it, and toss outcomes are a pure function of (process, toss
// index). So a running hash of the issued ops and their results, plus the
// toss count (ProcSnapshot), pins the paper's state(p, r) down exactly.
std::size_t combine_op_into_history(std::size_t h, const OpRecord& rec) {
  h = mix64(h ^ static_cast<std::size_t>(rec.op.kind));
  h = mix64(h ^ rec.op.reg);
  h = mix64(h ^ rec.op.src);
  h = mix64(h ^ rec.op.arg.hash());
  h = mix64(h ^ (rec.result.flag ? 0x51u : 0xA3u));
  h = mix64(h ^ rec.result.value.hash());
  return h;
}

// Files live process `p`, whose Phase 1 left a pending shared-memory op,
// under that op's group in `rec` (a mover's (src, dst) also goes to
// rec.move_set).
void partition_process(const System& sys, ProcId p, RoundRecord& rec) {
  const Process& proc = sys.process(p);
  LLSC_CHECK(proc.step_kind() == StepKind::kOp,
             "phase 1 must leave a pending shared-memory op");
  const PendingOp& op = proc.pending_op();
  switch (op_group(op.kind)) {
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
}

// Phases 2-5 of a partitioned round, memory side: applies the load group
// in id order, the move group in rec.sigma's order, then the swap and SC
// groups in id order (System::apply_pending_op), handing each applied op
// to on_applied(p, System::AppliedOp&&) for the pass to deliver. When
// `hist` is non-null (a full log), each executed op is moved into rec.ops
// and folded into its process's running history hash, which only
// snapshots read. When null (a lean run), the ops' records are dropped.
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

// The register half of an end-of-round snapshot: every touched register.
void snapshot_registers(const System& sys, RoundSnapshot& snap) {
  for (const RegId r : sys.memory().touched_registers()) {
    RegSnapshot rs;
    rs.value = sys.memory().peek_value(r);
    rs.pset = sys.memory().peek_pset(r);
    snap.regs.emplace(r, std::move(rs));
  }
}

// The process half, one process at a time.
ProcSnapshot snapshot_process(const System& sys, ProcId p,
                              std::size_t history_hash) {
  const Process& proc = sys.process(p);
  ProcSnapshot ps;
  ps.num_tosses = proc.num_tosses();
  ps.shared_ops = proc.shared_ops();
  ps.history_hash = history_hash;
  ps.done = proc.done();
  if (ps.done) ps.result = proc.result();
  return ps;
}

// What makes a run the (S,A)-run of Fig. 3 rather than the (All,A)-run of
// Fig. 2 (core/s_run.h).
struct SRun {
  const RunLog& all_log;
  const UpTracker& up;
  const ProcSet& s;

  // Whether p runs Phase 1 of round r + 1: only if its knowledge entering
  // that round, UP(p, r), stays within S. A process outside S never starts.
  bool admits(ProcId p, int r) const {
    return up.up_process(p, r).subset_of(s);
  }

  // Claims A.2/A.3 for round r, whose partition `rec` holds: a process
  // scheduled in both runs performs the same kind of operation in both
  // (A.2), so each group of the (S,A)-run is contained in the
  // (All,A)-run's group of the same kind. For the move group this is A.3,
  // S_{2,r} ⊆ G_{2,r}, which makes sigma_r | S_{2,r} well defined.
  void check_claims(const RoundRecord& rec, int r) const {
    const RoundRecord& all = all_log.round(r);
    const auto within = [](const std::vector<ProcId>& group,
                           const std::vector<ProcId>& all_group) {
      LLSC_CHECK(std::is_sorted(all_group.begin(), all_group.end()),
                 "(All,A)-run group not in id order");
      return std::includes(all_group.begin(), all_group.end(), group.begin(),
                           group.end());
    };
    LLSC_CHECK(within(rec.g_load, all.g_load) &&
                   within(rec.g_swap, all.g_swap) &&
                   within(rec.g_sc, all.g_sc),
               "Claim A.2 violated: operation group differs between "
               "(All,A)-run and (S,A)-run");
    LLSC_CHECK(within(rec.g_move, all.g_move),
               "Claim A.2/A.3 violated: S-run mover absent from sigma_r");
  }
};

// Fewest processes per thread under threads = 0. Measured with the lean
// tournament run on a 4-core x86-64 virtual machine (GCC 12,
// RelWithDebInfo), median of 11 runs, 1 / 2 / 4 threads: n = 512: 3.6 /
// 4.3 / 3.8 ms; n = 1024: 8.0 / 7.8 / 6.9 ms; n = 2048: 20 / 17 / 15 ms;
// n = 8192: 70 / 56 / 52 ms. A second thread pays from about 1024
// processes, so each thread gets at least 512.
constexpr int kMinProcsPerThread = 512;

void clear_round(RoundRecord& rec) {
  rec.round = 0;
  rec.g_load.clear();
  rec.g_move.clear();
  rec.g_swap.clear();
  rec.g_sc.clear();
  rec.move_set.clear();
  rec.sigma.clear();
  rec.ops.clear();
  rec.terminated_in_phase1.clear();
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// The per-process half of a round, after the round's ops were applied:
// resume each body on its result, stamp its events, take its part of the
// end-of-round snapshot, count it if it can still step, and run its Phase 1
// of the next round (in an (S,A)-run, only if S_{r+1} admits it). The ids
// are cut into contiguous chunks; concatenating the chunks' group lists in
// chunk order gives the id-ordered lists that one pass over all ids gives,
// whichever thread ran which chunk.
class RoundPass {
 public:
  RoundPass(System& sys, int threads, const std::vector<std::size_t>* hist,
            const SRun* s_run)
      : sys_(sys),
        hist_(hist),
        s_run_(s_run),
        applied_(static_cast<std::size_t>(sys.num_processes())),
        chunks_(static_cast<std::size_t>(chunk_count(sys, threads))),
        crew_(threads, static_cast<int>(chunks_.size()),
              [this](int, int c) { run_chunk(c); }) {
    if (threads == 1) return;
    // A chunk adds at most one entry per process to each list, so these
    // never grow on a worker: a worker's first allocation would give it a
    // heap of its own (glibc), whose pages stay mapped after the run.
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      Chunk& ch = chunks_[c];
      const auto size = static_cast<std::size_t>(hi(c) - lo(c));
      ch.stamps.reserve(size);
      ch.part.g_load.reserve(size);
      ch.part.g_move.reserve(size);
      ch.part.g_swap.reserve(size);
      ch.part.g_sc.reserve(size);
      ch.part.move_set.reserve(size);
      ch.part.terminated_in_phase1.reserve(size);
    }
  }

  // p's op this round, applied and awaiting delivery.
  void hold(ProcId p, System::AppliedOp&& op) {
    applied_[static_cast<std::size_t>(p)] = std::move(op);
  }

  // Runs the pass that ends round `round` (0: before round 1). `next`
  // (empty) receives the next round's partition when `phase1` is on;
  // `snap`, when non-null, receives every process's snapshot. Returns the
  // number of processes that can still step (System::runnable) as the pass
  // found them before Phase 1. The first pass starts the bodies, so it runs
  // on the calling thread: the frames a body allocates when it starts then
  // come from the caller's heap, as they do with one thread.
  int run(RoundRecord& next, RoundSnapshot* snap, bool phase1, int round) {
    const int n = sys_.num_processes();
    if (snap != nullptr) snap->procs.resize(static_cast<std::size_t>(n));
    next_ = &next;
    snap_ = snap;
    phase1_ = phase1;
    round_ = round;
    crew_.run(/*here=*/round == 0);
    // Phase 1's toss clock values: a chunk counted its tosses from 0, and
    // the chunks before it took `clock - event_clock()` tosses.
    int runnable = 0;
    std::uint64_t clock = sys_.event_clock();
    for (const Chunk& ch : chunks_) {
      if (chunks_.size() > 1) {
        append(next.g_load, ch.part.g_load);
        append(next.g_move, ch.part.g_move);
        append(next.g_swap, ch.part.g_swap);
        append(next.g_sc, ch.part.g_sc);
        append(next.move_set, ch.part.move_set);
        append(next.terminated_in_phase1, ch.part.terminated_in_phase1);
      }
      for (const Stamp& st : ch.stamps) {
        sys_.note_step(st.proc, clock + st.tosses);
      }
      clock += ch.tosses;
      runnable += ch.runnable;
    }
    sys_.advance_clock(clock - sys_.event_clock());
    return runnable;
  }

 private:
  // A Phase-1 event stamp whose clock value is known only after the join:
  // the chunk's tosses up to and including p's.
  struct Stamp {
    ProcId proc;
    std::uint64_t tosses;
  };
  struct Chunk {
    RoundRecord part;  // a lone chunk writes the round's record instead
    std::uint64_t tosses = 0;
    std::vector<Stamp> stamps;
    int runnable = 0;
  };

  // Several chunks per thread, so a slow core holds back little; one with
  // one thread.
  static int chunk_count(const System& sys, int threads) {
    constexpr int kChunksPerThread = 8;
    return threads == 1
               ? 1
               : std::min(sys.num_processes(), threads * kChunksPerThread);
  }

  // Chunk c covers ids [lo(c), hi(c)).
  ProcId lo(std::size_t c) const {
    return static_cast<ProcId>(static_cast<long long>(sys_.num_processes()) *
                               static_cast<long long>(c) /
                               static_cast<long long>(chunks_.size()));
  }
  ProcId hi(std::size_t c) const { return lo(c + 1); }

  void run_chunk(int c) {
    const auto i = static_cast<std::size_t>(c);
    Chunk& ch = chunks_[i];
    RoundRecord& rec = chunks_.size() == 1 ? *next_ : ch.part;
    if (chunks_.size() > 1) clear_round(rec);
    ch.tosses = 0;
    ch.stamps.clear();
    ch.runnable = 0;
    for (ProcId p = lo(i), end = hi(i); p < end; ++p) step(p, ch, rec);
  }

  void step(ProcId p, Chunk& ch, RoundRecord& rec) {
    const std::size_t i = static_cast<std::size_t>(p);
    System::AppliedOp& op = applied_[i];
    if (op.clock != 0) {
      sys_.deliver_applied(p, std::move(op));
      op.clock = 0;
    }
    if (snap_ != nullptr) {
      snap_->procs[i] = snapshot_process(sys_, p, (*hist_)[i]);
    }
    // all_halted, not all_done: with injected crash-stops (hw/fault.h)
    // the remaining rounds would otherwise be empty spins to max_rounds.
    Process& proc = sys_.process(p);
    if (proc.halted() && !sys_.runnable(p)) return;
    ++ch.runnable;
    if (!phase1_ || (s_run_ != nullptr && !s_run_->admits(p, round_))) {
      return;
    }

    // Phase 1: local coin tosses until termination or a pending op, and
    // the partition by the group of that op. A process whose crash point
    // is reached halts here, before its op is partitioned (crashes happen
    // only at op boundaries). A crashed process whose RecoverySpec still
    // owes it a restart rejoins at the top of the round — the earliest op
    // boundary after its crash, which is also where the hw workers respawn
    // it.
    if (proc.crashed() && !sys_.maybe_recover(p)) return;
    if (proc.halted()) return;
    const bool starting = proc.step_kind() == StepKind::kNotStarted;
    const std::uint64_t served = sys_.serve_tosses(p);
    ch.tosses += served;
    // The resume above stamped whatever the op left due; only a start or
    // a toss can leave a stamp due now.
    if ((starting || served > 0) && sys_.stamp_due(p)) {
      ch.stamps.push_back({p, ch.tosses});
    }
    if (proc.done()) {
      rec.terminated_in_phase1.push_back(p);
      return;
    }
    if (sys_.maybe_crash(p)) return;
    partition_process(sys_, p, rec);
  }

  System& sys_;
  const std::vector<std::size_t>* hist_;
  const SRun* s_run_;  // null in an (All,A)-run
  // Each process's op this round, applied and not yet delivered; clock 0
  // when it had none. Kept apart from the Process blocks, so the apply
  // step only reads the blocks the chunks write.
  std::vector<System::AppliedOp> applied_;
  std::vector<Chunk> chunks_;
  RoundRecord* next_ = nullptr;
  RoundSnapshot* snap_ = nullptr;
  bool phase1_ = false;
  int round_ = 0;
  Crew crew_;
};

// The round loop of both runs. Fig. 3 is Fig. 2 restricted to S: its
// round r schedules only S_r (RoundPass), runs its movers in the order
// sigma_r | S_{2,r}, and lasts exactly as many rounds as the (All,A)-run.
RunLog run_rounds(System& sys, const AdversaryOptions& options,
                  const SRun* s_run) {
  const int n = sys.num_processes();
  const bool full = options.record_snapshots;
  RunLog log;
  log.n = n;
  std::vector<std::size_t> hist(full ? static_cast<std::size_t>(n) : 0, 0);
  const int threads = crew_size(options.threads, n, kMinProcsPerThread);
  // Injector calls (decisions, adaptive placement, crash and recovery
  // bookkeeping) must keep their one order.
  RoundPass pass(sys, sys.injects_faults() ? 1 : threads,
                 full ? &hist : nullptr, s_run);
  if (full) snapshot_registers(sys, log.initial);

  // Round 1's Phase 1; no body has an op to resume yet.
  RoundRecord rec;
  int runnable = pass.run(rec, full ? &log.initial : nullptr,
                          /*phase1=*/options.max_rounds >= 1, /*round=*/0);
  for (int round = 1;
       round <= options.max_rounds && (runnable > 0 || s_run != nullptr);
       ++round) {
    rec.round = round;
    // Phases 2-5: loads, then moves in the order sigma_r, then swaps and
    // SCs, applied to memory in that order. sigma_r is a secretive complete
    // schedule, or in an (S,A)-run the (All,A)-run's restricted to S_{2,r}.
    if (s_run != nullptr) {
      s_run->check_claims(rec, round);
      rec.sigma = restrict_schedule(s_run->all_log.round(round).sigma,
                                    rec.g_move);
    } else {
      rec.sigma = options.secretive_moves
                      ? secretive_complete_schedule(rec.move_set)
                      : rec.g_move;  // ablation: id order
    }
    apply_round(sys, rec, full ? &hist : nullptr,
                [&pass](ProcId p, System::AppliedOp&& op) {
                  pass.hold(p, std::move(op));
                });
    log.round_count = round;
    RoundSnapshot* snap = nullptr;
    if (full) {
      log.rounds.push_back(std::move(rec));
      snap = &log.snapshots.emplace_back();
      // Only the pass's Phase 1 can touch memory again (an amnesiac
      // restart drops its links), so the registers are read now.
      snapshot_registers(sys, *snap);
    }
    clear_round(rec);
    runnable = pass.run(rec, snap, /*phase1=*/round < options.max_rounds,
                        round);
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace

RunLog run_adversary(System& sys, const AdversaryOptions& options) {
  return run_rounds(sys, options, nullptr);
}

RunLog run_s_run(System& sys, const RunLog& all_log, const UpTracker& up,
                 const ProcSet& s) {
  LLSC_EXPECTS(sys.num_processes() == all_log.n,
               "system size differs from the (All,A)-run");
  LLSC_EXPECTS(up.num_rounds() >= all_log.num_rounds(),
               "UP tracker does not cover the whole (All,A)-run");
  const SRun s_run{.all_log = all_log, .up = up, .s = s};
  return run_rounds(sys, {.max_rounds = all_log.num_rounds()}, &s_run);
}

}  // namespace llsc
