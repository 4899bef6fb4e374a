// Flat-combining / P-Sim batching universal construction.
//
// The Fatourou–Kallimanis P-Sim scheme adapted to the paper's five
// operations (LL/SC/VL/swap/move — no fetch&add, which the Fig. 2
// adversary refuses to schedule):
//
//   * announce slots — one single-writer register per process holding its
//     latest announced operation tagged with an OpId sequence number
//     (a swap; P-Sim's cache-padded announce array);
//   * toggle bit-vector — ⌈n/46⌉ registers of ≤46 toggle bits each
//     (46 = the inline storage codec's 47-bit payload minus the sign of
//     the +1 bias, so a toggle word ALWAYS fits a 64-bit inline register
//     word — see memory/storage_policy.h). After announcing, a process
//     flips its bit with an LL/SC retry loop (P-Sim uses an atomic Add;
//     the loop is the five-op equivalent and is lock-free: each failed
//     SC is caused by another process's completed flip);
//   * combine — a process LLs the state register, snapshots the toggle
//     words, and for every process whose current toggle differs from the
//     toggle recorded in the state reads that announce slot and collects
//     the announced-but-unapplied operations (confirmed by sequence
//     number, so a stale toggle read can never double-apply); it applies
//     the whole batch to a private copy of the object state drawn from
//     its recycled, cache-padded state pool and SC-installs the new
//     state + per-process return values in ONE shot. Losers adopt the
//     winner's published results.
//
// Progress: lock-free, and wait-free in the one-outstanding-op-per-
// process regime — the classic two-attempt argument holds because the
// toggle snapshot is taken after the LL: if a process's SC fails twice
// after its announce+flip completed, the second winner's LL (and hence
// its toggle snapshot) followed the first winner's install, so it saw
// the flip and applied the op. Under injected spurious SC loss
// (hw/fault.h) the construction retries until its operation's response
// is published: a lost SC only delays a batch; the sequence numbers in
// the announce slots make re-application detectable, so an announced op
// is never dropped and never applied twice.
//
// Register widths (the E15 width audit, memory/storage_policy.h): the
// state and announce registers hold structured payloads, so on hw their
// first write demotes them on overflow and they run on nodes; the toggle
// words never overflow and stay inline until their 16-bit version tag runs
// out. So a run demotes exactly n + 1 registers (boxed_fallback_registers)
// while no toggle word has used up its tag.
#ifndef LLSC_UNIVERSAL_COMBINING_H_
#define LLSC_UNIVERSAL_COMBINING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "memory/storage_policy.h"
#include "universal/op_id.h"
#include "universal/universal.h"

namespace llsc {

// Toggle bits packed per register word. 46 (not 64) so a toggle word is
// always < 2^46 ≤ kInlineMaxU64 and never overflows an inline register.
inline constexpr int kToggleBitsPerWord = 46;

// One operation in an announce slot: the latest op of one process, with
// its per-process sequence number (monotone from 1).
struct CombineCell {
  OpId id;
  ObjOp op;

  bool operator==(const CombineCell& rhs) const = default;
  std::string to_string() const {
    return id.to_string() + ":" + op.to_string();
  }
  std::size_t hash() const { return mix64(id.hash() ^ op.hash()); }
};

// The combined state one SC installs: object snapshot, per-process
// last-applied sequence numbers + responses, and the toggle values the
// applied announcements carried (process q is pending iff its current
// toggle bit differs from applied_toggles). Cache-line aligned because
// instances live in the per-process recycled pools.
struct alignas(64) CombinedState {
  std::shared_ptr<const SequentialObject> object;
  std::vector<std::uint64_t> applied_seq;    // per process; 0 = none yet
  std::vector<Value> responses;              // response of applied_seq[q]
  std::vector<std::uint64_t> applied_toggles;  // ⌈n/46⌉ words

  bool operator==(const CombinedState& rhs) const;
  std::string to_string() const;
  std::size_t hash() const;
};

// Register payload: shared immutable ownership of a pooled CombinedState.
// The pool recycles a slot only once its use_count drops back to 1 (the
// pool's own reference), so a state is never mutated while any register,
// trace, or reader still holds it.
struct CombinedStateRef {
  std::shared_ptr<const CombinedState> state;

  bool operator==(const CombinedStateRef& rhs) const {
    return state == rhs.state ||
           (state != nullptr && rhs.state != nullptr &&
            *state == *rhs.state);
  }
  std::string to_string() const {
    return state == nullptr ? "combined{null}" : state->to_string();
  }
  std::size_t hash() const { return state == nullptr ? 0 : state->hash(); }
};

// Batch accounting for the E15 bench: mean batch size = ops_applied /
// installs. Counters are bumped only after a SUCCESSFUL state install.
struct CombiningStats {
  std::uint64_t installs = 0;     // successful state SCs
  std::uint64_t ops_applied = 0;  // operations across those installs
  std::uint64_t adopted = 0;      // ops whose response came from a helper

  double mean_batch_size() const {
    return installs == 0 ? 0.0
                         : static_cast<double>(ops_applied) /
                               static_cast<double>(installs);
  }
};

struct CombiningOptions {
  // 0 = retry until this process's operation is applied (the real
  // construction: lock-free under injected faults). k > 0 = fixed shape:
  // exactly k combine attempts, each reading every announce slot instead
  // of only those the toggle diff selects, and no early exit. That makes
  // the per-operation shared-op count schedule-INDEPENDENT (the fixed_*
  // contract of hw/fault_scenarios.h), at the price of possibly returning
  // nil when the op was not applied in time.
  int fixed_attempts = 0;
};

class CombiningUniversal final : public UniversalConstruction {
 public:
  // Uses registers [base, base + register_span()):
  //   base                     — the combined-state register;
  //   base + 1 + w             — toggle word w, w in [0, toggle_words());
  //   base + 1 + toggle_words() + p — process p's announce slot.
  CombiningUniversal(int n, ObjectFactory factory, RegId base = 0,
                     CombiningOptions options = {});

  SubTask<Value> execute(ProcCtx ctx, ObjOp op) override;
  // execute() on behalf of announce slot p with the caller's sequence
  // number `seq` (≥ 1, increasing per slot), taking the shared steps
  // through ctx. execute(ctx, op) is execute_as(ctx, ctx.id(), next seq,
  // op). A caller that drives one slot from several processes (the group
  // layer in hw/group_combining.h) must keep one op outstanding per slot
  // and order its hand-offs; re-running a (p, seq) whose install may
  // already have landed adopts that install's response instead of
  // applying the op twice.
  SubTask<Value> execute_as(ProcCtx ctx, ProcId p, std::uint64_t seq,
                            ObjOp op);
  // Fault-free bound for the one-outstanding-op-per-process regime (the
  // E2 shape): announce (1) + toggle flip (≤ 2·46: each failed flip is
  // caused by another process on the same word completing its one flip)
  // + at most two full combine attempts of 1 + ⌈n/46⌉ + n + 1 ops each
  // + the adopting LL (1). Like DirectFetchAdd, the general multi-op
  // worst case is unbounded (lock-free, not wait-free).
  std::uint64_t worst_case_shared_ops() const override;
  std::string name() const override { return "combining"; }

  RegId register_span() const {
    return 1 + static_cast<RegId>(toggle_words()) + static_cast<RegId>(n_);
  }
  int toggle_words() const {
    return (n_ + kToggleBitsPerWord - 1) / kToggleBitsPerWord;
  }
  // Kept because perfbench/ calls it; nothing reads it.
  std::vector<RegisterGroup> register_groups() const { return {}; }

  CombiningStats stats() const {
    return CombiningStats{
        .installs = installs_.load(std::memory_order_relaxed),
        .ops_applied = ops_applied_.load(std::memory_order_relaxed),
        .adopted = adopted_.load(std::memory_order_relaxed)};
  }

 private:
  RegId state_reg() const { return base_; }
  RegId toggle_reg(int word) const {
    return base_ + 1 + static_cast<RegId>(word);
  }
  RegId announce_reg(ProcId p) const {
    return base_ + 1 + static_cast<RegId>(toggle_words()) +
           static_cast<RegId>(p);
  }

  // Per-process recycled pool of cache-padded CombinedState slots. Only
  // the owning process acquires from its pool, so the only concurrency is
  // the use_count()==1 test: a slot's count can rise above 1 only through
  // a reference the owner itself published, and once every published
  // reference is gone no other thread can resurrect one — a stale read
  // of 1 is therefore impossible, and a stale read of >1 only delays
  // reuse.
  struct Pool {
    std::vector<std::shared_ptr<CombinedState>> slots;
  };
  std::shared_ptr<CombinedState> acquire_slot(ProcId p);

  const CombinedState* as_state(const Value& v) const;
  CombinedState initial_state() const;

  int n_;
  ObjectFactory factory_;
  RegId base_;
  CombiningOptions options_;
  std::vector<std::uint64_t> next_seq_;  // per process, owner-written
  std::vector<Pool> pools_;              // per slot, slot-owner-only
  // Shared batch counters: processes run on distinct threads on hw.
  std::atomic<std::uint64_t> installs_{0};
  std::atomic<std::uint64_t> ops_applied_{0};
  std::atomic<std::uint64_t> adopted_{0};
};

}  // namespace llsc

#endif  // LLSC_UNIVERSAL_COMBINING_H_
