// The paper's shared memory (Section 3).
//
// An infinite array of registers R_0, R_1, ...; the state of each register
// is (value, Pset). The five supported operations behave exactly as the
// paper defines them:
//
//   LL(R) by p        : Pset(R) += {p}; returns value(R).
//   SC(R, v) by p     : if p in Pset(R): value(R) = v, Pset(R) = {},
//                       returns (true, previous value);
//                       else returns (false, current value).
//   validate(R) by p  : returns (p in Pset(R), value(R)); no state change.
//   swap(R, v) by p   : value(R) = v, Pset(R) = {}; returns previous value.
//   move(Rs, Rd) by p : value(Rd) = value(Rs), Pset(Rd) = {}; Rs unchanged;
//                       returns ack.
//
// Note the strengthened responses: SC and validate return the register value
// in addition to the boolean — the paper proves the lower bound even against
// these stronger operations, and a plain read is validate's value component.
//
// Registers are materialized lazily, so the "infinite" register array costs
// memory only for registers actually touched.
#ifndef LLSC_MEMORY_SHARED_MEMORY_H_
#define LLSC_MEMORY_SHARED_MEMORY_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/storage_policy.h"
#include "memory/value.h"

namespace llsc {

// State of one shared register: its value and its Pset.
struct Register {
  Value value;
  // Processes whose link is live (a subsequent SC by them would succeed),
  // kept sorted ascending and duplicate-free so traces and state hashes
  // iterate deterministically. A sorted vector rather than a node-based
  // set: clearing it (SC, swap, move, RMW) keeps its capacity, and the
  // adversary's LLs arrive in id order and append, so the simulated step
  // path does not allocate once a register's Pset has grown.
  std::vector<ProcId> pset;

  std::string to_string() const;
};

// Per-kind operation counters for throughput accounting.
struct MemoryOpCounts {
  std::array<std::uint64_t, 6> by_kind{};

  std::uint64_t total() const;
  std::uint64_t& operator[](OpKind kind) {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  std::uint64_t operator[](OpKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }
};

class SharedMemory {
 public:
  SharedMemory() = default;

  // The five operations. `p` is the invoking process.
  Value ll(ProcId p, RegId r);
  OpResult sc(ProcId p, RegId r, Value v);
  OpResult validate(ProcId p, RegId r) const;
  Value swap(ProcId p, RegId r, Value v);
  void move(ProcId p, RegId src, RegId dst);
  // RMW(r, f): value(r) <- f(value(r)), Pset(r) <- {}; returns the OLD
  // value. The Section 7 strong operation; see memory/rmw.h.
  Value rmw(ProcId p, RegId r, const RmwFunction& f);

  // Execute a PendingOp on behalf of `p` and return its result. This is the
  // single entry point schedulers use, so counting and tracing are uniform.
  OpResult apply(ProcId p, const PendingOp& op);

  // Crash-recovery support (hw/fault.h): remove p from every register's
  // Pset, so a restarted incarnation cannot adopt a reservation its dead
  // predecessor took. Mirrors HwMemory::invalidate_links bit for bit: a
  // dropped link makes exactly the SC/VLs fail that would fail on hw.
  void invalidate_links(ProcId p);

  // Observation (not shared-memory operations; used by checkers/tests only).
  const Value& peek_value(RegId r) const;
  bool peek_pset_contains(RegId r, ProcId p) const;
  std::size_t peek_pset_size(RegId r) const;
  // The full Pset (ascending). Empty for untouched registers.
  const std::vector<ProcId>& peek_pset(RegId r) const;
  // Registers that have been touched (lazily materialized) so far.
  std::vector<RegId> touched_registers() const;

  const MemoryOpCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = MemoryOpCounts{}; }

  // Register-storage policy (memory/storage_policy.h). The simulator always
  // stores full Values — the policy changes only the *accounting* (width /
  // overflow / per-register demotion counters, mirroring the hw backend's
  // RegisterStorage (hw/register_storage.h) bit for bit on deterministic
  // workloads) and, under
  // kInlineStrict, makes an unencodable completed write throw
  // RegisterOverflowError before mutating anything. Set it before running;
  // it defaults to LLSC_STORAGE_POLICY like the hw side.
  void set_storage_policy(StoragePolicy policy) { storage_ = policy; }
  StoragePolicy storage_policy() const { return storage_; }
  RegisterWidthStats width_stats() const;

  // Node-reclamation policy (memory/reclaim_policy.h). Like the storage
  // policy, the simulator changes only the *accounting*: nodes_allocated /
  // nodes_retired count the node-path installs the hw backend's
  // RegisterStorage (hw/register_storage.h) would allocate and retire on
  // the same deterministic workload (boxed: every install; inline: only
  // demoted registers), so
  // the two substrates' deterministic counters agree. Timing-dependent
  // fields (nodes_freed, scan_passes, stall spins, high water) have no
  // simulator analogue and stay zero.
  void set_reclaim_policy(ReclaimPolicy policy) { reclaim_policy_ = policy; }
  ReclaimPolicy reclaim_policy() const { return reclaim_policy_; }
  ReclaimStats reclaim_stats() const;

  // Labeled logical-object ranges (e.g. a universal construction's
  // announce array vs its state register). When set, width_stats()
  // attributes each demoted register to its group in
  // boxed_fallback_by_group; when empty (the default) the breakdown stays
  // empty and existing consumers see the lumped counter only.
  void set_register_groups(std::vector<RegisterGroup> groups) {
    groups_ = std::move(groups);
  }

  // Structural hash of the full memory state (values + Psets), used by the
  // bounded model checker to detect revisited configurations.
  std::size_t state_hash() const;

 private:
  Register& reg(RegId r);
  const Register* find(RegId r) const;
  // Width accounting at a *completed* install (SC success, swap, move,
  // rmw) — the same points the hw backend counts at, so the totals agree
  // across substrates for deterministic workloads.
  void note_write(RegId r, const Value& v);
  // Throws RegisterOverflowError under kInlineStrict for unencodable `v`;
  // called before the mutation, after the operation is known to complete.
  void check_overflow(RegId r, const Value& v) const;

  std::unordered_map<RegId, Register> regs_;
  MemoryOpCounts counts_;
  StoragePolicy storage_ = default_storage_policy();
  RegisterWidthStats width_;
  ReclaimPolicy reclaim_policy_ = default_reclaim_policy();
  ReclaimStats reclaim_;
  // Registers an overflow demoted to boxing (kInline; sticky, like hw).
  std::set<RegId> demoted_;
  std::vector<RegisterGroup> groups_;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_SHARED_MEMORY_H_
