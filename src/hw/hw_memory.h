// HwMemory — a lock-free multi-threaded emulation of the paper's
// LL/SC/VL/swap/move shared memory over one register-storage class.
//
// Real hardware does not expose the paper's operations; following the
// CAS-from-LL/SC literature (Blelloch & Wei, "LL/SC and Atomic Copy:
// Constant Time, Space Efficient Implementations using only pointer-width
// CAS" — see PAPERS.md and docs/hw_backend.md for where we simplify), each
// register is a single 64-bit atomic word (hw/register_storage.h). *What
// that word holds* is the storage policy (memory/storage_policy.h):
//
//   kBoxed (default) — the word is a pointer to an immutable heap
//       Node{value, version}; every successful write installs a fresh node
//       with a higher version and replaced nodes go through the run's
//       Reclaimer (hw/reclaim.h). Values are unbounded, exactly the
//       paper's model.
//   kInline / kInlineStrict — the word *is* the value while it fits
//       (16-bit version tag + 47-bit payload), Section 7's bounded-register
//       regime: writes are a single CAS with no allocation. Overflow
//       demotes that register to boxing (kInline) or throws
//       RegisterOverflowError (kInlineStrict).
//
//   LL(p, r)   : load the word; record the link it asserts; return the
//                value.
//   SC(p, r, v): succeeds iff the register still asserts p's link AND the
//                CAS from that exact word succeeds — i.e. iff no
//                successful SC/swap/move hit r since p's LL, exactly the
//                paper's Pset semantics (a successful write invalidates
//                every outstanding link, including the writer's own).
//   VL(p, r)   : link-valid flag plus the current value; no state change.
//   swap/move  : unconditional install via a CAS retry loop with bounded
//                exponential backoff (lock-free; in the paper's model they
//                are single steps — see docs/hw_backend.md §relaxations).
//   RMW(p,r,f) : atomic read-modify-write via the same retry loop
//                (the Section 7 strong operation).
//
// Thread contract: operations for process p must all be issued by the one
// thread running p (the HwExecutor guarantees this). Different processes'
// operations may run fully concurrently. peek_* observers are for
// quiescent use only (before threads start or after they join).
#ifndef LLSC_HW_HW_MEMORY_H_
#define LLSC_HW_HW_MEMORY_H_

#include <utility>

#include "hw/backoff.h"
#include "hw/register_storage.h"
#include "memory/op.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
#include "memory/value.h"

namespace llsc {

class HwMemory {
 public:
  // A fixed table of `num_registers` registers (the simulator's lazy
  // "infinite" array would need a concurrent map; algorithms declare their
  // span up front) serving threads/processes [0, num_threads). `backoff`
  // tunes the retry-loop backoff at every contended CAS site; `storage`
  // the register representation (default: the LLSC_STORAGE_POLICY
  // environment variable, else boxed); `reclaim` the node-reclamation
  // policy (default: LLSC_RECLAIMER, else three-epoch batches).
  // `reclaim_slots` sizes the Reclaimer's slot table — 0 means one slot
  // per thread/process; oversubscribed executors pass their carrier count
  // when the policy binds slots to carriers (hw/reclaim.h).
  HwMemory(std::size_t num_registers, int num_threads,
           const BackoffOptions& backoff = {},
           StoragePolicy storage = default_storage_policy(),
           ReclaimPolicy reclaim = default_reclaim_policy(),
           int reclaim_slots = 0);
  HwMemory(const HwMemory&) = delete;
  HwMemory& operator=(const HwMemory&) = delete;

  // The paper's five operations plus the optional Section 7 RMW; `p` is
  // the invoking process == the invoking thread's slot.
  Value ll(ProcId p, RegId r) { return storage_.ll(p, r); }
  OpResult sc(ProcId p, RegId r, Value v) {
    return storage_.sc(p, r, std::move(v));
  }
  OpResult validate(ProcId p, RegId r) { return storage_.validate(p, r); }
  Value swap(ProcId p, RegId r, Value v) {
    return storage_.swap(p, r, std::move(v));
  }
  void move(ProcId p, RegId src, RegId dst) { storage_.move(p, src, dst); }
  Value rmw(ProcId p, RegId r, const RmwFunction& f) {
    return storage_.rmw(p, r, f);
  }

  // Uniform entry point mirroring SharedMemory::apply (this is what the
  // hw platform routes Process steps through).
  OpResult apply(ProcId p, const PendingOp& op);

  std::size_t num_registers() const { return storage_.num_registers(); }
  int num_threads() const { return storage_.num_threads(); }
  StoragePolicy storage_policy() const { return storage_.policy(); }
  ReclaimPolicy reclaim_policy() const { return storage_.reclaim_policy(); }

  // The run's reclamation policy object (hw/reclaim.h): executors bind
  // carrier threads to slots through it when Reclaimer::carrier_slots().
  Reclaimer& reclaimer() { return storage_.reclaimer(); }

  // --- quiescent observation (tests / post-run accounting only) ---
  Value peek_value(RegId r) const { return storage_.peek_value(r); }
  bool peek_link_live(RegId r, ProcId p) const {
    return storage_.peek_link_live(r, p);
  }
  ReclaimStats reclaim_stats() const { return storage_.reclaim_stats(); }
  HwBackoffStats backoff_stats() const { return storage_.backoff_stats(); }
  RegisterWidthStats width_stats() const { return storage_.width_stats(); }

  // Per-logical-object width attribution (memory/storage_policy.h); set
  // before threads start.
  void set_register_groups(std::vector<RegisterGroup> groups) {
    storage_.set_register_groups(std::move(groups));
  }

  // Crash-recovery: drop every link p holds (hw/register_storage.h). Call
  // from the carrier thread restarting p.
  void invalidate_links(ProcId p) { storage_.invalidate_links(p); }

 private:
  RegisterStorage storage_;
};

}  // namespace llsc

#endif  // LLSC_HW_HW_MEMORY_H_
