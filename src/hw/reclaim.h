// Reclaimer — the reclamation-policy seam behind RegisterStorage.
//
// RegisterStorage's node words (every register under kBoxed, demoted
// registers under kInline) publish immutable heap nodes through a single
// CAS word. A reader that loaded the word just
// before a writer's CAS can still dereference the replaced node, so the
// storage layer never frees a node directly: it *retires* the node to a
// Reclaimer, and every dereference happens inside a Reclaimer critical
// section. What "safe to free" means is the policy this seam varies:
//
//   EpochReclaimer         — the pre-seam three-epoch scheme, byte for
//       byte: a critical-section entry stores the global epoch into the
//       slot's epoch word, retirement stamps the node with the current
//       global epoch, and every kScanInterval retires a scan advances the
//       global epoch (iff every slot is quiescent or current) and frees
//       the two-epochs-stale prefix. Protected loads are plain acquire
//       loads — near-zero cost — but one peer parked inside an operation
//       pins the epoch and every slot's garbage grows unboundedly.
//   HazardPointerReclaimer — one hazard word per slot: a protected load
//       publishes the candidate word, re-reads the register word, and
//       retries until they agree; a retired-list scan frees every node no
//       hazard word names. Per-slot garbage is bounded by the scan
//       threshold (O(num_slots)), so total unreclaimed nodes are
//       O(num_slots²) regardless of stalled or crashed peers.
//
// Slots. A slot is one unit of protection + one retired list. The storage
// layer resolves the invoking ProcId to a slot via slot_of(p): by default
// slot == ProcId (the 1:1 executor's thread contract), but an executor
// multiplexing M processes onto N carrier threads may bind each carrier to
// a dedicated slot (CarrierBinding) when the policy wants it
// (carrier_slots()) — hazard words then scale with real threads, not
// logical processes. This is sound because no protection spans a yield:
// every storage operation brackets its protections inside one Guard, and
// oversubscribed coroutines only yield between operations, so a logical
// process migrating carriers re-establishes protection on the new
// carrier's slot. The EpochReclaimer declines carrier binding and keeps
// one epoch slot per logical process — bit-for-bit the pre-seam layout.
//
// Thread contract: begin/end/acquire/confirm/retire on one slot must be
// serialized (the storage layer's per-process thread contract plus the
// oversubscribed executor's run-queue handoff guarantee this); stats() and
// quiescent teardown require all slots quiescent.
#ifndef LLSC_HW_RECLAIM_H_
#define LLSC_HW_RECLAIM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/value.h"

namespace llsc {

// The unit of reclamation: an immutable (once published) boxed register
// node. Defined here — not in register_storage.h — because the Reclaimer
// owns the node lifecycle; the storage layer owns only the versioning
// discipline.
struct VersionedNode {
  Value value;
  std::uint64_t version = 1;
};

// A register word is either a VersionedNode* (bit 0 clear — nodes are
// 8-byte aligned) or an inline tagged word (bit 0 set; see
// memory/storage_policy.h). Inline words need no reclamation protection.
inline bool is_node_word(std::uint64_t w) { return (w & 1) == 0; }
inline VersionedNode* as_node(std::uint64_t w) {
  return reinterpret_cast<VersionedNode*>(static_cast<std::uintptr_t>(w));
}
inline std::uint64_t from_node(VersionedNode* n) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(n));
}

class Reclaimer {
 public:
  explicit Reclaimer(int num_slots);
  virtual ~Reclaimer();
  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  virtual ReclaimPolicy policy() const = 0;
  int num_slots() const { return num_slots_; }

  // True when executors multiplexing M processes onto N carrier threads
  // should bind each carrier to a slot (hazard); false when slots must
  // stay per logical process (epoch — the pre-seam layout).
  virtual bool carrier_slots() const = 0;

  // --- the critical-section protocol (per slot, serialized) ---
  // Enter/exit a critical section. Node words loaded via acquire/confirm
  // may be dereferenced only between begin and end.
  virtual void begin(int slot) = 0;
  virtual void end(int slot) = 0;
  // Protected load: returns the register word, safe to dereference until
  // end() (hazard: until the slot's next acquire/confirm overwrites the
  // hazard word — callers dereference only the most recent protected
  // load, which every storage operation already does).
  virtual std::uint64_t acquire(int slot,
                                const std::atomic<std::uint64_t>& word) = 0;
  // Like acquire, but for a word `w` the caller already loaded (e.g. the
  // reload a failed CAS wrote back). Returns `w` once protected, or the
  // newer current word if `w` was replaced before protection stuck —
  // callers must use the returned word. Identity under epochs.
  virtual std::uint64_t confirm(int slot,
                                const std::atomic<std::uint64_t>& word,
                                std::uint64_t w) = 0;
  // Hand a node the slot's thread just unlinked over to the policy.
  virtual void retire(int slot, VersionedNode* n) = 0;
  // Crash recovery: drop every protection the slot holds, mirroring
  // RegisterStorage::invalidate_links for links — a dead incarnation's
  // guard already unwound (RAII), so this is the belt-and-braces reset a
  // restart performs before the new incarnation's first operation.
  virtual void release(int slot) = 0;
  // Free everything that can ever be freed, assuming all slots quiescent
  // (teardown; also what the destructor does).
  virtual void quiesce() = 0;

  virtual ReclaimStats stats() const = 0;

  // Resolve the slot for an operation invoked by process p: the calling
  // thread's CarrierBinding for this reclaimer if one is active, else p.
  int slot_of(ProcId p) const;

  // RAII critical section + the protected-load surface storage ops use.
  class Guard {
   public:
    Guard(Reclaimer& r, ProcId p) : r_(r), slot_(r.slot_of(p)) {
      r_.begin(slot_);
    }
    ~Guard() { r_.end(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    std::uint64_t acquire(const std::atomic<std::uint64_t>& word) {
      return r_.acquire(slot_, word);
    }
    std::uint64_t confirm(const std::atomic<std::uint64_t>& word,
                          std::uint64_t w) {
      return r_.confirm(slot_, word, w);
    }
    void retire(VersionedNode* n) { r_.retire(slot_, n); }

   private:
    Reclaimer& r_;
    int slot_;
  };

  // Binds the calling carrier thread to `slot` for this reclaimer's
  // slot_of resolution; restores the previous binding on destruction.
  // Executors create one per worker thread when carrier_slots() is true.
  class CarrierBinding {
   public:
    CarrierBinding(Reclaimer& r, int slot);
    ~CarrierBinding();
    CarrierBinding(const CarrierBinding&) = delete;
    CarrierBinding& operator=(const CarrierBinding&) = delete;

   private:
    const Reclaimer* prev_owner_;
    int prev_slot_;
  };

 private:
  int num_slots_;
};

// The pre-seam three-epoch scheme, preserved exactly: same loads, stores,
// scan cadence, and counters as the boxed storage had before the seam, so
// default runs stay byte-stable.
class EpochReclaimer final : public Reclaimer {
 public:
  explicit EpochReclaimer(int num_slots);
  ~EpochReclaimer() override;

  ReclaimPolicy policy() const override { return ReclaimPolicy::kEpoch; }
  bool carrier_slots() const override { return false; }

  void begin(int slot) override;
  void end(int slot) override;
  std::uint64_t acquire(int slot,
                        const std::atomic<std::uint64_t>& word) override;
  std::uint64_t confirm(int slot, const std::atomic<std::uint64_t>& word,
                        std::uint64_t w) override;
  void retire(int slot, VersionedNode* n) override;
  void release(int slot) override;
  void quiesce() override;
  ReclaimStats stats() const override;

 private:
  struct alignas(64) Slot {
    // 0 = quiescent; otherwise the global epoch observed at critical-
    // section entry. Written only by the slot's thread; read by everyone.
    std::atomic<std::uint64_t> epoch{0};
    // Retired nodes with their retirement epoch; epochs are non-decreasing
    // in deque order, so the freeable nodes form a prefix.
    std::deque<std::pair<std::uint64_t, VersionedNode*>> retired;
    std::uint64_t retires_since_scan = 0;
    std::uint64_t retired_count = 0;
    std::uint64_t freed = 0;
    std::uint64_t scan_passes = 0;
    std::size_t high_water = 0;
  };

  // Attempt a global-epoch advance, then free this slot's retired prefix
  // that is two epochs stale.
  void scan_and_reclaim(Slot& s);

  std::vector<std::unique_ptr<Slot>> slots_;
  alignas(64) std::atomic<std::uint64_t> global_{1};
};

// Per-slot hazard pointers: bounded garbage under stalled/crashed peers at
// the price of a publish + re-validate round-trip per protected load.
class HazardPointerReclaimer final : public Reclaimer {
 public:
  explicit HazardPointerReclaimer(int num_slots);
  ~HazardPointerReclaimer() override;

  ReclaimPolicy policy() const override { return ReclaimPolicy::kHazard; }
  bool carrier_slots() const override { return true; }

  void begin(int slot) override;
  void end(int slot) override;
  std::uint64_t acquire(int slot,
                        const std::atomic<std::uint64_t>& word) override;
  std::uint64_t confirm(int slot, const std::atomic<std::uint64_t>& word,
                        std::uint64_t w) override;
  void retire(int slot, VersionedNode* n) override;
  void release(int slot) override;
  void quiesce() override;
  ReclaimStats stats() const override;

  // Per-slot retired-list size that triggers a scan; a scan keeps at most
  // num_slots nodes (each hazard word protects one), so a slot's list
  // never exceeds threshold + 1 and total garbage is O(num_slots²).
  std::size_t scan_threshold() const { return scan_threshold_; }

 private:
  struct alignas(64) Slot {
    // The one word this slot's thread may dereference; 0 = none.
    std::atomic<std::uint64_t> hazard{0};
    std::vector<VersionedNode*> retired;
    std::uint64_t retired_count = 0;
    std::uint64_t freed = 0;
    std::uint64_t scan_passes = 0;
    std::uint64_t protect_retries = 0;
    std::uint64_t max_stall_spins = 0;
    std::size_t high_water = 0;
  };

  // Publish-and-revalidate until the register word and the hazard word
  // agree; returns the protected (possibly newer-than-`w`) word.
  std::uint64_t protect(Slot& s, const std::atomic<std::uint64_t>& word,
                        std::uint64_t w);
  // Free every retired node no hazard word names.
  void scan(Slot& s);

  std::vector<std::unique_ptr<Slot>> slots_;
  const std::size_t scan_threshold_;
};

std::unique_ptr<Reclaimer> make_reclaimer(ReclaimPolicy policy,
                                          int num_slots);

}  // namespace llsc

#endif  // LLSC_HW_RECLAIM_H_
