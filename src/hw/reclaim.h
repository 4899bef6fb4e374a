// Reclaimer — hazard-pointer node reclamation behind HwMemory.
//
// HwMemory's node words (registers demoted from inline words)
// publish immutable heap nodes through a single CAS word. A reader that
// loaded the word just before a writer's CAS can still dereference the
// replaced node, so the storage layer never frees a node directly: it
// *retires* the node here, and every dereference is of a word loaded
// through a protected load.
//
// Each slot owns one hazard word and one retired list. A protected load
// publishes the candidate word in the slot's hazard word, re-reads the
// register word, and retries until the two agree; once a slot's retired
// list reaches scan_threshold(), a scan frees every node no hazard word
// names. A scan keeps at most num_slots() nodes, so a slot's list never
// exceeds the threshold and total unreclaimed nodes stay at most
// num_slots() × scan_threshold(), whatever stalled or crashed peers do.
//
// Slots. The storage layer resolves the invoking ProcId to a slot via
// slot_of(p). By default slot == ProcId (the 1:1 thread contract); an
// executor multiplexing M processes onto N carrier threads sizes the table
// at N and binds each carrier thread to its own slot (bind_carrier), so
// hazard words scale with real threads, not logical processes. The same
// binding indexes every other per-carrier table of a pool run (HwMemory's
// backoff and counters, the watchdog's ticks, service mode's latency
// shards). This is sound because no protection spans a yield: every
// storage operation brackets its protections inside one Guard, and
// oversubscribed coroutines only yield between operations, so a process
// migrating carriers re-establishes protection on the new carrier's slot.
//
// Thread contract: acquire/confirm/retire/release on one slot must be
// serialized (the storage layer's per-process thread contract plus the
// executor's carrier binding guarantee this); stats() and quiesce()
// require all slots quiescent.
#ifndef LLSC_HW_RECLAIM_H_
#define LLSC_HW_RECLAIM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/value.h"

namespace llsc {

// The unit of reclamation: an immutable (once published) boxed register
// node. Defined here — not in hw_memory.h — because the Reclaimer
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

class Reclaimer final {
 public:
  explicit Reclaimer(int num_slots);
  ~Reclaimer();
  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  int num_slots() const { return static_cast<int>(slots_.size()); }
  // Per-slot retired-list size that triggers a scan: max(64, 2 ×
  // num_slots), so every scan frees at least half the list.
  std::size_t scan_threshold() const { return scan_threshold_; }
  // The bound on node_high_water for a reclaimer with `num_slots` slots:
  // num_slots × its scan threshold.
  static std::uint64_t max_unreclaimed(int num_slots);

  // --- the protection protocol (per slot, serialized) ---
  // Protected load: returns the register word, safe to dereference until
  // the slot's next acquire/confirm/release (callers dereference only the
  // most recent protected load, which every storage operation does).
  std::uint64_t acquire(int slot, const std::atomic<std::uint64_t>& word);
  // Like acquire, but for a word `w` the caller already loaded (e.g. the
  // reload a failed CAS wrote back). Returns `w` once protected, or the
  // newer current word if `w` was replaced before protection stuck —
  // callers must use the returned word.
  std::uint64_t confirm(int slot, const std::atomic<std::uint64_t>& word,
                        std::uint64_t w);
  // Hand over a node the slot's thread just unlinked.
  void retire(int slot, VersionedNode* n);
  // Drop the slot's protection: the end of every Guard, and the reset a
  // crash restart performs before the new incarnation's first operation.
  void release(int slot);
  // Free everything retired, assuming all slots quiescent.
  void quiesce();

  ReclaimStats stats() const;

  // Resolve the slot for an operation invoked by process p: the calling
  // thread's carrier slot if the thread is bound to this reclaimer, else
  // p, which must then name a slot.
  int slot_of(ProcId p) const;

  // RAII protection scope + the protected-load surface storage ops use.
  class Guard {
   public:
    Guard(Reclaimer& r, ProcId p) : r_(r), slot_(r.slot_of(p)) {}
    ~Guard() { r_.release(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // The slot this operation runs on; callers index their own per-slot
    // state by it instead of resolving p again.
    int slot() const { return slot_; }
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

  Slot& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
  // Publish-and-revalidate until the register word and the hazard word
  // agree; returns the protected (possibly newer-than-`w`) word.
  std::uint64_t protect(Slot& s, const std::atomic<std::uint64_t>& word,
                        std::uint64_t w);
  // Free every retired node no hazard word names.
  void scan(Slot& s);

  std::vector<Slot> slots_;
  const std::size_t scan_threshold_;
};

namespace hw_internal {

// The calling thread's carrier binding: the pool sets it once per carrier
// thread, before the thread runs any process, and never changes it. Each
// pool thread is fresh, so no binding outlives its run or needs restoring.
// `owner` is the run's reclaimer: slot_of honours the binding only for it,
// so a bound carrier never indexes a foreign memory's slots.
void bind_carrier(const Reclaimer* owner, int carrier);

// The carrier (0..N-1) the calling thread is in a pool run, 0 off the
// pool. Per-carrier state is indexed by it: the processes of one carrier
// run one at a time, so such state needs no synchronisation.
int current_carrier();

}  // namespace hw_internal
}  // namespace llsc

#endif  // LLSC_HW_RECLAIM_H_
