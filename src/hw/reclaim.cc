#include "hw/reclaim.h"

#include <algorithm>

#include "util/check.h"

namespace llsc {

namespace {

// The calling thread's carrier binding (hw_internal::bind_carrier).
thread_local const Reclaimer* t_carrier_owner = nullptr;
thread_local int t_carrier = 0;

std::size_t checked_slot_count(int num_slots) {
  LLSC_EXPECTS(num_slots >= 1, "need at least one reclaimer slot");
  return static_cast<std::size_t>(num_slots);
}

// A scan keeps at most num_slots nodes, so a threshold of 2 × num_slots
// guarantees every scan frees at least half the list (amortized O(1)
// scans per retire); the floor of 64 keeps scans rare at small slot
// counts.
std::size_t scan_threshold_for(std::size_t num_slots) {
  return std::max<std::size_t>(64, 2 * num_slots);
}

}  // namespace

Reclaimer::Reclaimer(int num_slots)
    : slots_(checked_slot_count(num_slots)),
      scan_threshold_(scan_threshold_for(slots_.size())) {}

std::uint64_t Reclaimer::max_unreclaimed(int num_slots) {
  const std::size_t slots = checked_slot_count(num_slots);
  return static_cast<std::uint64_t>(slots * scan_threshold_for(slots));
}

Reclaimer::~Reclaimer() {
  for (Slot& s : slots_) {
    for (VersionedNode* n : s.retired) delete n;
  }
}

int Reclaimer::slot_of(ProcId p) const {
  if (t_carrier_owner == this) return t_carrier;
  LLSC_EXPECTS(p >= 0 && p < num_slots(),
               "unbound process id outside this reclaimer's slot table "
               "(carrier-slot memories serve only their bound carriers)");
  return static_cast<int>(p);
}

namespace hw_internal {

void bind_carrier(const Reclaimer* owner, int carrier) {
  LLSC_EXPECTS(owner != nullptr && carrier >= 0 &&
                   carrier < owner->num_slots(),
               "carrier slot outside this reclaimer's slot table");
  t_carrier_owner = owner;
  t_carrier = carrier;
}

int current_carrier() { return t_carrier; }

}  // namespace hw_internal

std::uint64_t Reclaimer::protect(Slot& s,
                                 const std::atomic<std::uint64_t>& word,
                                 std::uint64_t w) {
  std::uint64_t spins = 0;
  for (;;) {
    if (!is_node_word(w)) {
      // Inline words carry no heap node; drop any stale protection so a
      // scan is not forced to keep an unrelated node alive.
      s.hazard.store(0, std::memory_order_release);
      break;
    }
    // Publish and re-read are seq_cst, like the unlinking CAS and the
    // scan's hazard load (see scan): either the scanner sees this hazard,
    // or this re-read sees the unlink and retries.
    s.hazard.store(w, std::memory_order_seq_cst);
    const std::uint64_t cur = word.load(std::memory_order_seq_cst);
    if (cur == w) break;
    w = cur;
    ++spins;
  }
  s.protect_retries += spins;
  if (spins > s.max_stall_spins) s.max_stall_spins = spins;
  return w;
}

std::uint64_t Reclaimer::acquire(int slot_id,
                                 const std::atomic<std::uint64_t>& word) {
  return protect(slot(slot_id), word, word.load(std::memory_order_acquire));
}

std::uint64_t Reclaimer::confirm(int slot_id,
                                 const std::atomic<std::uint64_t>& word,
                                 std::uint64_t w) {
  return protect(slot(slot_id), word, w);
}

void Reclaimer::retire(int slot_id, VersionedNode* n) {
  Slot& s = slot(slot_id);
  s.retired.push_back(n);
  ++s.retired_count;
  if (s.retired.size() > s.high_water) s.high_water = s.retired.size();
  if (s.retired.size() >= scan_threshold_) scan(s);
}

void Reclaimer::scan(Slot& s) {
  ++s.scan_passes;
  // Why a node a reader still uses is never freed. Four accesses are
  // seq_cst, so they sit in one total order S consistent with
  // sequenced-before: the CAS U that unlinked the node (HwMemory's sc,
  // install, rmw), sequenced before this thread's hazard load H of the
  // reader's slot; the reader's publish P of the node's word, sequenced
  // before its re-read R of the register. If H misses P (reads a value
  // older than P in the hazard word's modification order) then H precedes
  // P in S, so U < H < P < R, and R sees U or a later write: the register
  // no longer holds the node (node words never recur while the node is
  // alive), and the reader retries instead of dereferencing it. If H reads
  // P or a later store to the hazard word, the node is kept, or the reader
  // has already moved on and its later store (a release) orders its last
  // use before this delete. Plain seq_cst accesses rather than a fence, so
  // ThreadSanitizer sees the same edges; on x86 the instructions are the
  // same as with acq_rel CASes and acquire loads.
  std::vector<std::uint64_t> protected_words;
  protected_words.reserve(slots_.size());
  for (const Slot& t : slots_) {
    const std::uint64_t h = t.hazard.load(std::memory_order_seq_cst);
    if (h != 0) protected_words.push_back(h);
  }
  std::sort(protected_words.begin(), protected_words.end());
  std::vector<VersionedNode*> kept;
  for (VersionedNode* n : s.retired) {
    if (std::binary_search(protected_words.begin(), protected_words.end(),
                           from_node(n))) {
      kept.push_back(n);
    } else {
      delete n;
      ++s.freed;
    }
  }
  s.retired.swap(kept);
}

void Reclaimer::release(int slot_id) {
  // Release ordering: a scanner acquiring this store (or any later store
  // to the hazard word — every publish is seq_cst, hence also a release)
  // sees all of this slot's dereferences as happened-before, making the
  // subsequent delete race-free.
  slot(slot_id).hazard.store(0, std::memory_order_release);
}

void Reclaimer::quiesce() {
  for (Slot& s : slots_) {
    for (VersionedNode* n : s.retired) {
      delete n;
      ++s.freed;
    }
    s.retired.clear();
  }
}

ReclaimStats Reclaimer::stats() const {
  ReclaimStats out;
  for (const Slot& s : slots_) {
    out.nodes_retired += s.retired_count;
    out.nodes_freed += s.freed;
    out.scan_passes += s.scan_passes;
    out.protect_retries += s.protect_retries;
    out.max_stall_spins = std::max(out.max_stall_spins, s.max_stall_spins);
    out.node_high_water += s.high_water;
  }
  return out;
}

}  // namespace llsc
