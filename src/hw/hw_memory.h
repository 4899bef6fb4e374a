// HwMemory — a lock-free multi-threaded emulation of the paper's
// LL/SC/VL/swap/move shared memory.
//
// Real hardware does not expose the paper's operations; following the
// CAS-from-LL/SC literature (Blelloch & Wei, "LL/SC and Atomic Copy:
// Constant Time, Space Efficient Implementations using only pointer-width
// CAS" — see PAPERS.md and docs/hw_backend.md for where we simplify), each
// register is one 64-bit atomic word holding either
//
//   a node word   — a pointer to an immutable heap VersionedNode{Value,
//                   version} (bit 0 clear). A write installs a fresh node
//                   and retires the replaced one to the run's
//                   hazard-pointer Reclaimer (hw/reclaim.h).
//                   Any Value fits: the paper's unbounded register.
//   an inline word — the value itself: a 64-bit tagged word
//                   (memory/storage_policy.h codec — 16-bit version tag,
//                   47-bit payload, bit 0 set). A write is one CAS with no
//                   allocation and no reclamation: Section 7's bounded
//                   register.
//
// Every register starts as an inline nil word. One predicate
// (stays_inline) picks the word every completed write installs: an inline
// word while the value fits, the register is still inline and the current
// tag is below kInlineTagPeriod; a node otherwise. So a value that does not
// fit (an overflow event) and the write that would wrap the tag both
// demote the register, and only it. Demotion is sticky: once a register
// holds a node it never goes back to an inline word. LL/SC stays exact in
// both forms.
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
// Link discipline: a process's link for a register is the 64-bit word it
// would have to still observe — the node's version for a node word, the
// whole tagged word for an inline one. Inline words always have bit 0 set
// (odd); node versions are always even: a register's first node carries
// kFirstNodeVersion (2) and each replacement the previous version + 2. So
// a link taken before a register was demoted can never validate against a
// node installed after, and vice versa.
//
// ABA: node versions never recur (64-bit counter), and an inline tag is
// never reused — each inline write raises it by one, and the write after
// tag 65535 installs a node. So no register word recurs and SC is exact
// in both forms: a register takes at most 65,534 inline writes before it
// demotes (docs/hw_backend.md).
//
// Reclamation discipline: every operation brackets its node dereferences
// inside one Reclaimer::Guard, loads register words through the guard
// (acquire for fresh loads, confirm for words a failed CAS handed back),
// and retires unlinked nodes through it. No protection ever spans an
// operation boundary — the invariant that lets oversubscribed executors
// bind hazard slots to carrier threads (see hw/reclaim.h).
//
// State. A process owns only its links: one row of link words per
// process, all rows in one allocation, each row on lines of its own.
// Everything else a write touches — the retry loop's backoff, the width
// and allocation counters — is per reclaimer slot, resolved once per
// operation by its Guard. With one slot per process (reclaim_slots == 0)
// that is per process; on a pool run it is per carrier thread, which runs
// one process at a time.
//
// Thread contract: operations for process p must all be issued by the one
// thread running p at the time (the executors guarantee this; a process
// may migrate between carrier threads between operations, and the
// scheduler's hand-off orders its link row for the next carrier), and the
// operations charged to one slot must be serialized (one slot per thread).
// Different processes' operations may run fully concurrently. peek_*
// observers are for quiescent use only (before threads start or after
// they join).
#ifndef LLSC_HW_HW_MEMORY_H_
#define LLSC_HW_HW_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "hw/backoff.h"
#include "hw/reclaim.h"
#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
#include "memory/value.h"
#include "util/line_allocator.h"

namespace llsc {

inline constexpr std::size_t kCacheLineBytes = 64;

class HwMemory {
 public:
  // A fixed table of `num_registers` registers (the simulator's lazy
  // "infinite" array would need a concurrent map; algorithms declare their
  // span up front) serving threads/processes [0, num_threads). `backoff`
  // tunes the retry-loop backoff at every contended CAS site. `storage`
  // and `reclaim` are kept because perfbench/ passes them; nothing reads
  // them. `reclaim_slots` sizes the hazard-pointer Reclaimer's slot table
  // and the per-slot backoff and counters — 0 means one slot per
  // thread/process; the pool passes its carrier count and binds each
  // carrier to a slot (hw/reclaim.h).
  HwMemory(std::size_t num_registers, int num_threads,
           const BackoffOptions& backoff = {},
           StoragePolicy storage = default_storage_policy(),
           ReclaimPolicy reclaim = default_reclaim_policy(),
           int reclaim_slots = 0);
  ~HwMemory();
  HwMemory(const HwMemory&) = delete;
  HwMemory& operator=(const HwMemory&) = delete;

  // The paper's five operations plus the optional Section 7 RMW; `p` is
  // the invoking process == the invoking thread's slot.
  Value ll(ProcId p, RegId r);
  OpResult sc(ProcId p, RegId r, Value v);
  OpResult validate(ProcId p, RegId r);
  Value swap(ProcId p, RegId r, Value v);
  void move(ProcId p, RegId src, RegId dst);
  Value rmw(ProcId p, RegId r, const RmwFunction& f);

  // Uniform entry point mirroring SharedMemory::apply (this is what the
  // hw platform routes Process steps through).
  OpResult apply(ProcId p, const PendingOp& op);

  std::size_t num_registers() const { return regs_.size(); }

  // Crash-recovery support (hw/fault.h): drop every link p holds, so a
  // restarted incarnation cannot adopt a reservation its dead predecessor
  // took, and release the reclamation protections of p's slot (the dead
  // incarnation's guard already unwound; this is the explicit reset).
  // Call this from the carrier thread performing p's restart — the same
  // thread contract every operation for p already obeys.
  void invalidate_links(ProcId p);

  // The run's reclaimer (executors bind carrier threads to its slots;
  // tests read its slot count and scan threshold).
  Reclaimer& reclaimer() { return reclaimer_; }

  // --- quiescent observation (tests / post-run accounting only) ---
  Value peek_value(RegId r) const;
  ReclaimStats reclaim_stats() const;
  BackoffStats backoff_stats() const;
  RegisterWidthStats width_stats() const;

  // Labeled logical-object ranges (memory/storage_policy.h). When set,
  // width_stats() attributes each demoted register to its group in
  // boxed_fallback_by_group; empty (the default) keeps the breakdown empty
  // and existing artifact schemas byte-stable. Set before threads start;
  // not thread-safe against concurrent operations.
  void set_register_groups(std::vector<RegisterGroup> groups) {
    groups_ = std::move(groups);
  }

 private:
  // Immutable once published; versions per register strictly increase,
  // are never reused, and are always even (see the link discipline above).
  // The node type itself lives with its lifecycle owner, the Reclaimer
  // (hw/reclaim.h).
  using Node = VersionedNode;
  static constexpr std::uint64_t kFirstNodeVersion = 2;

  struct alignas(kCacheLineBytes) PaddedWord {
    // Either a Node* (bit 0 clear — nodes are 8-byte aligned) or a tagged
    // inline word (bit 0 set). The constructor initializes it; 0 only
    // before that.
    std::atomic<std::uint64_t> word{0};
    // Park rendezvous for the backoff's parking tier; shares the
    // word's (already-padded) line, which the waking writer just owned.
    ParkSpot park;
  };

  // Per reclaimer slot, all in one allocation (slots_); the alignment
  // keeps each on lines of its own. Private to the thread the slot serves.
  struct alignas(kCacheLineBytes) SlotCtx {
    // Net completed-install allocations (a node deleted after losing its
    // CAS race is un-counted on the spot).
    std::uint64_t allocated = 0;
    // Retry-loop backoff state and counters.
    Backoff backoff;
    std::uint64_t wakes = 0;
    // Width accounting (see RegisterWidthStats).
    std::uint64_t writes_inspected = 0;
    std::size_t max_bits = 0;
    std::uint64_t overflow_events = 0;
    std::uint64_t inline_installs = 0;
    std::uint64_t boxed_installs = 0;
  };

  // Eight link words: a link row is a whole number of these, so no two
  // processes' links share a line.
  static constexpr std::size_t kLinksPerLine =
      kCacheLineBytes / sizeof(std::uint64_t);
  struct alignas(kCacheLineBytes) LinkLine {
    std::uint64_t word[kLinksPerLine] = {};
  };

  // Whether a write of a value that `fits` an inline word, over word
  // `cur`, installs an inline word: the value fits, the register is still
  // inline, and cur's tag has a successor. Otherwise the write installs a
  // node, demoting an inline register for good.
  static bool stays_inline(std::uint64_t cur, bool fits) {
    return fits && !is_node_word(cur) && inline_tag(cur) < kInlineTagPeriod;
  }

  // The link a register's current word asserts: the whole word when
  // inline, the node's version otherwise.
  static std::uint64_t link_of(std::uint64_t w) {
    return is_node_word(w) ? as_node(w)->version : w;
  }
  static Value value_of(std::uint64_t w) {
    return is_node_word(w) ? as_node(w)->value : decode_inline(w);
  }
  // Version of the node that replaces word w.
  static std::uint64_t next_version(std::uint64_t w) {
    return is_node_word(w) ? as_node(w)->version + 2 : kFirstNodeVersion;
  }
  // The value a successful CAS replaced; retires the replaced node, if any.
  static Value take_replaced(Reclaimer::Guard& g, std::uint64_t w);
  // The word an SC or RMW writing `v` over `cur` installs: an inline word
  // when `inline_install`, otherwise a fresh node that takes `v` and is
  // also returned through `fresh`, so the caller can discard it if its CAS
  // loses.
  std::uint64_t successor(SlotCtx& c, std::uint64_t cur, Value&& v,
                          bool inline_install, Node*& fresh);
  // Deletes a node that lost its CAS race and un-counts its allocation
  // (no-op for nullptr).
  void discard(SlotCtx& c, Node* fresh);

  void check_proc(ProcId p) const;
  // Every operation's protection scope, on the slot serving p; checks p.
  Reclaimer::Guard guard(ProcId p);
  // p's link word for register r (p already checked by guard): 0 = no live
  // link, otherwise the word (inline) or version (node) p's LL observed.
  std::uint64_t& link(ProcId p, RegId r);
  SlotCtx& slot_ctx(const Reclaimer::Guard& g) {
    return slots_[static_cast<std::size_t>(g.slot())];
  }
  std::atomic<std::uint64_t>& word(RegId r);
  const std::atomic<std::uint64_t>& word(RegId r) const;
  Node* make_node(SlotCtx& c, Value v, std::uint64_t version);
  // Wake threads parked on r's ParkSpot after a successful write (no-op
  // unless someone is registered as a waiter).
  void wake_waiters(SlotCtx& c, RegId r);
  // Width accounting at a *completed* install (SC success, swap, move,
  // rmw) — never per CAS retry, so simulator and hw totals agree. Callers
  // take the bits before the CAS: once published, a node may be replaced,
  // retired, and freed by a concurrent writer at any time — only the node
  // in this slot's hazard word is protected — so its value must not be
  // read after the CAS.
  void note_install(SlotCtx& c, std::size_t encoded_bits,
                    bool inline_install);
  // Unconditional install (swap/move tail): inline CAS while stays_inline,
  // node install otherwise. Returns the replaced value.
  Value install(Reclaimer::Guard& g, SlotCtx& c, RegId r, Value v);

  int num_procs_;
  std::size_t lines_per_row_;
  // num_procs_ rows of lines_per_row_ lines. Sized before regs_, so a
  // table size that would wrap fails its check before anything is
  // allocated.
  std::vector<LinkLine, LineAllocator<LinkLine>> links_;
  std::vector<PaddedWord> regs_;
  std::vector<RegisterGroup> groups_;
  Waiter* waiter_;
  Reclaimer reclaimer_;
  std::vector<SlotCtx, LineAllocator<SlotCtx>> slots_;
};

}  // namespace llsc

#endif  // LLSC_HW_HW_MEMORY_H_
