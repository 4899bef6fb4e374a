// RegisterStorage — the register representation behind HwMemory.
//
// HwMemory's public API (the paper's LL/SC/VL/swap/move plus the Section 7
// RMW) is fixed. Each register is one 64-bit atomic word holding either
//
//   a node word   — a pointer to an immutable heap VersionedNode{Value,
//                   version} (bit 0 clear). A write installs a fresh node
//                   and retires the replaced one to the run's Reclaimer
//                   (hw/reclaim.h — three-epoch batches by default,
//                   per-slot hazard pointers under ReclaimPolicy::kHazard).
//                   Any Value fits: the paper's unbounded register.
//   an inline word — the value itself: a 64-bit tagged word
//                   (memory/storage_policy.h codec — 16-bit version tag,
//                   47-bit payload, bit 0 set). A write is one CAS with no
//                   allocation and no reclamation: Section 7's bounded
//                   register.
//
// Every operation runs the same code under every StoragePolicy. The
// policy decides only three things:
//   - how a register starts: a nil node under kBoxed, an inline nil word
//     otherwise;
//   - whether a value that fits may be written inline: never under kBoxed;
//   - what happens to a value that does not fit: kInline demotes that one
//     register to nodes, permanently, and counts an overflow event;
//     kInlineStrict throws RegisterOverflowError before mutating anything.
//     Under kBoxed it is an ordinary node write, so overflow_events and
//     boxed_fallback_registers stay 0.
// Demotion is sticky: once a register holds a node it never goes back to
// an inline word.
//
// Link discipline: a process's link for a register is the 64-bit word it
// would have to still observe — the node's version for a node word, the
// whole tagged word for an inline one. Inline words always have bit 0 set
// (odd); node versions are always even: a register's first node carries
// kFirstNodeVersion (2) and each replacement the previous version + 2. So
// a link taken before a register was demoted can never validate against a
// node installed after, and vice versa.
//
// ABA: node versions never recur (64-bit counter), so SC on a node word is
// exact. An inline word's 16-bit tag wraps 0xFFFF → 1, so a *wrong* inline
// SC success requires exactly k · 65535 intervening completed writes, the
// last of which re-encodes the linked payload — the bounded-register price
// Section 7 is about, documented in docs/hw_backend.md.
//
// Reclamation discipline: every operation brackets its node dereferences
// inside one Reclaimer::Guard, loads register words through the guard
// (acquire for fresh loads, confirm for words a failed CAS handed back),
// and retires unlinked nodes through it. No protection ever spans an
// operation boundary — the invariant that lets oversubscribed executors
// bind hazard slots to carrier threads (see hw/reclaim.h).
#ifndef LLSC_HW_REGISTER_STORAGE_H_
#define LLSC_HW_REGISTER_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/backoff.h"
#include "hw/reclaim.h"
#include "memory/op.h"
#include "memory/reclaim_policy.h"
#include "memory/rmw.h"
#include "memory/storage_policy.h"
#include "memory/value.h"

namespace llsc {

inline constexpr std::size_t kCacheLineBytes = 64;

// Backoff counters aggregated over threads (read when quiescent), plus
// the wake side of the parking tier, which is charged to the writer
// thread that issued the wake.
struct HwBackoffStats {
  std::uint64_t cas_failures = 0;
  std::uint64_t cas_successes = 0;
  std::uint64_t spin_pauses = 0;
  std::uint64_t yields = 0;
  std::uint64_t parks = 0;
  std::uint64_t park_skips = 0;  // parks cut short by the word re-check
  std::uint64_t wakes = 0;

  double failure_rate() const {
    const std::uint64_t attempts = cas_failures + cas_successes;
    return attempts == 0
               ? 0.0
               : static_cast<double>(cas_failures) /
                     static_cast<double>(attempts);
  }
};

class RegisterStorage final {
 public:
  // `reclaim_slots` sizes the Reclaimer's slot table; 0 means one slot per
  // thread/process (the 1:1 layout). Oversubscribed executors pass their
  // carrier count when the policy binds slots to carriers (hw/reclaim.h).
  RegisterStorage(StoragePolicy policy, std::size_t num_registers,
                  int num_threads, const BackoffOptions& backoff,
                  ReclaimPolicy reclaim = default_reclaim_policy(),
                  int reclaim_slots = 0);
  ~RegisterStorage();
  RegisterStorage(const RegisterStorage&) = delete;
  RegisterStorage& operator=(const RegisterStorage&) = delete;

  StoragePolicy policy() const { return policy_; }
  ReclaimPolicy reclaim_policy() const { return reclaimer_->policy(); }

  Value ll(ProcId p, RegId r);
  OpResult sc(ProcId p, RegId r, Value v);
  OpResult validate(ProcId p, RegId r);
  Value swap(ProcId p, RegId r, Value v);
  void move(ProcId p, RegId src, RegId dst);
  Value rmw(ProcId p, RegId r, const RmwFunction& f);

  std::size_t num_registers() const { return regs_.size(); }
  int num_threads() const { return static_cast<int>(ctxs_.size()); }

  // Crash-recovery support (hw/fault.h): drop every link p holds, so a
  // restarted incarnation cannot adopt a reservation its dead predecessor
  // took, and release the reclamation protections of p's slot (the dead
  // incarnation's guard already unwound; this is the explicit reset).
  // Links are owner-thread private; call this from the carrier thread
  // performing p's restart — the same thread-contract every operation for
  // p already obeys.
  void invalidate_links(ProcId p);

  // The run's reclamation policy object (executors use this to bind
  // carrier threads to slots; tests to reach policy internals).
  Reclaimer& reclaimer() { return *reclaimer_; }
  const Reclaimer& reclaimer() const { return *reclaimer_; }

  // --- quiescent observation (tests / post-run accounting only) ---
  Value peek_value(RegId r) const;
  bool peek_link_live(RegId r, ProcId p) const;
  ReclaimStats reclaim_stats() const;
  HwBackoffStats backoff_stats() const;
  RegisterWidthStats width_stats() const;

  // Labeled logical-object ranges (memory/storage_policy.h). When set
  // under an inline policy, width_stats() attributes each demoted register
  // to its group in boxed_fallback_by_group; empty (the default) keeps the
  // breakdown empty and existing artifact schemas byte-stable. Set before
  // the run; not thread-safe against concurrent operations.
  void set_register_groups(std::vector<RegisterGroup> groups) {
    groups_ = std::move(groups);
  }
  const std::vector<RegisterGroup>& register_groups() const {
    return groups_;
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

  struct alignas(kCacheLineBytes) ThreadCtx {
    // Linked word per register (owner-thread private); 0 = no live link.
    std::vector<std::uint64_t> link;
    // Net completed-install allocations (a node deleted after losing its
    // CAS race is un-counted on the spot).
    std::uint64_t allocated = 0;
    // Retry-loop backoff state and counters (owner-thread private).
    Backoff backoff;
    std::uint64_t wakes = 0;
    // Width accounting (owner-thread private; see RegisterWidthStats).
    std::uint64_t writes_inspected = 0;
    std::size_t max_bits = 0;
    std::uint64_t overflow_events = 0;
    std::uint64_t inline_installs = 0;
    std::uint64_t boxed_installs = 0;
  };

  // How the policy stores a completed write of `v` to register r: `fits`
  // when it may be written as an inline word (never under kBoxed);
  // `overflow` when an inline policy must box it. Throws
  // RegisterOverflowError instead of returning an overflow under
  // kInlineStrict.
  struct Placement {
    bool fits;
    bool overflow;
  };
  Placement place(RegId r, const Value& v) const;
  // Out of line, so place() stays small enough to inline on the hot path.
  [[noreturn]] static void throw_overflow(RegId r, const Value& v);

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
  std::uint64_t successor(ThreadCtx& c, std::uint64_t cur, Value&& v,
                          bool inline_install, Node*& fresh);
  // Deletes a node that lost its CAS race and un-counts its allocation
  // (no-op for nullptr).
  void discard(ThreadCtx& c, Node* fresh);

  ThreadCtx& ctx(ProcId p);
  std::atomic<std::uint64_t>& word(RegId r);
  const std::atomic<std::uint64_t>& word(RegId r) const;
  Node* make_node(ThreadCtx& c, Value v, std::uint64_t version);
  // Wake threads parked on r's ParkSpot after a successful write (no-op
  // unless someone is registered as a waiter).
  void wake_waiters(ThreadCtx& c, RegId r);
  // Width accounting at a *completed* install (SC success, swap, move,
  // rmw) — never per CAS retry, so simulator and hw totals agree. Callers
  // take the bits before the CAS: once published, a node may be replaced,
  // retired, and freed by a concurrent writer at any time — only the node
  // in this slot's hazard word is protected — so its value must not be
  // read after the CAS.
  void note_install(ThreadCtx& c, std::size_t encoded_bits,
                    bool inline_install);
  // Unconditional install (swap/move tail): inline CAS when the register
  // is inline and `v` may be written inline, node install otherwise.
  // Returns the replaced value.
  Value install(Reclaimer::Guard& g, ThreadCtx& c, RegId r, Value v);

  const StoragePolicy policy_;
  std::vector<PaddedWord> regs_;
  std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
  std::vector<RegisterGroup> groups_;
  Waiter* waiter_;
  std::unique_ptr<Reclaimer> reclaimer_;
};

}  // namespace llsc

#endif  // LLSC_HW_REGISTER_STORAGE_H_
