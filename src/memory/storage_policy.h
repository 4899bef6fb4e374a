// Register storage — Section 7's bounded registers under the paper's
// unbounded ones.
//
// The paper's model gives every register "an unbounded size"; S7's width
// audit (the counters below) shows the count-based wakeup algorithms
// write values of ⌈log₂ n⌉+1 bits while the universal constructions write
// unbounded ones. A write's width is visible at the write, so both
// substrates (hw's HwMemory and the simulator's SharedMemory) run
// one rule with no setting: a register starts as a 64-bit inline word
// holding nil and stays one while its values fit and its version tag has
// a successor; the first write of a value that does not fit, or the write
// that would reuse a tag, gives that register (and only it) a heap node,
// and it keeps one for good. This header holds the inline word codec and
// the width/overflow counters every run reports.
//
// Inline word layout (bit 0 is the discriminator; Node pointers are
// 8-byte aligned so bit 0 = 0 always means "pointer"):
//
//   bit      0      : 1  (inline marker)
//   bits  [47:1]    : payload — 0 for nil, v+1 for a u64 v (so any
//                     encodable word is nonzero and v ≤ 2^47 − 2 fits)
//   bits [63:48]    : 16-bit version tag in [1, 65535], one step per
//                     completed write and never reused (never 0, so an
//                     inline word never collides with the "no link"
//                     sentinel 0)
//
// StoragePolicy is what is left of the old boxed/inline switch. It selects
// nothing; perfbench/ still names it.
#ifndef LLSC_MEMORY_STORAGE_POLICY_H_
#define LLSC_MEMORY_STORAGE_POLICY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "memory/op.h"
#include "memory/value.h"

namespace llsc {

// Kept because perfbench/ names it; nothing reads it.
enum class StoragePolicy : int {
  kBoxed = 0,
  kInline = 1,
};

// Kept because perfbench/ calls it; nothing reads it.
std::string to_string(StoragePolicy policy);

// Always kInline, the one behaviour. Kept because perfbench/ calls it;
// nothing reads it.
StoragePolicy default_storage_policy();

// --- the inline 64-bit word codec ---------------------------------------

inline constexpr std::size_t kInlineTagBits = 16;
inline constexpr std::size_t kInlinePayloadBits = 47;
// Largest u64 an inline word can hold (payload stores v+1 in 47 bits).
inline constexpr std::uint64_t kInlineMaxU64 =
    (std::uint64_t{1} << kInlinePayloadBits) - 2;
// Distinct tags, and the last one: a register whose word carries this tag
// takes its next write as a node instead of wrapping to tag 1, so a stale
// link never matches a recurring word (the ABA note in docs/hw_backend.md).
inline constexpr std::uint64_t kInlineTagPeriod =
    (std::uint64_t{1} << kInlineTagBits) - 1;

// nil and u64 values up to kInlineMaxU64 fit; everything else (BigInt,
// strings, structured payloads) must be boxed.
bool value_fits_inline(const Value& v);

std::uint64_t inline_tag(std::uint64_t word);
// No wrap: a word at kInlineTagPeriod is never rewritten inline, and
// encode_inline rejects the tag past it.
std::uint64_t next_inline_tag(std::uint64_t tag);
// Precondition: value_fits_inline(v) and tag in [1, kInlineTagPeriod].
std::uint64_t encode_inline(const Value& v, std::uint64_t tag);
Value decode_inline(std::uint64_t word);

// A labeled half-open register-id range [lo, hi) identifying one logical
// object inside a construction's register span — e.g. CombiningUniversal's
// announce array vs its single state pointer. Supplied to a substrate
// (HwMemory::set_register_groups / SharedMemory::set_register_groups)
// so RegisterWidthStats can attribute demote-on-overflow events per
// logical object instead of lumping them into one counter.
struct RegisterGroup {
  std::string label;
  RegId lo = 0;
  RegId hi = 0;  // exclusive

  bool contains(RegId r) const { return r >= lo && r < hi; }
};

// Label under which demoted registers outside every supplied group are
// reported in the per-group breakdown.
inline constexpr const char* kUngroupedLabel = "other";

// Width/overflow counters, which S7's register-width audit reads (its
// writes are writes_inspected less the run's moves and RMWs). Counted only
// at *completed* install points (SC success, swap, move, rmw) — never per
// CAS retry — so the totals agree between the simulator and the hw
// backend for any deterministic workload.
struct RegisterWidthStats {
  std::uint64_t writes_inspected = 0;
  // Widest value written, in bits; ~std::size_t{0} once a structured
  // (unbounded) payload was written. 0 when nothing was written.
  std::size_t max_bits = 0;
  // Completed writes whose value does not fit in an inline word. A
  // demotion at tag exhaustion is not an overflow.
  std::uint64_t overflow_events = 0;
  std::uint64_t inline_installs = 0;
  std::uint64_t boxed_installs = 0;
  // Registers demoted to a node by an overflow or by tag exhaustion.
  std::uint64_t boxed_fallback_registers = 0;
  // Breakdown of boxed_fallback_registers by logical object, keyed by
  // RegisterGroup label (kUngroupedLabel for registers outside every
  // supplied group). Populated only when register groups were installed on
  // the substrate; empty otherwise, keeping existing artifact schemas
  // byte-stable. Values always sum to boxed_fallback_registers when
  // non-empty.
  std::map<std::string, std::uint64_t> boxed_fallback_by_group;

  bool bounded() const { return max_bits != ~std::size_t{0}; }
};

// Shared attribution helper for both substrates: distributes `demoted`
// register ids over `groups`, writing the per-label counts into
// `stats.boxed_fallback_by_group` (no-op when `groups` is empty).
void attribute_boxed_fallbacks(const std::vector<RegisterGroup>& groups,
                               const std::vector<RegId>& demoted,
                               RegisterWidthStats& stats);

}  // namespace llsc

#endif  // LLSC_MEMORY_STORAGE_POLICY_H_
