#include "memory/shared_memory.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"

namespace llsc {

namespace {

bool pset_contains(const std::vector<ProcId>& pset, ProcId p) {
  return std::binary_search(pset.begin(), pset.end(), p);
}

void pset_insert(std::vector<ProcId>& pset, ProcId p) {
  // Fast paths: LLs issued in id order append; a re-link by the highest
  // linked id is a no-op.
  if (pset.empty() || pset.back() < p) {
    pset.push_back(p);
    return;
  }
  if (pset.back() == p) return;
  const auto it = std::lower_bound(pset.begin(), pset.end(), p);
  if (*it != p) pset.insert(it, p);
}

void pset_erase(std::vector<ProcId>& pset, ProcId p) {
  const auto it = std::lower_bound(pset.begin(), pset.end(), p);
  if (it != pset.end() && *it == p) pset.erase(it);
}

}  // namespace

std::string Register::to_string() const {
  std::vector<std::string> ps;
  ps.reserve(pset.size());
  for (const ProcId p : pset) ps.push_back("p" + std::to_string(p));
  return "(" + value.to_string() + ", {" + join(ps, ",") + "})";
}

std::uint64_t MemoryOpCounts::total() const {
  std::uint64_t sum = 0;
  for (const auto c : by_kind) sum += c;
  return sum;
}

Value SharedMemory::ll(ProcId p, RegId r) {
  ++counts_[OpKind::kLL];
  Register& R = reg(r);
  pset_insert(R.pset, p);
  return R.value;
}

OpResult SharedMemory::sc(ProcId p, RegId r, Value v) {
  ++counts_[OpKind::kSC];
  Register& R = reg(r);
  if (pset_contains(R.pset, p)) {
    // The overflow check comes after the link check, matching the hw
    // backend: a failed SC never faults, whatever its argument.
    check_overflow(r, v);
    note_write(r, v);
    Value prev = R.value;
    R.value = std::move(v);
    R.pset.clear();
    return OpResult{.flag = true, .value = std::move(prev)};
  }
  return OpResult{.flag = false, .value = R.value};
}

OpResult SharedMemory::validate(ProcId p, RegId r) const {
  // validate never mutates register state, hence the const qualifier; the
  // op counter is mutable bookkeeping.
  const_cast<MemoryOpCounts&>(counts_)[OpKind::kValidate]++;
  const Register* R = find(r);
  if (R == nullptr) return OpResult{.flag = false, .value = Value{}};
  return OpResult{.flag = pset_contains(R->pset, p), .value = R->value};
}

Value SharedMemory::swap(ProcId p, RegId r, Value v) {
  (void)p;  // swap's effect does not depend on the invoker
  ++counts_[OpKind::kSwap];
  check_overflow(r, v);
  note_write(r, v);
  Register& R = reg(r);
  Value prev = R.value;
  R.value = std::move(v);
  R.pset.clear();
  return prev;
}

void SharedMemory::move(ProcId p, RegId src, RegId dst) {
  (void)p;
  ++counts_[OpKind::kMove];
  // Read the source before materializing the destination: reg(dst) may
  // rehash the map and invalidate references.
  Value v = src == dst ? reg(src).value : (find(src) ? find(src)->value
                                                     : Value{});
  check_overflow(dst, v);
  note_write(dst, v);
  Register& D = reg(dst);
  D.value = std::move(v);
  D.pset.clear();
}

Value SharedMemory::rmw(ProcId p, RegId r, const RmwFunction& f) {
  (void)p;
  ++counts_[OpKind::kRmw];
  Register& R = reg(r);
  Value next = f.apply(R.value);
  check_overflow(r, next);
  note_write(r, next);
  Value prev = std::move(R.value);
  R.value = std::move(next);
  R.pset.clear();
  return prev;
}

OpResult SharedMemory::apply(ProcId p, const PendingOp& op) {
  switch (op.kind) {
    case OpKind::kLL:
      return OpResult{.flag = true, .value = ll(p, op.reg)};
    case OpKind::kSC:
      return sc(p, op.reg, op.arg);
    case OpKind::kValidate:
      return validate(p, op.reg);
    case OpKind::kSwap:
      return OpResult{.flag = true, .value = swap(p, op.reg, op.arg)};
    case OpKind::kMove:
      move(p, op.src, op.reg);
      return OpResult{.flag = true, .value = Value{}};
    case OpKind::kRmw:
      LLSC_EXPECTS(op.rmw != nullptr, "RMW op without a function");
      return OpResult{.flag = true, .value = rmw(p, op.reg, *op.rmw)};
  }
  LLSC_UNREACHABLE("bad OpKind");
}

void SharedMemory::invalidate_links(ProcId p) {
  for (auto& [r, R] : regs_) pset_erase(R.pset, p);
}

const Value& SharedMemory::peek_value(RegId r) const {
  static const Value kNil;
  const Register* R = find(r);
  return R == nullptr ? kNil : R->value;
}

bool SharedMemory::peek_pset_contains(RegId r, ProcId p) const {
  const Register* R = find(r);
  return R != nullptr && pset_contains(R->pset, p);
}

std::size_t SharedMemory::peek_pset_size(RegId r) const {
  const Register* R = find(r);
  return R == nullptr ? 0 : R->pset.size();
}

const std::vector<ProcId>& SharedMemory::peek_pset(RegId r) const {
  static const std::vector<ProcId> kEmpty;
  const Register* R = find(r);
  return R == nullptr ? kEmpty : R->pset;
}

std::vector<RegId> SharedMemory::touched_registers() const {
  std::vector<RegId> out;
  out.reserve(regs_.size());
  for (const auto& [id, _] : regs_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t SharedMemory::state_hash() const {
  // Order-independent combination over registers (the map iteration order is
  // unspecified): XOR of per-register hashes, each mixed with the id.
  std::size_t acc = 0;
  for (const auto& [id, R] : regs_) {
    std::size_t h = mix64(id);
    h = mix64(h ^ R.value.hash());
    for (const ProcId p : R.pset) {
      h = mix64(h ^ static_cast<std::size_t>(p) ^ 0x9E3779B97F4A7C15ULL);
    }
    acc ^= h;
  }
  return acc;
}

void SharedMemory::note_write(RegId r, const Value& v) {
  ++width_.writes_inspected;
  const std::size_t bits = v.encoded_bits();
  if (bits > width_.max_bits) width_.max_bits = bits;
  if (storage_ == StoragePolicy::kBoxed) {
    ++width_.boxed_installs;
    // Boxed hw installs a fresh node and retires the predecessor (the
    // very first install retires the register's initial node, which was
    // never charged to allocation) — so both counters advance together.
    ++reclaim_.nodes_allocated;
    ++reclaim_.nodes_retired;
    return;
  }
  const bool was_demoted = demoted_.contains(r);
  const bool fits = value_fits_inline(v);
  if (!fits) {
    // Only reachable under kInline — check_overflow threw for strict.
    ++width_.overflow_events;
    demoted_.insert(r);
  }
  if (fits && !was_demoted) {
    ++width_.inline_installs;
  } else {
    ++width_.boxed_installs;
    // A node-path install allocates; it retires a node only when the
    // register already held one (demoted before this install). The first
    // demoting install replaces an inline word — nothing to retire.
    ++reclaim_.nodes_allocated;
    if (was_demoted) ++reclaim_.nodes_retired;
  }
}

void SharedMemory::check_overflow(RegId r, const Value& v) const {
  if (storage_ == StoragePolicy::kInlineStrict && !value_fits_inline(v)) {
    throw RegisterOverflowError(
        "register " + std::to_string(r) + ": value " + v.to_string() +
        " does not fit in a 64-bit inline register word (strict policy)");
  }
}

ReclaimStats SharedMemory::reclaim_stats() const {
  ReclaimStats s = reclaim_;
  s.policy = reclaim_policy_;
  return s;
}

RegisterWidthStats SharedMemory::width_stats() const {
  RegisterWidthStats s = width_;
  s.policy = storage_;
  s.boxed_fallback_registers = demoted_.size();
  attribute_boxed_fallbacks(
      groups_, std::vector<RegId>(demoted_.begin(), demoted_.end()), s);
  return s;
}

Register& SharedMemory::reg(RegId r) { return regs_[r]; }

const Register* SharedMemory::find(RegId r) const {
  const auto it = regs_.find(r);
  return it == regs_.end() ? nullptr : &it->second;
}

}  // namespace llsc
