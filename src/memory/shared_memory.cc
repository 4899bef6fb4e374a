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
    note_write(v);
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
  Register& R = reg(r);
  note_write(v);
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
  Register& D = reg(dst);
  note_write(v);
  D.value = std::move(v);
  D.pset.clear();
}

Value SharedMemory::rmw(ProcId p, RegId r, const RmwFunction& f) {
  (void)p;
  ++counts_[OpKind::kRmw];
  Register& R = reg(r);
  Value next = f.apply(R.value);
  note_write(next);
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

void SharedMemory::note_write(const Value& v) {
  ++width_.writes_inspected;
  const std::size_t bits = v.encoded_bits();
  if (bits > width_.max_bits) width_.max_bits = bits;
}

Register& SharedMemory::reg(RegId r) { return regs_[r]; }

const Register* SharedMemory::find(RegId r) const {
  const auto it = regs_.find(r);
  return it == regs_.end() ? nullptr : &it->second;
}

}  // namespace llsc
