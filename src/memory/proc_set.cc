#include "memory/proc_set.h"

#include "util/check.h"
#include "util/str.h"

namespace llsc {

ProcSet::ProcSet(int n) : n_(n), words_((static_cast<std::size_t>(n) + 63) / 64, 0) {
  LLSC_EXPECTS(n >= 0, "negative universe");
}

ProcSet ProcSet::singleton(int n, ProcId p) {
  ProcSet s(n);
  s.insert(p);
  return s;
}

ProcSet ProcSet::full(int n) {
  ProcSet s(n);
  for (auto& w : s.words_) w = ~std::uint64_t{0};
  const int rem = n % 64;
  if (rem != 0 && !s.words_.empty()) {
    s.words_.back() = (std::uint64_t{1} << rem) - 1;
  }
  return s;
}

ProcSet ProcSet::of(int n, std::initializer_list<ProcId> ids) {
  ProcSet s(n);
  for (const ProcId p : ids) s.insert(p);
  return s;
}

bool ProcSet::contains(ProcId p) const {
  if (p < 0 || p >= n_) return false;
  return (words_[static_cast<std::size_t>(p) / 64] >> (p % 64)) & 1;
}

void ProcSet::insert(ProcId p) {
  LLSC_EXPECTS(p >= 0 && p < n_, "process id outside the set universe");
  words_[static_cast<std::size_t>(p) / 64] |= std::uint64_t{1} << (p % 64);
}

void ProcSet::unite(const ProcSet& other) {
  LLSC_EXPECTS(n_ == other.n_, "ProcSet universes differ");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

bool ProcSet::subset_of(const ProcSet& other) const {
  LLSC_EXPECTS(n_ == other.n_, "ProcSet universes differ");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::size_t ProcSet::count() const {
  std::size_t c = 0;
  for (const auto w : words_) {
    c += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  return c;
}

std::vector<ProcId> ProcSet::members() const {
  std::vector<ProcId> out;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = words_[i];
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      out.push_back(static_cast<ProcId>(i * 64 + static_cast<std::size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

std::string ProcSet::to_string() const {
  std::vector<std::string> parts;
  for (const ProcId p : members()) parts.push_back("p" + std::to_string(p));
  return "{" + join(parts, ",") + "}";
}

}  // namespace llsc
