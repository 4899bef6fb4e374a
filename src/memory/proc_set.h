// Compact sets of process ids.
//
// The UP-set bookkeeping of Section 5.3 (core/up_tracker) and the fault
// layer's adaptive adversary (hw/fault_adversary) keep one set per process
// and one per touched register. ProcSet is a fixed-universe
// bitset ([0, n)) with the operations that bookkeeping needs: insert,
// union, subset test, cardinality — all O(n/64).
#ifndef LLSC_MEMORY_PROC_SET_H_
#define LLSC_MEMORY_PROC_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "memory/op.h"

namespace llsc {

class ProcSet {
 public:
  ProcSet() = default;
  // Empty set over the universe [0, n).
  explicit ProcSet(int n);
  // Singleton {p} over [0, n).
  static ProcSet singleton(int n, ProcId p);
  // The full universe [0, n).
  static ProcSet full(int n);
  // From an explicit list.
  static ProcSet of(int n, std::initializer_list<ProcId> ids);

  int universe() const { return n_; }
  bool contains(ProcId p) const;
  void insert(ProcId p);
  void unite(const ProcSet& other);
  bool subset_of(const ProcSet& other) const;
  std::size_t count() const;
  bool empty() const { return count() == 0; }

  // All members, ascending.
  std::vector<ProcId> members() const;

  bool operator==(const ProcSet&) const = default;

  std::string to_string() const;

 private:
  int n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_PROC_SET_H_
