// Group-Update universal construction — O(log n) worst case.
//
// This is the construction the paper cites for tightness: "if the size of
// shared registers is not restricted, the universal construction of Afek,
// Dauber, and Touitou [1] (after two minor modifications) has O(log n)
// worst-case shared-access time complexity." We implement the
// unbounded-register form directly:
//
//   * a complete binary tree with (at least) n leaves; leaf i is owned by
//     process i and holds the AnnounceSet of i's operations (single
//     writer — published with one swap);
//   * every internal register holds the union of the announcements in its
//     subtree; a climbing process refreshes a node with TWO merge attempts
//     (LL node; read both children; SC the union). If both SCs fail, the
//     second failure's interfering SC must have read the children after
//     the climber updated its child, so the climber's operation is in the
//     node anyway — the classic "try twice" helping argument;
//   * the root holds the object snapshot plus every response; refreshing
//     the root applies all announced-but-unapplied operations in
//     ascending OpId order. After two root attempts the caller's op is
//     applied, and one validate fetches its response.
//
// Per-operation cost: 1 (leaf swap) + 8·(height) (two attempts of
// LL + 2 reads + SC per tree level, root included) + 1 (final validate)
// = Θ(log n) shared-memory operations, independent of contention.
//
// Long-lived use: a process's announce set grows with its operation
// count. With `prune_interval` = k > 0, a process whose set reaches k
// entries reads the root once (one extra shared op) and drops every
// already-applied operation before announcing the next one, keeping the
// set bounded by its in-flight work plus k. Pruning is safe because an
// operation leaves a leaf only after its response is recorded at the
// root, so no announced-but-unapplied operation ever disappears from the
// tree. (Root responses themselves are kept forever — exact long-lived
// semantics with garbage-collected responses needs the bounded-register
// techniques the paper's Section 7 discusses, which are out of scope.)
//
// Correctness rests on a per-operation inclusion argument: an operation
// stays in its leaf from announcement until it is applied (pruning removes
// only applied operations), so every merge computed after the announcement
// carries it upward, and root responses never disappear.
#ifndef LLSC_UNIVERSAL_GROUP_UPDATE_H_
#define LLSC_UNIVERSAL_GROUP_UPDATE_H_

#include <cstdint>
#include <vector>

#include "universal/op_id.h"
#include "universal/universal.h"

namespace llsc {

class GroupUpdateUC final : public UniversalConstruction {
 public:
  // Implements an object initialized to factory() for n processes, using
  // registers [base, base + register_span()) of the shared memory. Every
  // register starts nil: the first root refresh reads a nil root as the
  // initial state with no responses, so no setup step is needed.
  GroupUpdateUC(int n, ObjectFactory factory, RegId base = 0,
                std::size_t prune_interval = 0);

  SubTask<Value> execute(ProcCtx ctx, ObjOp op) override;
  std::uint64_t worst_case_shared_ops() const override;
  std::string name() const override { return "group-update"; }

  // Number of consecutive register ids the construction uses.
  RegId register_span() const { return static_cast<RegId>(2 * leaves_); }

  // Current size of a process's announce set (observability for tests).
  std::size_t announced_ops(ProcId p) const {
    return announced_[static_cast<std::size_t>(p)].ops.size();
  }

 private:
  // Heap layout: node 1 is the root, node v's children are 2v and 2v+1;
  // leaves are nodes [leaves_, 2*leaves_). Process i owns leaf leaves_+i.
  RegId reg_of(std::uint64_t node) const { return base_ + node; }
  std::uint64_t leaf_of(ProcId p) const {
    return leaves_ + static_cast<std::uint64_t>(p);
  }

  // The object state a nil root register denotes.
  RootState initial_root() const;

  int n_;
  ObjectFactory factory_;
  RegId base_;
  std::size_t prune_interval_;
  std::uint64_t leaves_;  // power of two, >= max(2, n)
  std::uint64_t height_;  // number of internal levels on a leaf-root path
  // Per-process operation sequence numbers and announced-op accumulators
  // (each entry is touched only by its owning process).
  std::vector<std::uint64_t> next_seq_;
  std::vector<AnnounceSet> announced_;
};

}  // namespace llsc

#endif  // LLSC_UNIVERSAL_GROUP_UPDATE_H_
