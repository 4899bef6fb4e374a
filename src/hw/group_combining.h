// Two-level combining for M clients on N carrier threads.
//
// CombiningUniversal (universal/combining.h) gives every process an
// announce slot, so each install copies Θ(n) per-process state and each
// combine scans ⌈n/46⌉ toggle words. That is the right shape for n
// threads, but service-mode clients are coroutines: M ≫ N of them share
// N carriers (hw/oversub_executor.h). GroupCombiningUniversal puts a
// carrier-local level in front of the shared one, in the shape of
// H-Synch's hierarchical combining (Fatourou & Kallimanis, PPoPP 2012):
//
//   * client p belongs to group g = p mod N — the pool's initial
//     placement, so group-mates normally share a carrier;
//   * a client publishes its op in its own cache-padded request cell and
//     polls that cell, calling ctx.yield() between checks;
//   * the member that wins the group's try-lock becomes the combiner: it
//     collects every pending op of the group (ascending ProcId) into one
//     batch op, runs it as ONE operation of CombiningUniversal(n = N) in
//     announce slot g, and writes each member's response into its cell.
//
// The construction stays oblivious: a batch is an ObjOp whose argument
// holds the member ops, and a batch adapter around the object factory
// applies them in order and returns their responses. At the register
// level this is CombiningUniversal with n = N — the register table is
// that construction's span — and one shared-memory round serves a whole
// group's batch. Group-mates coordinate through carrier-local memory the
// paper's register model does not have, so per-client shared-op counts
// below the Ω(log n) bound of Theorem 6.1 do not contradict it: the
// bound applies to the N processes that take shared steps.
//
// Group state is thread-safe: a steal can put two group-mates on
// different carriers, so the request cells and the group lock use
// acquire/release atomics, and the lock's ordering hands slot g's
// sequence number and CombiningUniversal's per-slot state pool from one
// combiner to the next.
//
// Crash rule. Faults are injected at shared ops, and only combiners take
// shared ops, so a crash always hits a combiner mid-batch. The group
// keeps its in-flight (seq, batch) in group state and the lock is
// released while the crashed frame unwinds. The next combiner re-runs the
// same (slot, seq, batch) before it collects a new batch; if a helper
// already installed it, CombiningUniversal adopts that install's
// responses, so each collected op is applied exactly once. An amnesiac
// restart whose previous incarnation's op is still in flight waits for
// that op to be applied and drops its response before publishing anew.
//
// Requires a platform whose ctx.yield() suspends (the oversubscribed
// executor): on the simulator a waiting client would spin forever, so
// execute() rejects it with a named precondition.
#ifndef LLSC_HW_GROUP_COMBINING_H_
#define LLSC_HW_GROUP_COMBINING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "universal/combining.h"

namespace llsc {

class GroupCombiningUniversal final : public UniversalConstruction {
 public:
  // m clients in `groups` groups; the shared level is
  // CombiningUniversal(groups) on registers [base, base + register_span()).
  GroupCombiningUniversal(int m, int groups, ObjectFactory factory,
                          RegId base = 0);

  SubTask<Value> execute(ProcCtx ctx, ObjOp op) override;
  // Fault-free: a client's op rides exactly one batch, and a combiner
  // runs one CombiningUniversal(N) op per batch; other clients take no
  // shared steps at all.
  std::uint64_t worst_case_shared_ops() const override {
    return shared_.worst_case_shared_ops();
  }
  std::string name() const override { return "group-combining"; }
  std::vector<RegisterGroup> register_groups() const override {
    return shared_.register_groups();
  }

  RegId register_span() const { return shared_.register_span(); }
  int groups() const { return static_cast<int>(groups_.size()); }
  // Batch accounting of the shared level (installs = batches).
  CombiningStats stats() const { return shared_.stats(); }

 private:
  enum CellState : int { kIdle = 0, kPending = 1, kDone = 2 };

  // One client's request cell. op is written by the owner before the
  // release of kPending; response by the combiner before the release of
  // kDone.
  struct alignas(64) Cell {
    std::atomic<int> state{kIdle};
    ObjOp op;
    Value response;
  };

  // One group. Everything but `locked` is touched only by the lock holder.
  struct alignas(64) Group {
    std::atomic<bool> locked{false};
    std::uint64_t seq = 0;       // last batch sequence number in slot g
    bool in_flight = false;      // batch/members await a (re-)run
    ObjOp batch;                 // the in-flight batch op
    std::vector<ProcId> members;  // whose cells receive its responses
  };

  int m_;
  CombiningUniversal shared_;
  std::vector<Cell> cells_;    // per client
  std::vector<Group> groups_;  // per group
};

}  // namespace llsc

#endif  // LLSC_HW_GROUP_COMBINING_H_
