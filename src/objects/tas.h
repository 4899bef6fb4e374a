// Randomized one-shot test-and-set over LL/SC/VL/swap memory.
//
// The protocol follows the shape of Giakkoupis–Helmi–Higham–Woelfel's
// space-optimal randomized TAS (arXiv:1608.06033): a chain of randomized
// splitters acts as the fast sift-down path — each splitter admits at most
// one process, and a coin decides whether a process that loses a splitter
// keeps sifting down the chain or drops out — and a RatRace-style binary
// tournament (Alistarh et al.) is the fallback for every process the chain
// rejects. Both paths feed one claim register, which is what makes safety
// DETERMINISTIC: the claim register is write-once (only LL/SC writes it,
// and every candidate gives up as soon as it reads a foreign claim), so at
// most one process ever returns "won" no matter how the schedule, the coin
// tosses, or injected spurious SC failures fall. Randomization buys only
// speed, never safety — the property the adversarial legs lean on.
//
// Postconditions the rest of the suite builds on (see check_tas_run):
//   * at most one process returns 1, in every run, completed or not;
//   * a process returns 0 only after the claim register is non-nil, so by
//     the time any loser returns, the winner's identity is published and
//     frozen ("losers see loser" — and leader election is one read away,
//     objects/leader.h);
//   * the claim register recognizes its own writer: an amnesiac restarted
//     incarnation of the winner re-reads claim == self and returns 1
//     again instead of electing a second winner.
//
// Both bodies run unchanged on the simulator and on the real-thread pool,
// one thread per process (HwExecutor) or oversubscribed
// (OversubscribedExecutor) — they are written against the ProcCtx
// awaitable seam like every wakeup algorithm.
//
// randomized_tas_body() is the strict protocol above. fixed_shape_tas_body()
// is the differential-sweep variant in the style of the fixed_* fault
// scenarios: every process executes a schedule-INDEPENDENT number of shared
// ops (outcomes may differ, counts cannot), the claim SCs are nil-preserving
// so a "late" SC rewrites the winner instead of overwriting it, and a run in
// which every claim SC was forced to fail legitimately ends with no winner
// (the analogue of combining's fixed mode returning nil by contract).
#ifndef LLSC_OBJECTS_TAS_H_
#define LLSC_OBJECTS_TAS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "memory/value.h"
#include "objects/object.h"
#include "runtime/process.h"
#include "runtime/sub_task.h"
#include "runtime/system.h"

namespace llsc {

struct TasOptions {
  RegId base = 0;  // first register of the instance's layout
};

// Register layout of one TAS instance for n processes, starting at `base`:
// claim, announce (used by objects/leader.h), K splitter pairs (X, door),
// then the m-1 internal nodes of the fallback tournament over m leaves.
struct TasLayout {
  RegId claim = 0;
  RegId announce = 0;
  int splitters = 0;   // K = ceil(log2 n) + 1
  RegId splitter0 = 0; // splitter j: X = splitter0 + 2j, door = X + 1
  int leaves = 0;      // m = smallest power of two >= n
  RegId node0 = 0;     // internal node t (1-based heap index): node0 + t - 1

  static TasLayout make(int n, RegId base);

  RegId splitter_x(int j) const { return splitter0 + 2 * j; }
  RegId splitter_door(int j) const { return splitter0 + 2 * j + 1; }
  RegId node(int t) const { return node0 + t - 1; }
  // Registers consumed by the instance (next free register is base + this).
  RegId registers_used() const;
};

// The strict protocol as a nestable subroutine: co_await from a composed
// body (wakeup/reductions.h uses this). Returns of_u64(1) for the unique
// winner, of_u64(0) for everyone else.
SubTask<Value> tas_subtask(ProcCtx ctx, TasOptions options);

// Fixed-shape protocol as a subroutine (objects/leader.h composes it).
SubTask<Value> fixed_tas_subtask(ProcCtx ctx, TasOptions options);

// The strict protocol as a run body: every process performs one tas() and
// returns its outcome — 1 iff it won — so the wakeup-style winner scans of
// the Monte-Carlo estimator and the executors apply unchanged.
ProcBody randomized_tas_body(TasOptions options = {});

// Fixed-shape differential variant: fixed_shape_tas_ops(n) shared ops per
// process under any schedule and any fault plan (short of a crash).
ProcBody fixed_shape_tas_body(TasOptions options = {});
std::uint64_t fixed_shape_tas_ops(int n);

// Shared ops the strict protocol can take in a fault-free run: K splitters
// at 4 ops, the full tournament path at 3 ops per level plus one re-read,
// the claim handshake, and the loser's wait for the claim to land. Used by
// the reduction overhead tests as the "underlying object's ops" budget.
std::uint64_t tas_fault_free_max_ops(int n);

// --- run checkers, in the style of wakeup/spec.h ------------------------
//
// Conditions, for a System whose processes ran a TAS body:
//   (1) every terminated process returned 0 or 1;
//   (2) at most one process returned 1 — in EVERY run, completed or not;
//   (3) if all processes terminated, exactly one returned 1 (strict bodies
//       never complete a loser before the claim register is non-nil; set
//       require_winner = false for fixed-shape runs under forced-failure
//       plans, where a winnerless completed run is the documented contract);
//   (4) the claim register agrees with the results: it holds the winner's
//       id if there is one, and a loser never returned while claim was nil
//       (checked via the final state: a completed run with a loser must
//       have a non-nil claim).
struct TasCheckResult {
  bool ok = true;
  std::vector<std::string> violations;
  int num_winners = 0;
  ProcId winner = -1;

  std::string summary() const;
};

struct TasCheckOptions {
  TasOptions tas;
  // Condition (3): require exactly one winner when all processes
  // terminated. True for strict bodies (unconditionally, even under
  // spurious-failure plans); false for fixed-shape bodies under plans
  // that may force every claim SC to fail.
  bool require_winner = true;
};

TasCheckResult check_tas_run(const System& sys,
                             const TasCheckOptions& options = {});

// Recoverable extension (hw/fault.h): conditions (1)-(4) plus (5) no
// process is left crashed. num_restarts sums the incarnation counters so
// callers can assert the crash->rejoin schedule actually ran; the winner
// uniqueness of (2)/(3) must survive amnesiac restarts (the claim register
// is write-once and recognizes its own writer).
struct RecoverableTasCheckResult : TasCheckResult {
  std::uint64_t num_restarts = 0;
};

RecoverableTasCheckResult check_recoverable_tas_run(
    const System& sys, const TasCheckOptions& options = {});

// --- sequential specification -------------------------------------------
//
// One-shot test-and-set as a SequentialObject, for linearizability
// checking of the protocol's concurrent histories (tests/hw_lin_test.cc):
// "test&set" returns the OLD value — 0 to the first caller, 1 after.
class TasObject final : public SequentialObject {
 public:
  TasObject() = default;

  Value apply(const ObjOp& op) override;
  std::unique_ptr<SequentialObject> clone() const override;
  std::string state_fingerprint() const override;
  std::string type_name() const override { return "test&set"; }

 private:
  bool set_ = false;
};

}  // namespace llsc

#endif  // LLSC_OBJECTS_TAS_H_
