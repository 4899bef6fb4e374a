// Deterministic fault injection for both execution substrates.
//
// The paper's Theorem 6.1 holds under an adversarial scheduler; real LL/SC
// hardware (and every LL/SC-from-CAS construction, Blelloch & Wei) is
// adversarial in one more way: SC and VL may fail *spuriously*, processes
// may be delayed arbitrarily, and processes may crash-stop. A FaultPlan
// turns those adversaries into a reproducible test input:
//
//   * spurious SC/VL failures — modelled as spurious *reservation loss*:
//     for process p's k-th shared-memory op, a pure hash of
//     (plan.seed, p, k) decides whether p's link on the target register is
//     spuriously lost. A lost link forces the SC/VL outcome to failure and
//     stays dead until p's next LL on that register, exactly like a lost
//     hardware reservation. The underlying memory is NOT written by a
//     forced-failed SC (the value reported is the register's current
//     value, as the paper's failed SC reports it).
//   * stalls — a per-op hash decides whether p is delayed before or after
//     the op and for how many bounded units. On the hw backend a unit is
//     `stall_unit_ns` of wall clock; on the simulator the scheduler
//     already owns time, so the decision is counted but costs nothing
//     (the Fig. 2 adversary *is* the delay adversary there).
//   * crash-stop — the plan names (process, after_ops) pairs; process p
//     halts forever when it is about to execute shared-memory op number
//     `after_ops` (0-based), i.e. after executing exactly `after_ops`
//     ops. Crashes happen only at op boundaries, so no register is ever
//     left torn.
//   * crash-RECOVERY — a crash entry may carry a RecoverySpec: after a
//     hash-decided delay of 1..delay_units stall units the process
//     rejoins, either resuming its suspended coroutine frame
//     (amnesia=false, a long pause) or restarting the body from scratch
//     with all private coroutine state lost (amnesia=true — the restarted
//     incarnation keeps its cumulative op/toss counters so the decision
//     and toss streams continue where the dead incarnation left off, and
//     its LL reservations are invalidated, never adopted). Every recovery
//     decision is pure in (plan.seed, p, rejoins so far), so crash→rejoin
//     schedules replay bit-for-bit across substrates.
//
// Every *oblivious* decision is a pure function of (plan.seed, p, k)
// where k counts p's *executed* shared-memory ops — never of wall-clock
// time or the cross-process interleaving. The injector keeps no op count
// of its own: both substrates pass k = Process::shared_ops(), the one
// count the process owns. Two runs with the same plan, toss seed and
// algorithm therefore draw identical fault schedules on the hw backend
// and the simulator, which is what makes a failing schedule found on one
// substrate replayable on the other (hw/replay.h).
//
// Adversarial placement relaxes purity on the *recording* side only: the
// adaptive placement (hw/fault_adversary.h) observes the op stream (the
// paper's Fig. 2 adversary watches every process's knowledge) and spends
// a bounded fault budget online. Every decision it takes, and every
// decision of a budget-capped oblivious plan, is appended to a
// DecisionTrace; the trace serializes into the FaultPlan JSON and a traced
// plan replays through a pure (p, k)-lookup bit-for-bit on either
// substrate. Record once, replay anywhere.
//
// Threading: the injector keeps one cache-line-padded lane per process —
// its sorted crash specs, its rejoin count, its spuriously-dead links, its
// decision counters and placements; a lane is touched only by the thread
// running that process (the same contract HwMemory's link rows rely on).
// The fault budget and the adaptive adversary sit behind one injector
// mutex, which only the adaptive and budget-capped placements take.
// Aggregate stats() and trace() are for quiescent use.
//
// The fault layer is one library, llsc_fault (src/hw/CMakeLists.txt):
// this header, the JSON round-trip in fault.cc and the adaptive adversary
// in fault_adversary.cc. It needs only memory and util, so llsc_runtime
// (System, which instantiates apply()) links it without linking llsc_hw.
#ifndef LLSC_HW_FAULT_H_
#define LLSC_HW_FAULT_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "hw/fault_adversary.h"
#include "memory/op.h"
#include "util/check.h"
#include "util/line_allocator.h"
#include "util/rng.h"

namespace llsc {

// Failure taxonomy for one run / Monte-Carlo sample. The hw backend and
// the simulator classify with the same precedence: a crash-stop explains
// the failure even when it also left peers hung.
enum class RunStatus : std::uint8_t {
  kClean = 0,          // terminated, spec satisfied (where one applies)
  kSpecViolation = 1,  // terminated but the object/wakeup spec was broken
  kCrashed = 2,        // >= 1 process crash-stopped; run did not terminate
  kHung = 3,           // did not terminate and nobody crashed (wedged)
};

inline const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kClean:
      return "clean";
    case RunStatus::kSpecViolation:
      return "spec-violation";
    case RunStatus::kCrashed:
      return "crashed";
    case RunStatus::kHung:
      return "hung";
  }
  return "unknown";
}

// How spurious SC/VL failures are *placed*. Oblivious is PR 3's behavior
// (pure per-op hash roll); Adaptive is the Fig. 2-style adversary of
// hw/fault_adversary.h.
enum class FaultStrategyKind : std::uint8_t {
  kOblivious = 0,  // pure hash roll, optionally budget-capped
  kAdaptive = 1,   // Fig. 2-style: fail the most knowledgeable process
};

inline const char* to_string(FaultStrategyKind kind) {
  switch (kind) {
    case FaultStrategyKind::kOblivious:
      return "oblivious";
    case FaultStrategyKind::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

inline bool fault_strategy_from_string(const std::string& name,
                                       FaultStrategyKind* out) {
  if (name == "oblivious") {
    *out = FaultStrategyKind::kOblivious;
  } else if (name == "adaptive") {
    *out = FaultStrategyKind::kAdaptive;
  } else {
    return false;
  }
  return true;
}

// One adversarial injection decision: "p's op_index-th executed op — an SC
// (or VL) whose link was still live — spuriously loses its reservation".
// `score` is a placement diagnostic (the victim's knowledge-set size for
// Adaptive, 0 for budgeted Oblivious); it is serialized so a replayed
// trace still explains *why* each SC was failed.
struct FaultDecision {
  ProcId proc = 0;
  std::uint64_t op_index = 0;
  bool is_vl = false;
  std::uint64_t score = 0;

  friend bool operator==(const FaultDecision& a, const FaultDecision& b) {
    return a.proc == b.proc && a.op_index == b.op_index &&
           a.is_vl == b.is_vl && a.score == b.score;
  }
};

// The full decision record of one run, sorted by (proc, op_index). A plan
// whose trace is non-empty is in *replay mode*: strategy, budget and rates
// are ignored and exactly the traced (proc, op_index) pairs are failed — a
// pure per-process lookup, so replay keeps the oblivious determinism
// contract on both substrates. A hand-written trace need not be sorted.
struct DecisionTrace {
  std::vector<FaultDecision> decisions;

  bool empty() const { return decisions.empty(); }
  std::size_t size() const { return decisions.size(); }

  friend bool operator==(const DecisionTrace& a, const DecisionTrace& b) {
    return a.decisions == b.decisions;
  }
};

// Recovery directive attached to a crash. Defaults mean "no recovery"
// (PR 3 crash-stop), and a default spec is omitted from the JSON so old
// plans round-trip byte for byte.
struct RecoverySpec {
  // Upper bound of the hash-decided rejoin delay, in stall units of
  // `stall_unit_ns` wall-clock on the hw backend (the simulator counts
  // the units in FaultStats; schedule time there belongs to the
  // adversary). 0 means rejoin immediately.
  std::uint32_t delay_units = 0;
  // Total rejoins (pause or amnesiac) the process may take across the
  // whole run, counting earlier entries'; 0 disables recovery for this
  // crash entry.
  std::uint32_t max_restarts = 0;
  // true: the coroutine frame is discarded and the body restarts from
  // scratch (private state lost, LL reservations invalidated). false: the
  // suspended frame resumes where it crashed — a pause, not a rebirth.
  bool amnesia = true;

  bool enabled() const { return max_restarts > 0; }

  friend bool operator==(const RecoverySpec& a, const RecoverySpec& b) {
    return a.delay_units == b.delay_units &&
           a.max_restarts == b.max_restarts && a.amnesia == b.amnesia;
  }
};

// Crash-stop directive: `proc` halts when about to execute its
// `after_ops`-th shared-memory operation (0-based), i.e. it executes
// exactly `after_ops` ops and then freezes — forever, unless `recovery`
// allows it to rejoin. Successive entries for one process are its crash
// points after successive rejoins (after_ops always counts cumulative
// executed ops).
struct CrashSpec {
  ProcId proc = 0;
  std::uint64_t after_ops = 0;
  RecoverySpec recovery;

  friend bool operator==(const CrashSpec& a, const CrashSpec& b) {
    return a.proc == b.proc && a.after_ops == b.after_ops &&
           a.recovery == b.recovery;
  }
};

// A complete, seeded fault schedule. JSON round-trip in fault.cc.
struct FaultPlan {
  // Seed of the per-op decision hash (independent of the toss seed).
  std::uint64_t seed = 0;
  // Probability that an SC (resp. VL) spuriously loses its reservation.
  double sc_fail_rate = 0.0;
  double vl_fail_rate = 0.0;
  // Probability that an op is stalled, and the stall length: uniform in
  // [1, max_stall_units] units of `stall_unit_ns` wall-clock nanoseconds
  // on the hw backend (simulator: decision counted, no wall cost).
  double stall_rate = 0.0;
  std::uint32_t max_stall_units = 0;
  std::uint32_t stall_unit_ns = 1000;
  std::vector<CrashSpec> crashes;
  // Adversarial placement (hw/fault_adversary.h). All defaults reproduce
  // PR 3's oblivious behavior and are omitted from the JSON when default,
  // so oblivious plans keep their schema byte-for-byte.
  FaultStrategyKind strategy = FaultStrategyKind::kOblivious;
  // Total spurious failures the placement may inject. For kAdaptive this
  // is the adversary's budget (0 injects nothing); for kOblivious it caps
  // the stream (0 = uncapped, the PR 3 semantics).
  std::uint64_t fault_budget = 0;
  // Non-empty => replay mode: exactly these decisions are injected and
  // strategy/budget/rates are ignored for SC/VL placement (stalls/crashes
  // still apply). Populated by recording runs; see DecisionTrace.
  DecisionTrace trace;

  bool has_trace() const { return !trace.empty(); }
  bool enabled() const {
    return sc_fail_rate > 0.0 || vl_fail_rate > 0.0 ||
           (stall_rate > 0.0 && max_stall_units > 0) || !crashes.empty() ||
           has_trace() ||
           (strategy == FaultStrategyKind::kAdaptive && fault_budget > 0);
  }

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.seed == b.seed && a.sc_fail_rate == b.sc_fail_rate &&
           a.vl_fail_rate == b.vl_fail_rate && a.stall_rate == b.stall_rate &&
           a.max_stall_units == b.max_stall_units &&
           a.stall_unit_ns == b.stall_unit_ns && a.crashes == b.crashes &&
           a.strategy == b.strategy && a.fault_budget == b.fault_budget &&
           a.trace == b.trace;
  }

  // fault.cc: schema and load errors in docs/fault_injection.md.
  std::string to_json() const;
  static bool from_json(const std::string& text, FaultPlan* out,
                        std::string* error);
};

// Per-sample plan derivation for Monte-Carlo sweeps: same fault *rates*,
// decision stream re-seeded from the sample's toss seed so samples draw
// independent schedules. Artifacts record the derived plan, so a replay
// needs no knowledge of the sweep that produced it.
inline FaultPlan derive_sample_plan(const FaultPlan& base,
                                    std::uint64_t toss_seed) {
  FaultPlan plan = base;
  plan.seed = mix64(base.seed ^ mix64(toss_seed ^ 0x5F4A7C15F39CC060ull));
  return plan;
}

// Decision counters, substrate-independent: they count *decisions*, never
// wall-clock, so a replay on the other substrate reproduces them exactly.
struct FaultStats {
  std::uint64_t injected_sc_failures = 0;
  std::uint64_t injected_vl_failures = 0;
  std::uint64_t stalls = 0;
  std::uint64_t stall_units = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  // Injected rejoin delay, in stall units (wall time on hw; counted only
  // on the simulator — same convention as stall_units).
  std::uint64_t recovery_units = 0;
};

// Decision-hash machinery. A budget-capped oblivious run rolls exactly the
// stream the uncapped one rolls, so with the budget un-hit it is
// bit-for-bit the PR 3 behavior.
inline constexpr std::uint64_t kFaultFailSalt = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kFaultStallSalt = 0x9E3779B97F4A7C15ull;
inline constexpr std::uint64_t kFaultStallLenSalt = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kFaultStallPosSalt = 0x27D4EB2F165667C5ull;
inline constexpr std::uint64_t kFaultRecoverySalt = 0x85EBCA77C2B2AE63ull;

// Pure decision hash for p's k-th executed op under `seed`.
inline std::uint64_t fault_op_hash(std::uint64_t seed, ProcId p,
                                   std::uint64_t k) {
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(p) + 1) *
                                0x9E3779B97F4A7C15ull ^
                            k));
}

// Uniform double in [0, 1) from a hash value.
inline double fault_unit_roll(std::uint64_t h) {
  return static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
}

// Applies one FaultPlan to a run. SC/VL placement is fixed at
// construction, from the plan:
//   * trace replay (a non-empty plan.trace): exactly the traced (p, k)
//     ops fail. Each lane reads its sorted traced op indices with a
//     cursor; k only grows (amnesia keeps the cumulative count), so the
//     check is a lock-free lane-local lookup.
//   * adaptive: the AdaptiveAdversary (hw/fault_adversary.h) picks the
//     victim, until fault_budget is spent.
//   * oblivious: the PR 3 hash roll, capped by fault_budget when > 0.
// Adaptive and capped decisions are appended to the deciding process's
// lane; trace() concatenates the lanes.
class FaultInjector final {
 public:
  FaultInjector(const FaultPlan& plan, int num_processes)
      : plan_(plan),
        lanes_(static_cast<std::size_t>(std::max(num_processes, 0))),
        budget_(plan.fault_budget) {
    // A crash of a process outside [0, n) never fires.
    for (const CrashSpec& c : plan_.crashes) {
      if (c.proc >= 0 && c.proc < num_processes) {
        lane(c.proc).crashes.push_back(c);
      }
    }
    for (Lane& l : lanes_) {
      std::stable_sort(l.crashes.begin(), l.crashes.end(),
                       [](const CrashSpec& a, const CrashSpec& b) {
                         return a.after_ops < b.after_ops;
                       });
    }
    if (plan_.has_trace()) {
      placement_ = Placement::kReplay;
      for (const FaultDecision& d : plan_.trace.decisions) {
        LLSC_EXPECTS(d.proc >= 0 && d.proc < num_processes,
                     "trace decision names a process outside [0, n)");
        lane(d.proc).replay_ops.push_back(d.op_index);
      }
      for (Lane& l : lanes_) {
        std::sort(l.replay_ops.begin(), l.replay_ops.end());
      }
    } else if (plan_.strategy == FaultStrategyKind::kAdaptive) {
      placement_ = Placement::kAdaptive;
      adversary_.emplace(num_processes);
    }
  }

  const FaultPlan& plan() const { return plan_; }
  int num_processes() const { return static_cast<int>(lanes_.size()); }

  // True, and the crash counted, when p, having executed `k` shared-memory
  // ops, must crash-stop instead of executing the next one; the caller
  // halts the process (Process::crashed() is the one crashed flag) and
  // asks again only after it rejoins. The lane's rejoin count points at
  // the next unconsumed CrashSpec; a spec is consumed only by
  // note_recovery, so the cumulative op count cannot re-fire a crash the
  // process already took and recovered from.
  bool take_crash(ProcId p, std::uint64_t k) {
    const CrashSpec* spec = current_crash_spec(p);
    if (spec == nullptr || k < spec->after_ops) return false;
    ++lane(p).stats.crashes;
    return true;
  }

  // Recovery directive of the crash that just fired for p (the spec at
  // p's rejoin count). Returns false — crash-stop is final — when the spec
  // carries no recovery or p exhausted its restart allowance.
  bool recovery_spec(ProcId p, RecoverySpec* out) const {
    const CrashSpec* spec = current_crash_spec(p);
    if (spec == nullptr || !spec->recovery.enabled()) return false;
    if (lane(p).rejoins >= spec->recovery.max_restarts) return false;
    *out = spec->recovery;
    return true;
  }

  // Consume the crash and rejoin p under `spec`, the directive
  // recovery_spec(p) just returned: bumps p's rejoin count (so the
  // cumulative op count cannot re-fire the consumed spec) and accounts the
  // hash-decided delay. Returns the delay in stall units — the hw
  // substrates sleep it, the simulator only counts it (the adversary owns
  // schedule time there). Amnesia clears the lane's spuriously-dead links:
  // the new incarnation holds no reservations at all, dead or alive.
  std::uint32_t note_recovery(ProcId p, const RecoverySpec& spec) {
    Lane& l = lane(p);
    const std::uint32_t units = recovery_delay_units(p, spec);
    ++l.rejoins;
    ++l.stats.recoveries;
    l.stats.recovery_units += units;
    if (spec.amnesia) l.dead_links.clear();
    if (spec.amnesia && adversary_) {
      std::lock_guard<std::mutex> guard(mu_);
      adversary_->on_amnesia(p);
    }
    return units;
  }

  // Execute p's next shared-memory op with faults applied; `k` is p's
  // executed-op count before it (Process::shared_ops()). `exec` performs
  // a (possibly substituted) op against the real memory; `stall(units)` is
  // the substrate's delay primitive (wall-clock on hw, no-op on the
  // simulator). Must not be called when take_crash(p, k) fired — the
  // caller handles crashes first. Called only from p's thread.
  template <typename Exec, typename Stall>
  OpResult apply(ProcId p, std::uint64_t k, const PendingOp& op, Exec&& exec,
                 Stall&& stall) {
    Lane& l = lane(p);
    const std::uint64_t h = op_hash(p, k);

    std::uint32_t before_units = 0;
    std::uint32_t after_units = 0;
    if (plan_.stall_rate > 0.0 && plan_.max_stall_units > 0 &&
        fault_unit_roll(h ^ kFaultStallSalt) < plan_.stall_rate) {
      const std::uint32_t units =
          1 + static_cast<std::uint32_t>(mix64(h ^ kFaultStallLenSalt) %
                                         plan_.max_stall_units);
      ++l.stats.stalls;
      l.stats.stall_units += units;
      // Position derived from the hash too: half the stalls land before
      // the op, half after.
      if (mix64(h ^ kFaultStallPosSalt) & 1) {
        before_units = units;
      } else {
        after_units = units;
      }
    }
    if (before_units != 0) stall(before_units);

    OpResult result;
    switch (op.kind) {
      case OpKind::kLL:
        // A fresh link supersedes any spuriously-lost one.
        l.dead_links.erase(op.reg);
        result = exec(op);
        break;
      case OpKind::kSC: {
        const bool already_dead = l.dead_links.count(op.reg) != 0;
        const bool spurious = !already_dead && decide(l, p, k, op, h);
        if (spurious) {
          l.dead_links.insert(op.reg);
          ++l.stats.injected_sc_failures;
        }
        if (already_dead || spurious) {
          // The reservation is gone: the SC fails without touching memory
          // and reports the register's current value (the paper's failed-SC
          // response), fetched via a read-only probe.
          PendingOp probe;
          probe.kind = OpKind::kValidate;
          probe.reg = op.reg;
          result = exec(probe);
          result.flag = false;
        } else {
          result = exec(op);
        }
        break;
      }
      case OpKind::kValidate: {
        const bool already_dead = l.dead_links.count(op.reg) != 0;
        const bool spurious = !already_dead && decide(l, p, k, op, h);
        if (spurious) {
          l.dead_links.insert(op.reg);
          ++l.stats.injected_vl_failures;
        }
        result = exec(op);
        if (already_dead || spurious) result.flag = false;
        break;
      }
      default:
        result = exec(op);
        break;
    }
    if (adversary_) {
      std::lock_guard<std::mutex> guard(mu_);
      adversary_->observe(p, op, result);
    }

    if (after_units != 0) stall(after_units);
    return result;
  }

  // The decisions placed in this run, sorted by (proc, op_index): the
  // lanes' records in ProcId order, empty for an uncapped oblivious plan.
  // Replay mode returns plan.trace unchanged. Quiescent use only.
  DecisionTrace trace() const {
    if (placement_ == Placement::kReplay) return plan_.trace;
    DecisionTrace t;
    for (const Lane& l : lanes_) {
      t.decisions.insert(t.decisions.end(), l.decisions.begin(),
                         l.decisions.end());
    }
    return t;
  }

  // Aggregate decision counters; quiescent use only.
  FaultStats stats() const {
    FaultStats s;
    for (const Lane& l : lanes_) {
      s.injected_sc_failures += l.stats.injected_sc_failures;
      s.injected_vl_failures += l.stats.injected_vl_failures;
      s.stalls += l.stats.stalls;
      s.stall_units += l.stats.stall_units;
      s.crashes += l.stats.crashes;
      s.recoveries += l.stats.recoveries;
      s.recovery_units += l.stats.recovery_units;
    }
    return s;
  }

 private:
  // What the injector alone knows about one process. Its op count and
  // crashed flag are the Process's own (shared_ops(), crashed()), passed
  // in or read by the caller, never copied here.
  struct alignas(64) Lane {
    // Rejoins taken so far, raised by note_recovery only. It is the cursor
    // into `crashes` (the next unconsumed crash), the count each spec's
    // max_restarts allowance checks, and the key of the rejoin-delay hash.
    // It counts every rejoin, pause or amnesiac; Process::incarnation()
    // counts amnesiac restarts only.
    std::uint32_t rejoins = 0;
    // This process's crash specs, sorted by after_ops: entry i is the
    // crash point after rejoin i. Without recovery only the first — the
    // minimum — ever fires.
    std::vector<CrashSpec> crashes;
    // Registers whose reservation was spuriously lost and not yet
    // refreshed by an LL ("link dead" in the injected model).
    std::unordered_set<RegId> dead_links;
    FaultStats stats;
    // Replay mode: this process's traced op indices, sorted, and the
    // cursor of the first one not yet passed.
    std::vector<std::uint64_t> replay_ops;
    std::size_t replay_next = 0;
    // Adaptive/capped modes: the decisions placed on this process, in
    // increasing op_index.
    std::vector<FaultDecision> decisions;
  };

  enum class Placement : std::uint8_t { kOblivious, kAdaptive, kReplay };

  Lane& lane(ProcId p) { return lanes_[static_cast<std::size_t>(p)]; }
  const Lane& lane(ProcId p) const {
    return lanes_[static_cast<std::size_t>(p)];
  }

  // The CrashSpec at p's rejoin count, nullptr when exhausted.
  const CrashSpec* current_crash_spec(ProcId p) const {
    const Lane& l = lane(p);
    return l.rejoins < l.crashes.size() ? &l.crashes[l.rejoins] : nullptr;
  }

  // Hash-decided delay of p's next rejoin under `spec`, pure in
  // (plan.seed, p, rejoins so far): 1..delay_units stall units (0 when
  // the spec asks for no delay).
  std::uint32_t recovery_delay_units(ProcId p,
                                     const RecoverySpec& spec) const {
    if (spec.delay_units == 0) return 0;
    const std::uint64_t h =
        fault_op_hash(plan_.seed, p, lane(p).rejoins) ^ kFaultRecoverySalt;
    return 1 + static_cast<std::uint32_t>(mix64(h) % spec.delay_units);
  }

  // Pure decision hash for p's k-th executed op.
  std::uint64_t op_hash(ProcId p, std::uint64_t k) const {
    return fault_op_hash(plan_.seed, p, k);
  }

  // Whether p's k-th executed op — an SC or VL whose link is still live —
  // spuriously loses its reservation. `h` is op_hash(p, k). Adaptive and
  // capped decisions are recorded in p's lane.
  bool decide(Lane& l, ProcId p, std::uint64_t k, const PendingOp& op,
              std::uint64_t h) {
    const bool is_vl = op.kind == OpKind::kValidate;
    std::uint64_t score = 0;
    switch (placement_) {
      case Placement::kReplay:
        while (l.replay_next < l.replay_ops.size() &&
               l.replay_ops[l.replay_next] < k) {
          ++l.replay_next;
        }
        return l.replay_next < l.replay_ops.size() &&
               l.replay_ops[l.replay_next] == k;
      case Placement::kAdaptive: {
        std::lock_guard<std::mutex> guard(mu_);
        if (budget_ == 0 || !adversary_->targets(p, op.reg)) return false;
        --budget_;
        score = adversary_->knowledge(p);
        break;
      }
      case Placement::kOblivious: {
        const double rate = is_vl ? plan_.vl_fail_rate : plan_.sc_fail_rate;
        if (!(rate > 0.0) || fault_unit_roll(h ^ kFaultFailSalt) >= rate) {
          return false;
        }
        if (plan_.fault_budget == 0) return true;  // uncapped: not recorded
        std::lock_guard<std::mutex> guard(mu_);
        if (budget_ == 0) return false;
        --budget_;
        break;
      }
    }
    l.decisions.push_back(FaultDecision{
        .proc = p, .op_index = k, .is_vl = is_vl, .score = score});
    return true;
  }

  FaultPlan plan_;
  // One lane per process, all in one allocation; Lane's alignment keeps
  // each on lines of its own.
  std::vector<Lane, LineAllocator<Lane>> lanes_;
  Placement placement_ = Placement::kOblivious;
  // Guards budget_ and adversary_; taken only by the adaptive and capped
  // placements.
  std::mutex mu_;
  std::uint64_t budget_;  // faults left to place (adaptive/capped)
  std::optional<AdaptiveAdversary> adversary_;  // adaptive mode only
};

// One failing Monte-Carlo sample, frozen to disk (freeze(), hw/replay.h)
// so `fault_replay --replay` can reproduce it bit-for-bit (same taxonomy,
// same per-process op counts) on either substrate. JSON round-trip in
// fault.cc.
struct FaultArtifact {
  // Name of a registered scenario (hw/fault_scenarios.h); "custom" means
  // the producing driver ran an unregistered body and the artifact only
  // documents the failure.
  std::string scenario = "custom";
  int n = 0;
  int sample_index = -1;
  std::uint64_t toss_seed = 0;
  int max_rounds = 0;
  RunStatus status = RunStatus::kClean;
  std::vector<std::uint64_t> proc_ops;  // per-process t(p) at halt
  FaultPlan plan;                       // effective (already derived) plan

  std::string to_json() const;
  // Fails, with *error reading "field '<path>': ...", on malformed JSON,
  // on n < 1, and on an entry that names a process outside [0, n).
  static bool from_json(const std::string& text, FaultArtifact* out,
                        std::string* error);
};

}  // namespace llsc

#endif  // LLSC_HW_FAULT_H_
