#include "sched/secretive_schedule.h"

#include <algorithm>

#include "util/check.h"

// Note on self-moves. The paper's inductive definition appends the mover on
// every move into R, and a move(R -> R) keeps R's source while appending a
// mover. Under that definition Lemma 4.1 would be false (three self-moves
// on one register leave three movers in *every* complete schedule), so the
// paper implicitly assumes src != dst; a self-move is a value no-op and
// gains an algorithm nothing. We make the assumption explicit: MoveSets
// with src == dst are rejected (and ProcCtx::move forbids them).

namespace llsc {

std::string MoveOp::to_string() const {
  return "p" + std::to_string(proc) + ": MOVE(R" + std::to_string(src) +
         " -> R" + std::to_string(dst) + ")";
}

namespace {

void validate_move_set(const MoveSet& moves) {
  std::unordered_set<ProcId> seen;
  for (const MoveOp& m : moves) {
    LLSC_EXPECTS(m.src != m.dst,
                 "self-moves are excluded from the model (see Section 4)");
    LLSC_EXPECTS(seen.insert(m.proc).second,
                 "a process may have at most one pending move");
  }
}

const MoveOp& move_of(const MoveSet& moves, ProcId p) {
  const auto it = std::find_if(moves.begin(), moves.end(),
                               [p](const MoveOp& m) { return m.proc == p; });
  LLSC_EXPECTS(it != moves.end(), "schedule names a process with no move");
  return *it;
}

}  // namespace

MoveAnalysis::MoveAnalysis(const MoveSet& moves,
                           const std::vector<ProcId>& schedule) {
  validate_move_set(moves);
  std::unordered_set<ProcId> scheduled;
  for (const ProcId p : schedule) {
    LLSC_EXPECTS(scheduled.insert(p).second,
                 "a schedule may contain each process at most once");
    const MoveOp& m = move_of(moves, p);
    // source(dst, sigma·p) = source(src, sigma);
    // movers(dst, sigma·p) = movers(src, sigma) · p.
    Entry src_entry{m.src, {}};
    if (const auto it = entries_.find(m.src); it != entries_.end()) {
      src_entry = it->second;
    }
    src_entry.movers.push_back(p);
    entries_[m.dst] = std::move(src_entry);
  }
}

RegId MoveAnalysis::source(RegId r) const {
  const auto it = entries_.find(r);
  return it == entries_.end() ? r : it->second.source;
}

std::vector<ProcId> MoveAnalysis::movers(RegId r) const {
  const auto it = entries_.find(r);
  return it == entries_.end() ? std::vector<ProcId>{} : it->second.movers;
}

std::vector<RegId> MoveAnalysis::touched() const {
  std::vector<RegId> out;
  out.reserve(entries_.size());
  for (const auto& [r, _] : entries_) out.push_back(r);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ProcId> secretive_complete_schedule(const MoveSet& moves) {
  validate_move_set(moves);

  // Index the pending moves by destination register.
  std::unordered_map<RegId, std::vector<ProcId>> by_dst;
  std::unordered_map<ProcId, const MoveOp*> by_proc;
  for (const MoveOp& m : moves) {
    by_dst[m.dst].push_back(m.proc);
    by_proc[m.proc] = &m;
  }
  for (auto& [_, procs] : by_dst) std::sort(procs.begin(), procs.end());

  std::vector<ProcId> sigma;
  sigma.reserve(moves.size());
  std::unordered_set<ProcId> remaining;
  for (const MoveOp& m : moves) remaining.insert(m.proc);
  // Registers closed in stage 1: they have exactly one mover and no
  // remaining incoming moves, so their contents are stable from now on.
  std::unordered_set<RegId> closed;

  // Stage 1 (Figure 1): repeatedly pick an unscheduled process p whose
  // source register is fresh (not yet moved into), then schedule every
  // remaining process whose destination is p's destination, p last.
  //
  // A process is eligible as the pick only while its source is fresh, and
  // freshness is only ever LOST (when a register closes), so a one-pass
  // worklist suffices: seed it with every process in id order; at pop
  // time, a process that was meanwhile scheduled or whose source closed is
  // simply skipped (the latter is exactly the stage-2 remainder). This
  // keeps the construction near-linear in |S| instead of quadratic.
  std::vector<ProcId> worklist;
  worklist.reserve(moves.size());
  for (const MoveOp& m : moves) worklist.push_back(m.proc);
  std::sort(worklist.begin(), worklist.end());
  for (const ProcId pick : worklist) {
    if (!remaining.contains(pick)) continue;          // already scheduled
    const MoveOp& m = *by_proc.at(pick);
    if (closed.contains(m.src)) continue;             // stage-2 material
    for (const ProcId q : by_dst.at(m.dst)) {
      if (q != pick && remaining.erase(q) > 0) sigma.push_back(q);
    }
    remaining.erase(pick);
    sigma.push_back(pick);
    closed.insert(m.dst);
  }

  // Stage 2: the source of every remaining move is a closed register (one
  // mover, stable); append the remainder in id order. Each such move leaves
  // its destination with exactly two movers.
  std::vector<ProcId> tail(remaining.begin(), remaining.end());
  std::sort(tail.begin(), tail.end());
  sigma.insert(sigma.end(), tail.begin(), tail.end());

  LLSC_CHECK(sigma.size() == moves.size());
  return sigma;
}

bool is_secretive_complete(const MoveSet& moves,
                           const std::vector<ProcId>& schedule) {
  if (schedule.size() != moves.size()) return false;
  std::unordered_set<ProcId> in_schedule(schedule.begin(), schedule.end());
  if (in_schedule.size() != schedule.size()) return false;
  for (const MoveOp& m : moves) {
    if (!in_schedule.contains(m.proc)) return false;
  }
  const MoveAnalysis analysis(moves, schedule);
  for (const RegId r : analysis.touched()) {
    if (analysis.movers(r).size() > 2) return false;
  }
  return true;
}

std::vector<ProcId> restrict_schedule(const std::vector<ProcId>& schedule,
                                      const std::vector<ProcId>& ascending) {
  std::vector<ProcId> out;
  out.reserve(ascending.size());
  for (const ProcId p : schedule) {
    if (std::binary_search(ascending.begin(), ascending.end(), p)) {
      out.push_back(p);
    }
  }
  return out;
}

bool restriction_preserves_source(const MoveSet& moves,
                                  const std::vector<ProcId>& schedule,
                                  const std::unordered_set<ProcId>& subset,
                                  RegId r) {
  const MoveAnalysis full(moves, schedule);
  for (const ProcId p : full.movers(r)) {
    LLSC_EXPECTS(subset.contains(p),
                 "Lemma 4.2 requires the subset to contain all movers of R");
  }
  // Restrict the move set to the subset as well: processes outside the
  // subset do not take steps in the restricted run.
  MoveSet sub_moves;
  for (const MoveOp& m : moves) {
    if (subset.contains(m.proc)) sub_moves.push_back(m);
  }
  std::vector<ProcId> ascending(subset.begin(), subset.end());
  std::sort(ascending.begin(), ascending.end());
  const MoveAnalysis restricted(sub_moves,
                                restrict_schedule(schedule, ascending));
  return full.source(r) == restricted.source(r);
}

}  // namespace llsc
