#include "core/s_run.h"

#include <algorithm>
#include <unordered_set>

#include "core/snapshot.h"
#include "util/check.h"

namespace llsc {

namespace {

// The operation group `p` belonged to in the All-run's round record, or -1
// if p took no shared-memory step that round. The groups are in id order.
int all_run_group(const RoundRecord& rec, ProcId p) {
  const auto in = [p](const std::vector<ProcId>& v) {
    return std::binary_search(v.begin(), v.end(), p);
  };
  if (in(rec.g_load)) return static_cast<int>(OpGroup::kLoad);
  if (in(rec.g_move)) return static_cast<int>(OpGroup::kMove);
  if (in(rec.g_swap)) return static_cast<int>(OpGroup::kSwap);
  if (in(rec.g_sc)) return static_cast<int>(OpGroup::kStoreConditional);
  return -1;
}

}  // namespace

RunLog run_s_run(System& sys, const RunLog& all_log, const UpTracker& up,
                 const ProcSet& s) {
  const int n = sys.num_processes();
  LLSC_EXPECTS(n == all_log.n, "system size differs from the (All,A)-run");
  LLSC_EXPECTS(up.num_rounds() >= all_log.num_rounds(),
               "UP tracker does not cover the whole (All,A)-run");

  RunLog log;
  log.n = n;
  std::vector<std::size_t> hist(static_cast<std::size_t>(n), 0);
  log.initial = take_snapshot(sys, hist);

  for (int round = 1; round <= all_log.num_rounds(); ++round) {
    const RoundRecord& all_rec = all_log.round(round);
    // Groups are built in id order; the lookups below binary-search them.
    for (const auto* g : {&all_rec.g_load, &all_rec.g_move, &all_rec.g_swap,
                          &all_rec.g_sc}) {
      LLSC_CHECK(std::is_sorted(g->begin(), g->end()),
                 "(All,A)-run group not in id order");
    }
    RoundRecord rec;
    rec.round = round;

    // S_r: processes whose knowledge entering round r stays within S.
    std::vector<ProcId> s_r;
    for (ProcId p = 0; p < n; ++p) {
      if (up.up_process(p, round - 1).subset_of(s)) s_r.push_back(p);
    }

    // Phase 1 for S_r members, in id order, and their partition.
    for (const ProcId p : s_r) {
      Process& proc = sys.process(p);
      if (proc.done()) continue;
      sys.advance_through_tosses(p);
      if (proc.done()) {
        rec.terminated_in_phase1.push_back(p);
        continue;
      }
      const OpGroup group = partition_process(sys, p, rec);
      // Claim A.2(3): a scheduled process performs the same kind of
      // operation as in the (All,A)-run's round r.
      LLSC_CHECK(all_run_group(all_rec, p) == static_cast<int>(group),
                 "Claim A.2 violated: operation group differs between "
                 "(All,A)-run and (S,A)-run");
    }

    // The move group runs in the order sigma_r | S_{2,r}.
    std::unordered_set<ProcId> move_members(rec.g_move.begin(),
                                            rec.g_move.end());
    // Claim A.3: S_{2,r} ⊆ G_{2,r}, so restricting sigma_r is well
    // defined.
    for (const ProcId p : rec.g_move) {
      LLSC_CHECK(std::binary_search(all_rec.g_move.begin(),
                                    all_rec.g_move.end(), p),
                 "Claim A.3 violated: S-run mover absent from sigma_r");
    }
    rec.sigma = restrict_schedule(all_rec.sigma, move_members);
    apply_round(sys, rec, &hist, [&sys](ProcId p, System::AppliedOp&& op) {
      sys.deliver_applied(p, std::move(op));
    });

    log.round_count = round;
    log.rounds.push_back(std::move(rec));
    log.snapshots.push_back(take_snapshot(sys, hist));
  }

  log.all_terminated = sys.all_done();
  return log;
}

}  // namespace llsc
