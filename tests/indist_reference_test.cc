// The Lemma 5.2 checker against a reference copy of its original
// Θ(rounds · n³/64) form, which re-tested UP(p, r) ⊆ S for all n
// processes inside the per-register loop. The fast checker visits only the
// processes in the symmetric difference of the two Psets; on real
// (S,A)-runs and on logs with planted Pset and value mismatches both must
// produce the same report: the same counts and the same violation strings
// in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "runtime/toss.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"

namespace llsc {
namespace {

// --- reference: the original checker, verbatim -----------------------------

const RegSnapshot* find_reg(const RoundSnapshot& snap, RegId r) {
  const auto it = snap.regs.find(r);
  return it == snap.regs.end() ? nullptr : &it->second;
}

// A register absent from a snapshot is untouched: nil value, empty Pset.
const RegSnapshot& reg_or_default(const RoundSnapshot& snap, RegId r) {
  static const RegSnapshot kDefault;
  const RegSnapshot* found = find_reg(snap, r);
  return found == nullptr ? kDefault : *found;
}

bool pset_contains(const RegSnapshot& reg, ProcId p) {
  return std::binary_search(reg.pset.begin(), reg.pset.end(), p);
}

IndistReport reference_check(const RunLog& all_log, const RunLog& s_log,
                             const UpTracker& up, const ProcSet& s) {
  LLSC_EXPECTS(all_log.n == s_log.n, "run logs describe different systems");
  const int n = all_log.n;
  const int rounds = std::min(all_log.num_rounds(), s_log.num_rounds());

  IndistReport report;
  const auto violation = [&](std::string msg) {
    report.ok = false;
    report.violations.push_back(std::move(msg));
  };

  for (int r = 0; r <= rounds; ++r) {
    const RoundSnapshot& all_snap = all_log.at(r);
    const RoundSnapshot& s_snap = s_log.at(r);

    // --- processes: (All,A)-run ≈_p^r (S,A)-run when UP(p, r) ⊆ S ---
    for (ProcId p = 0; p < n; ++p) {
      if (!up.up_process(p, r).subset_of(s)) continue;
      ++report.process_checks;
      const ProcSnapshot& a = all_snap.procs[static_cast<std::size_t>(p)];
      const ProcSnapshot& b = s_snap.procs[static_cast<std::size_t>(p)];
      if (a.num_tosses != b.num_tosses) {
        violation("round " + std::to_string(r) + ": numtosses(p" +
                  std::to_string(p) + ") differ: " +
                  std::to_string(a.num_tosses) + " vs " +
                  std::to_string(b.num_tosses));
      }
      if (a.history_hash != b.history_hash ||
          a.shared_ops != b.shared_ops || a.done != b.done ||
          (a.done && !(a.result == b.result))) {
        violation("round " + std::to_string(r) + ": state(p" +
                  std::to_string(p) + ") differs between runs");
      }
    }

    // --- registers: every register either run touched ---
    std::vector<RegId> regs;
    for (const auto& [id, _] : all_snap.regs) regs.push_back(id);
    for (const auto& [id, _] : s_snap.regs) {
      if (find_reg(all_snap, id) == nullptr) regs.push_back(id);
    }
    for (const RegId reg : regs) {
      if (!up.up_register(reg, r).subset_of(s)) continue;
      ++report.register_checks;
      const RegSnapshot& a = reg_or_default(all_snap, reg);
      const RegSnapshot& b = reg_or_default(s_snap, reg);
      if (!(a.value == b.value)) {
        violation("round " + std::to_string(r) + ": val(R" +
                  std::to_string(reg) + ") differs: " + a.value.to_string() +
                  " vs " + b.value.to_string());
      }
      for (ProcId p = 0; p < n; ++p) {
        if (!up.up_process(p, r).subset_of(s)) continue;
        if (pset_contains(a, p) != pset_contains(b, p)) {
          violation("round " + std::to_string(r) + ": Pset(R" +
                    std::to_string(reg) + ") membership of p" +
                    std::to_string(p) + " differs");
        }
      }
    }
  }
  return report;
}

// --- helpers -------------------------------------------------------------

void expect_same_report(const IndistReport& fast, const IndistReport& ref,
                        const std::string& label) {
  EXPECT_EQ(fast.ok, ref.ok) << label;
  EXPECT_EQ(fast.process_checks, ref.process_checks) << label;
  EXPECT_EQ(fast.register_checks, ref.register_checks) << label;
  EXPECT_EQ(fast.violations, ref.violations) << label;
}

ProcSet random_subset(int n, Rng& rng) {
  ProcSet s(n);
  for (ProcId p = 0; p < n; ++p) {
    if (rng.next_bool()) s.insert(p);
  }
  if (s.empty()) s.insert(0);
  return s;
}

RoundSnapshot& snapshot_at(RunLog& log, int r) {
  return r == 0 ? log.initial : log.snapshots[static_cast<std::size_t>(r - 1)];
}

// Flips p's membership in an ascending Pset, keeping it ascending.
void toggle(std::vector<ProcId>& pset, ProcId p) {
  const auto it = std::lower_bound(pset.begin(), pset.end(), p);
  if (it != pset.end() && *it == p) {
    pset.erase(it);
  } else {
    pset.insert(it, p);
  }
}

// Plants mismatches into a copy of `log`: in each round, a few random
// membership flips in each touched register's Pset (sometimes emptying or
// filling it), a changed value now and then, and a register only the copy
// touched.
RunLog plant_mismatches(const RunLog& log, Rng& rng) {
  RunLog planted = log;
  const int n = log.n;
  for (int r = 0; r <= planted.num_rounds(); ++r) {
    RoundSnapshot& snap = snapshot_at(planted, r);
    for (auto& [id, reg] : snap.regs) {
      switch (rng.next_below(6)) {
        case 0:
          reg.pset.clear();
          break;
        case 1:
          reg.pset.clear();
          for (ProcId p = 0; p < n; ++p) reg.pset.push_back(p);
          break;
        case 2:
          reg.value = Value::of_u64(rng.next_u64() >> 20);
          break;
        default: {
          const int flips = static_cast<int>(rng.next_below(4));
          for (int k = 0; k < flips; ++k) {
            toggle(reg.pset, static_cast<ProcId>(rng.next_below(
                                 static_cast<std::uint64_t>(n))));
          }
        }
      }
    }
    if (rng.next_below(4) == 0) {
      RegSnapshot extra;
      extra.pset = {0, static_cast<ProcId>(n - 1)};
      snap.regs.emplace(static_cast<RegId>(1000 + r), std::move(extra));
    }
  }
  return planted;
}

struct Subject {
  const char* name;
  ProcBody body;
};

std::vector<Subject> subjects() {
  return {
      {"tournament", tournament_wakeup()},
      {"swap_mix", swap_mix_wakeup()},
      {"randomized_tournament", randomized_tournament_wakeup()},
      {"random_mix", random_mix_body(10, 6)},
  };
}

// --- tests ---------------------------------------------------------------

TEST(IndistReference, SameReportOnRealSRuns) {
  Rng rng(2024);
  for (const Subject& subject : subjects()) {
    for (const int n : {3, 8, 13}) {
      const auto tosses = std::make_shared<SeededTossAssignment>(5);
      System all_sys(n, subject.body, tosses);
      const RunLog all_log = run_adversary(all_sys);
      const UpTracker up = UpTracker::over(all_log);
      for (int iter = 0; iter < 3; ++iter) {
        const ProcSet s =
            iter == 0 ? ProcSet::full(n) : random_subset(n, rng);
        System s_sys(n, subject.body, tosses);
        const RunLog s_log = run_s_run(s_sys, all_log, up, s);
        const std::string label = std::string(subject.name) + " n=" +
                                  std::to_string(n) + " S=" + s.to_string();
        expect_same_report(check_indistinguishability(all_log, s_log, up, s),
                           reference_check(all_log, s_log, up, s), label);
      }
    }
  }
}

TEST(IndistReference, SameViolationsOnPlantedPsetMismatches) {
  Rng rng(77);
  std::size_t pset_violations = 0;
  for (const Subject& subject : subjects()) {
    for (const int n : {2, 5, 8, 13}) {
      const auto tosses = std::make_shared<SeededTossAssignment>(9);
      System all_sys(n, subject.body, tosses);
      const RunLog all_log = run_adversary(all_sys);
      const UpTracker up = UpTracker::over(all_log);
      for (int iter = 0; iter < 4; ++iter) {
        const ProcSet s =
            iter == 0 ? ProcSet::full(n) : random_subset(n, rng);
        const RunLog planted = plant_mismatches(all_log, rng);
        const std::string label = std::string(subject.name) + " n=" +
                                  std::to_string(n) + " S=" + s.to_string();
        const IndistReport fast =
            check_indistinguishability(all_log, planted, up, s);
        expect_same_report(fast, reference_check(all_log, planted, up, s),
                           label);
        // Either side may carry the mismatch: swap the logs too.
        expect_same_report(check_indistinguishability(planted, all_log, up, s),
                           reference_check(planted, all_log, up, s),
                           label + " swapped");
        pset_violations += static_cast<std::size_t>(std::count_if(
            fast.violations.begin(), fast.violations.end(),
            [](const std::string& v) {
              return v.find("Pset(R") != std::string::npos;
            }));
      }
    }
  }
  // The planted mismatches were seen, not vacuously equal.
  EXPECT_GT(pset_violations, 100u);
}

}  // namespace
}  // namespace llsc
