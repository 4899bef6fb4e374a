#include "core/indistinguishability.h"

#include <algorithm>

#include "util/check.h"

namespace llsc {

std::string IndistReport::summary() const {
  return std::string(ok ? "OK" : "VIOLATED") + " (" +
         std::to_string(process_checks) + " process checks, " +
         std::to_string(register_checks) + " register checks, " +
         std::to_string(violations.size()) + " violations)";
}

namespace {

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

}  // namespace

IndistReport check_indistinguishability(const RunLog& all_log,
                                        const RunLog& s_log,
                                        const UpTracker& up,
                                        const ProcSet& s) {
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

}  // namespace llsc
