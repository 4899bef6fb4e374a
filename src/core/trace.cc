#include "core/trace.h"

#include <algorithm>

#include "util/str.h"

namespace llsc {

namespace {

std::string procs_list(const std::vector<ProcId>& ids) {
  std::vector<std::string> parts;
  parts.reserve(ids.size());
  for (const ProcId p : ids) parts.push_back("p" + std::to_string(p));
  return "{" + join(parts, ",") + "}";
}

std::string ops_of_round(const RoundRecord& rec) {
  std::vector<ProcId> steppers;
  for (const OpRecord& op : rec.ops) steppers.push_back(op.proc);
  std::sort(steppers.begin(), steppers.end());
  return procs_list(steppers);
}

}  // namespace

std::string render_round(const RoundRecord& rec,
                         const TraceOptions& options) {
  std::string out = "round " + std::to_string(rec.round) +
                    ": load=" + procs_list(rec.g_load) +
                    " move=" + procs_list(rec.g_move) +
                    " swap=" + procs_list(rec.g_swap) +
                    " sc=" + procs_list(rec.g_sc);
  if (!rec.terminated_in_phase1.empty()) {
    out += " terminated=" + procs_list(rec.terminated_in_phase1);
  }
  out += "\n";
  if (options.show_sigma && !rec.sigma.empty()) {
    std::vector<std::string> parts;
    for (const ProcId p : rec.sigma) parts.push_back("p" + std::to_string(p));
    out += "  sigma: " + join(parts, " ") + "\n";
  }
  if (options.show_ops) {
    for (const OpRecord& op : rec.ops) {
      out += "  " + op.to_string() + "\n";
    }
  }
  return out;
}

std::string render_run(const RunLog& log, const TraceOptions& options) {
  std::string out = "run: n=" + std::to_string(log.n) + ", " +
                    std::to_string(log.num_rounds()) + " rounds, " +
                    (log.all_terminated ? "terminated" : "NOT terminated") +
                    "\n";
  const int limit = options.max_rounds > 0
                        ? std::min(options.max_rounds, log.num_rounds())
                        : log.num_rounds();
  for (int r = 0; r < limit; ++r) {
    out += render_round(log.round(r + 1), options);
    if (options.show_registers) {
      const RoundSnapshot& snap = log.at(r + 1);
      int shown = 0;
      for (const auto& [reg, rs] : snap.regs) {
        if (shown++ >= options.max_registers) {
          out += "    ...\n";
          break;
        }
        out += "    R" + std::to_string(reg) + " = " + rs.value.to_string() +
               "\n";
      }
    }
  }
  if (limit < log.num_rounds()) {
    out += "... (" + std::to_string(log.num_rounds() - limit) +
           " more rounds)\n";
  }
  return out;
}

std::string render_up_growth(const UpTracker& tracker) {
  std::string out = "round | max|UP(X,r)| | bound 4^r\n";
  for (int r = 0; r <= tracker.num_rounds(); ++r) {
    const std::size_t bound = UpTracker::lemma51_bound(r);
    out += std::to_string(r) + " | " +
           std::to_string(tracker.max_up_size(r)) + " | " +
           (bound == ~std::size_t{0} ? std::string("inf")
                                     : std::to_string(bound)) +
           "\n";
  }
  return out;
}

std::string render_run_comparison(const RunLog& all_log,
                                  const RunLog& s_log) {
  std::string out = "round | steppers in (All,A)-run | steppers in (S,A)-run\n";
  const int rounds = std::max(all_log.num_rounds(), s_log.num_rounds());
  for (int r = 0; r < rounds; ++r) {
    const std::string all =
        r < all_log.num_rounds()
            ? ops_of_round(all_log.round(r + 1))
            : "-";
    const std::string sub =
        r < s_log.num_rounds()
            ? ops_of_round(s_log.round(r + 1))
            : "-";
    out += std::to_string(r + 1) + " | " + all + " | " + sub + "\n";
  }
  return out;
}

}  // namespace llsc
