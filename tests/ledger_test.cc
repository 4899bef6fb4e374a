// Determinism ledger: regenerates committed plain-text outputs of the
// paper pipeline and compares them with the files under tests/ledger/.
//
//   ledger_test             prints every line that differs and exits 1 if
//                           any slice differs from its file
//   ledger_test --update    rewrites the files and prints what changed
//
// A change that moves a ledger line names the line and the reason in
// CHANGES.md. Only deterministic outputs belong here: everything below runs
// on the simulator, on one thread.
//
// Slice s_run.txt, the (S,A)-run (Fig. 3). For each algorithm and n, the
// (All,A)-run is run under the Fig. 2 adversary and tracked (Section 5.3);
// then one (S,A)-run is built for each of three seeded random sets S and
// for S = UP(winner, r) (Theorem 6.1's set). A line holds |S|, the round
// count, all_terminated, a digest of the (S,A)-run's log (every round's
// groups, move set, sigma, executed ops, Phase-1 terminations and
// end-of-round snapshot, and the initial snapshot), a digest of its
// first/completion event stamps, and the Lemma 5.2 check's counts.
//
// Slice fault.txt, the fault layer. For each of hw_fault_diff_test's 200
// triples (fault_triples.h), the simulator leg under the triple's plan: its
// status, a digest of the per-process op counts, the winner's and the
// maximum op count, the FaultStats, a digest of the decision trace, and a
// digest of the frozen artifact's JSON, plus whether that JSON loads back
// to the same bytes.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/adversary.h"
#include "core/indistinguishability.h"
#include "core/lower_bound.h"
#include "core/s_run.h"
#include "core/up_tracker.h"
#include "hw/fault_scenarios.h"
#include "hw/replay.h"
#include "runtime/toss.h"
#include "universal/group_update.h"
#include "util/rng.h"
#include "wakeup/algorithms.h"
#include "wakeup/reductions.h"

#include "fault_triples.h"

#ifndef LLSC_LEDGER_DIR
#error "LLSC_LEDGER_DIR must name the directory of the ledger files"
#endif

namespace llsc {
namespace {

class Digest {
 public:
  void add(std::uint64_t x) { h_ = mix64(h_ ^ x); }
  void add_bytes(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  void add_ids(const std::vector<ProcId>& ids) {
    add(ids.size());
    for (const ProcId p : ids) add(static_cast<std::uint64_t>(p));
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0;
};

void add_snapshot(Digest& d, const RoundSnapshot& snap) {
  d.add(snap.procs.size());
  for (const ProcSnapshot& ps : snap.procs) {
    d.add(ps.num_tosses);
    d.add(ps.shared_ops);
    d.add(ps.history_hash);
    d.add(ps.done);
    if (ps.done) d.add(ps.result.hash());
  }
  d.add(snap.regs.size());
  for (const auto& [reg, rs] : snap.regs) {
    d.add(reg);
    d.add(rs.value.hash());
    d.add_ids(rs.pset);
  }
}

std::string log_digest(const RunLog& log) {
  Digest d;
  add_snapshot(d, log.at(0));
  for (int r = 1; r <= log.num_rounds(); ++r) {
    const RoundRecord& rec = log.round(r);
    d.add(static_cast<std::uint64_t>(rec.round));
    d.add_ids(rec.g_load);
    d.add_ids(rec.g_move);
    d.add_ids(rec.g_swap);
    d.add_ids(rec.g_sc);
    for (const MoveOp& m : rec.move_set) {
      d.add(static_cast<std::uint64_t>(m.proc));
      d.add(m.src);
      d.add(m.dst);
    }
    d.add_ids(rec.sigma);
    for (const OpRecord& op : rec.ops) {
      d.add(static_cast<std::uint64_t>(op.proc));
      d.add(static_cast<std::uint64_t>(op.op.kind));
      d.add(op.op.reg);
      d.add(op.op.src);
      d.add(op.op.arg.hash());
      d.add(op.result.flag);
      d.add(op.result.value.hash());
      d.add(op.step_index);
    }
    d.add_ids(rec.terminated_in_phase1);
    add_snapshot(d, log.at(r));
  }
  return d.hex();
}

std::string stamp_digest(const System& sys) {
  Digest d;
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    d.add(sys.first_event(p));
    d.add(sys.completion_event(p));
  }
  return d.hex();
}

// The cheapest 1-returner, or -1 (as analyze_wakeup_run picks it).
ProcId winner_of(const System& sys) {
  ProcId winner = -1;
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    const Process& proc = sys.process(p);
    if (proc.done() && proc.result().holds_u64() &&
        proc.result().as_u64() == 1 &&
        (winner == -1 ||
         proc.shared_ops() < sys.process(winner).shared_ops())) {
      winner = p;
    }
  }
  return winner;
}

struct Scenario {
  std::string name;
  BodyFactory make;
  std::shared_ptr<const TossAssignment> tosses;
};

void s_run_lines(const Scenario& sc, int n, std::vector<std::string>& out) {
  System all_sys(n, sc.make(), sc.tosses);
  const RunLog all_log = run_adversary(all_sys);
  const UpTracker up = UpTracker::over(all_log);

  std::vector<std::pair<std::string, ProcSet>> sets;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    Digest seed;
    for (const char c : sc.name) seed.add(static_cast<std::uint64_t>(c));
    seed.add(static_cast<std::uint64_t>(n));
    seed.add(k);
    Rng rng(seed.value());
    ProcSet s(n);
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_bool()) s.insert(p);
    }
    sets.emplace_back("random" + std::to_string(k), std::move(s));
  }
  const ProcId winner = winner_of(all_sys);
  if (winner == -1) {
    sets.emplace_back("full", ProcSet::full(n));
  } else {
    const int r = static_cast<int>(std::min<std::uint64_t>(
        all_sys.process(winner).shared_ops(),
        static_cast<std::uint64_t>(up.num_rounds())));
    sets.emplace_back("up_winner", up.up_process(winner, r));
  }

  for (const auto& [label, s] : sets) {
    System s_sys(n, sc.make(), sc.tosses);
    const RunLog s_log = run_s_run(s_sys, all_log, up, s);
    const IndistReport indist = check_indistinguishability(all_log, s_log,
                                                           up, s);
    std::ostringstream line;
    line << sc.name << " n=" << n << " S=" << label << " |S|=" << s.count()
         << " rounds=" << s_log.num_rounds()
         << " all_terminated=" << s_log.all_terminated
         << " log=" << log_digest(s_log) << " stamps=" << stamp_digest(s_sys)
         << " indist=" << (indist.ok ? "ok" : "violated")
         << " violations=" << indist.violations.size()
         << " process_checks=" << indist.process_checks
         << " register_checks=" << indist.register_checks;
    out.push_back(line.str());
  }
}

std::vector<std::string> s_run_slice() {
  const auto stateless = [](ProcBody body) {
    return BodyFactory([body] { return body; });
  };
  const std::vector<Scenario> algorithms = {
      {"tournament", stateless(tournament_wakeup()), nullptr},
      {"swap_mix", stateless(swap_mix_wakeup()), nullptr},
      {"counter", stateless(counter_wakeup()), nullptr},
      {"randomized_tournament", stateless(randomized_tournament_wakeup()),
       std::make_shared<SeededTossAssignment>(2718)},
  };
  std::vector<std::string> out = {
      "# (S,A)-run ledger; regenerate with ledger_test --update"};
  for (const Scenario& sc : algorithms) {
    for (const int n : {4, 16, 64}) s_run_lines(sc, n, out);
  }
  // Wakeup through a queue on the Group-Update construction: its bodies
  // share the construction's C++ state, so each run gets a fresh one, kept
  // until every System that ran it is gone.
  const int n = 16;
  std::vector<std::shared_ptr<GroupUpdateUC>> keep_alive;
  const Scenario queue{
      "queue_group_update",
      [n, &keep_alive] {
        auto uc = std::make_shared<GroupUpdateUC>(
            n, reduction_object_factory("queue", n));
        keep_alive.push_back(uc);
        ProcBody inner = reduction_wakeup_body("queue", *uc);
        return ProcBody([uc, inner](ProcCtx ctx, ProcId i, int procs) {
          return inner(ctx, i, procs);
        });
      },
      nullptr};
  s_run_lines(queue, n, out);
  return out;
}

std::vector<std::string> fault_slice() {
  std::vector<std::string> out = {
      "# fault layer ledger (sim legs of the diff sweep); regenerate with "
      "ledger_test --update"};
  for (const FaultTriple& t : fault_triples()) {
    const Observation obs =
        observe(Substrate::kSim, fault_scenario(t.scenario), t.n, t.toss_seed,
                t.plan, kFaultTripleMaxRounds);
    Digest ops;
    for (const std::uint64_t k : obs.proc_ops) ops.add(k);
    Digest trace;
    for (const FaultDecision& d : obs.decision_trace.decisions) {
      trace.add(static_cast<std::uint64_t>(d.proc));
      trace.add(d.op_index);
      trace.add(d.is_vl);
      trace.add(d.score);
    }
    const std::string json = freeze(t.scenario, t.n, t.toss_seed, t.plan,
                                    kFaultTripleMaxRounds, obs, t.index)
                                 .to_json();
    Digest artifact;
    artifact.add_bytes(json);
    FaultArtifact loaded;
    std::string error;
    const bool round_trips = FaultArtifact::from_json(json, &loaded, &error) &&
                             loaded.to_json() == json;
    const FaultStats& f = obs.fault;
    std::ostringstream line;
    line << "triple=" << t.index << " " << t.scenario << " n=" << t.n
         << " status=" << to_string(obs.status) << " ops=" << ops.hex()
         << " min_winner=" << obs.min_winner_ops << " max_ops=" << obs.max_ops
         << " fault=" << f.injected_sc_failures << "/"
         << f.injected_vl_failures << "/" << f.stalls << "/" << f.stall_units
         << "/" << f.crashes << "/" << f.recoveries << "/" << f.recovery_units
         << " decisions=" << obs.decision_trace.size()
         << " trace=" << trace.hex() << " artifact=" << artifact.hex()
         << " round_trip=" << (round_trips ? "ok" : "broken");
    out.push_back(line.str());
  }
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Prints the lines that differ, position by position; returns their count.
int print_diff(const char* file, const std::vector<std::string>& old_lines,
               const std::vector<std::string>& new_lines) {
  int changed = 0;
  const std::size_t size = std::max(old_lines.size(), new_lines.size());
  for (std::size_t i = 0; i < size; ++i) {
    const bool has_old = i < old_lines.size();
    const bool has_new = i < new_lines.size();
    if (has_old && has_new && old_lines[i] == new_lines[i]) continue;
    ++changed;
    std::printf("%s:%zu\n", file, i + 1);
    if (has_old) std::printf("- %s\n", old_lines[i].c_str());
    if (has_new) std::printf("+ %s\n", new_lines[i].c_str());
  }
  return changed;
}

// Diffs one slice against its file (rewriting it under --update); returns
// the number of lines that differ.
int check_slice(const char* file, const std::vector<std::string>& lines,
                bool update) {
  const std::string path = std::string(LLSC_LEDGER_DIR) + "/" + file;
  const int changed = print_diff(file, read_lines(path), lines);
  if (update && changed > 0) {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << '\n';
  }
  std::printf("%s: %zu lines, %d %s\n", file, lines.size(), changed,
              update ? "rewritten" : "differ");
  return changed;
}

int run(bool update) {
  const int changed = check_slice("s_run.txt", s_run_slice(), update) +
                      check_slice("fault.txt", fault_slice(), update);
  return update || changed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace llsc

int main(int argc, char** argv) {
  const bool update = argc == 2 && std::strcmp(argv[1], "--update") == 0;
  if (argc > 1 && !update) {
    std::fprintf(stderr, "usage: %s [--update]\n", argv[0]);
    return 2;
  }
  return llsc::run(update);
}
