#!/usr/bin/env python3
"""Regression tests for the repo's Python tooling (stdlib unittest only).

Covers the contracts CI depends on:
  * bench_to_csv.py --check — accepts sound benchmark JSON, rejects
    malformed input, and holds the S7 and E11-E19 rows (register widths,
    backoff, fault injection, adversarial placement, register storage,
    combining and its batching sub-family, service mode, crash storm,
    TAS/leader expected steps, reclamation) to their entry in
    bench_to_csv.FAMILIES, under bare and namespace-qualified names, with
    aggregate rows exempt from the value invariants;
  * bench_to_csv.py conversion — emits the expected CSV columns and
    parses console rows, _cv aggregates with their % units included;
  * fault_replay --replay — the built binary's artifact front end:
    directory mode, the custom-scenario skip, OK/FAIL lines and the
    summary count, and exit codes 0 (all reproduced), 1 (a mismatch) and
    2 (an unreadable artifact, with the offending field named).

Run via ctest (tools_test), which passes the built binary as
`--fault-replay PATH`, or directly (tools/test_tools.py [--fault-replay
PATH]; the default is build/examples/fault_replay, and the replay tests
skip when it is missing).
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS_DIR)
import bench_to_csv  # noqa: E402

BENCH_TO_CSV = os.path.join(TOOLS_DIR, "bench_to_csv.py")
FAULT_REPLAY = os.path.join(os.path.dirname(TOOLS_DIR), "build", "examples",
                            "fault_replay")


def bench_row(name, **counters):
    row = {
        "name": name,
        "real_time": 100.0,
        "cpu_time": 90.0,
        "iterations": 10,
        "time_unit": "ns",
    }
    row.update(counters)
    return row


def bench_doc(*rows):
    return json.dumps({"context": {}, "benchmarks": list(rows)})


def run_bench_to_csv(stdin_text, *args):
    return subprocess.run(
        [sys.executable, BENCH_TO_CSV, *args],
        input=stdin_text, capture_output=True, text=True)


S7_GOOD = dict(n=64, bounded=1, max_bits=7, log2n_plus_1=7, writes=190)
S7_UNBOUNDED = dict(S7_GOOD, bounded=0, max_bits=-1)
E11_GOOD = dict(n_threads=8, oversubscribed=1, hw_ops_per_sec=1e6,
                cas_failure_rate=0.25, parks=0)
E12_GOOD = dict(sc_fail_rate=0.5, clean=10, spec_violations=0, crashed=0,
                hung=0)
E13_GOOD = dict(n_threads=4, strategy_id=1, fault_budget=128,
                injected_sc_failures=128, retry_amplification=1.5)

E14_GOOD = dict(n_threads=4, hw_ops_per_sec=2.5e6, overflow_events=0,
                nodes_allocated=0)

E15_GOOD = dict(n_threads=8, uc_ops_per_sec=5.4e5)

E15_COMBINING_GOOD = dict(E15_GOOD, mean_batch_size=3.3, batches=619)
E16_GOOD = dict(n_threads=2, m_procs=32, oversub_factor=16,
                arrival_rate_hz=100000.0, offered_ops=256, served_ops=256,
                throughput_ops_per_sec=9.1e4, latency_p50_ns=4.2e3,
                latency_p90_ns=1.8e4, latency_p99_ns=2.1e5,
                latency_p999_ns=1.3e6)
E17_GOOD = dict(n_threads=2, m_procs=16, recover=1, storm=4,
                arrival_rate_hz=20000.0, offered_ops=128, served_ops=128,
                throughput_ops_per_sec=1.0e4, availability=1.0,
                mttr_ms=0.6, crashes=4, recoveries=4, in_flight_at_crash=4,
                latency_p50_ns=7.5e5, latency_p90_ns=6.5e6,
                latency_p99_ns=7.7e6, latency_p999_ns=7.9e6)
E18_GOOD = dict(n=16, object_id=0, substrate_id=0, samples=16,
                mean_winner_ops=6.0, mean_max_ops=17.3, min_winner_ops=6,
                log2_n=4.0, spec_violations=0)
E19_GOOD = dict(n_threads=2, hw_ops_per_sec=9.5e6, nodes_retired=4000,
                nodes_reclaimed=3906, node_high_water=128,
                max_stall_spins=3, scan_passes=61, stalled_peer=0)
GOOD_BY_FAMILY = {
    "BM_S7": S7_GOOD, "BM_HwBackoff": E11_GOOD, "BM_E12": E12_GOOD,
    "BM_E13": E13_GOOD, "BM_E14": E14_GOOD, "BM_E15": E15_GOOD,
    "BM_E15_Combining": E15_COMBINING_GOOD, "BM_E16": E16_GOOD,
    "BM_E17": E17_GOOD, "BM_E18": E18_GOOD, "BM_E19": E19_GOOD,
}


class BenchToCsvCheckTest(unittest.TestCase):
    def test_valid_generic_row_passes(self):
        doc = bench_doc(bench_row("BM_Tournament/64", log4_n=3))
        proc = run_bench_to_csv(doc, "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("ok:", proc.stdout)

    def test_malformed_json_rejected(self):
        proc = run_bench_to_csv('{"benchmarks": [truncated', "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("malformed", proc.stderr)

    def test_empty_input_rejected(self):
        proc = run_bench_to_csv("", "--check")
        self.assertEqual(proc.returncode, 1)

    def test_missing_required_field_rejected(self):
        row = bench_row("BM_X/1")
        del row["iterations"]
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing field", proc.stderr)

    def test_s7_rows_pass(self):
        rows = [bench_row("llsc::BM_S7_TournamentWakeup/64", **S7_GOOD),
                bench_row("llsc::BM_S7_GroupUpdate/64", **S7_UNBOUNDED)]
        proc = run_bench_to_csv(bench_doc(*rows), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_s7_unknown_verdict_rejected(self):
        row = bench_row("BM_S7_TournamentWakeup/4",
                        **dict(S7_GOOD, bounded=2))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown bounded", proc.stderr)

    def test_s7_bounded_width_above_log_rejected(self):
        # Wider than ceil(log2 n)+1 bits, or no width at all, is not the
        # bounded shape the row claims.
        for max_bits in (8, 0, -1):
            with self.subTest(max_bits=max_bits):
                row = bench_row("BM_S7_TournamentWakeup/64",
                                **dict(S7_GOOD, max_bits=max_bits))
                proc = run_bench_to_csv(bench_doc(row), "--check")
                self.assertEqual(proc.returncode, 1)
                self.assertIn("bounded row with max_bits", proc.stderr)

    def test_s7_unbounded_with_width_rejected(self):
        row = bench_row("BM_S7_SwapMixWakeup/64",
                        **dict(S7_UNBOUNDED, max_bits=7))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unbounded row with max_bits 7", proc.stderr)

    def test_s7_no_writes_rejected(self):
        row = bench_row("BM_S7_ConsensusBased/4",
                        **dict(S7_UNBOUNDED, writes=0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("wrote nothing", proc.stderr)

    def test_backoff_row_missing_failure_rate_rejected(self):
        row = bench_row("BM_HwBackoff/8", n_threads=8, oversubscribed=1,
                        hw_ops_per_sec=1e6, parks=0)  # no cas_failure_rate
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("cas_failure_rate", proc.stderr)

    def test_e12_row_missing_taxonomy_rejected(self):
        row = bench_row("BM_E12_Degradation/4", sc_fail_rate=0.5,
                        clean=10, spec_violations=0, crashed=0)  # no hung
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("hung", proc.stderr)

    def test_e13_row_passes(self):
        row = bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128",
                        **E13_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e13_row_missing_budget_rejected(self):
        counters = dict(E13_GOOD)
        del counters["fault_budget"]
        row = bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fault_budget", proc.stderr)

    def test_e13_unknown_strategy_rejected(self):
        row = bench_row("BM_E13_X/4", **dict(E13_GOOD, strategy_id=7))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("strategy_id", proc.stderr)

    def test_e13_deleted_burst_strategy_rejected(self):
        # strategy_id 2 was the burst placement, which no longer exists.
        row = bench_row("BM_E13_X/4", **dict(E13_GOOD, strategy_id=2))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("strategy_id", proc.stderr)

    def test_e13_overspent_budget_rejected(self):
        row = bench_row("BM_E13_X/4",
                        **dict(E13_GOOD, injected_sc_failures=129))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("budget", proc.stderr)

    def test_e13_amplification_below_one_rejected(self):
        row = bench_row("BM_E13_X/4",
                        **dict(E13_GOOD, retry_amplification=0.5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("retry_amplification", proc.stderr)

    def test_e14_row_passes(self):
        row = bench_row("BM_E14_StorageHammer_Narrow/4", **E14_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e14_row_missing_nodes_allocated_rejected(self):
        counters = dict(E14_GOOD)
        del counters["nodes_allocated"]
        row = bench_row("BM_E14_StorageHammer_Wide/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("nodes_allocated", proc.stderr)

    def test_e14_wide_row_passes(self):
        row = bench_row("BM_E14_StorageHammer_Wide/4",
                        **dict(E14_GOOD, overflow_events=4096,
                               nodes_allocated=4096))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e14_overflow_without_node_rejected(self):
        # Every overflowing write installs a node.
        row = bench_row("BM_E14_StorageHammer_Wide/4",
                        **dict(E14_GOOD, overflow_events=4096,
                               nodes_allocated=4095))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("below overflow_events", proc.stderr)

    def test_e14_negative_overflow_rejected(self):
        row = bench_row("BM_E14_X/4", **dict(E14_GOOD, overflow_events=-1))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("overflow_events", proc.stderr)

    def test_e15_baseline_row_passes(self):
        # Non-combining contenders carry no batching fingerprint.
        row = bench_row("BM_E15_SingleRegister/8/256", **E15_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e15_combining_row_passes(self):
        row = bench_row("BM_E15_Combining/8/256", **E15_COMBINING_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e15_row_missing_throughput_rejected(self):
        counters = dict(E15_GOOD)
        del counters["uc_ops_per_sec"]
        row = bench_row("BM_E15_DirectFetchAdd/8/256", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("uc_ops_per_sec", proc.stderr)

    def test_e15_combining_row_missing_batching_rejected(self):
        # Without mean_batch_size the batching thesis cannot be audited.
        row = bench_row("BM_E15_Combining/8/256",
                        **dict(E15_GOOD, batches=619))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mean_batch_size", proc.stderr)

    def test_e15_combining_batch_below_one_rejected(self):
        row = bench_row("BM_E15_Combining/8/256",
                        **dict(E15_COMBINING_GOOD, mean_batch_size=0.5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mean_batch_size", proc.stderr)

    def test_e15_combining_mean_over_zero_batches_rejected(self):
        # batches == 0 with mean_batch_size still present is the
        # div-by-zero artifact the zero-batch contract exists to catch.
        row = bench_row("BM_E15_Combining/8/256",
                        **dict(E15_COMBINING_GOOD, batches=0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("batch", proc.stderr)

    def test_e15_combining_zero_batches_without_mean_passes(self):
        # A run where every op was adopted installs no batches; the bench
        # omits mean_batch_size and the row is valid.
        counters = dict(E15_COMBINING_GOOD, batches=0)
        del counters["mean_batch_size"]
        row = bench_row("BM_E15_Combining/8/256", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e16_row_passes(self):
        row = bench_row("BM_E16_FetchInc/16/100000", **E16_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e16_row_missing_percentile_rejected(self):
        counters = dict(E16_GOOD)
        del counters["latency_p999_ns"]
        row = bench_row("BM_E16_Wakeup/16/100000", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("latency_p999_ns", proc.stderr)

    def test_e16_non_monotone_percentiles_rejected(self):
        row = bench_row("BM_E16_FetchInc/16/100000",
                        **dict(E16_GOOD, latency_p50_ns=9e6))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("monotone", proc.stderr)

    def test_e16_served_above_offered_rejected(self):
        row = bench_row("BM_E16_Combining/16/100000",
                        **dict(E16_GOOD, served_ops=512))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("served", proc.stderr)

    def test_e16_pool_shape_mismatch_rejected(self):
        row = bench_row("BM_E16_FetchInc/16/100000",
                        **dict(E16_GOOD, m_procs=31))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("pool shape", proc.stderr)

    def test_e17_row_passes(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4", **E17_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e17_crash_stop_row_passes(self):
        row = bench_row("BM_E17_CrashStorm_Combining/0/12",
                        **dict(E17_GOOD, recover=0, storm=12, crashes=12,
                               recoveries=0, in_flight_at_crash=12,
                               served_ops=80, availability=0.625,
                               mttr_ms=0.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e17_row_missing_availability_rejected(self):
        counters = dict(E17_GOOD)
        del counters["availability"]
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("availability", proc.stderr)

    def test_e17_availability_mismatch_rejected(self):
        # availability must equal served/offered: a row claiming full
        # availability while dropping ops is the dishonest-accounting
        # shape the check exists to catch.
        row = bench_row("BM_E17_CrashStorm_FetchInc/0/4",
                        **dict(E17_GOOD, recover=0, recoveries=0,
                               mttr_ms=0.0, served_ops=112,
                               availability=1.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("availability", proc.stderr)

    def test_e17_more_recoveries_than_crashes_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4",
                        **dict(E17_GOOD, recoveries=5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("recoveries", proc.stderr)

    def test_e17_in_flight_above_crashes_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/1/4",
                        **dict(E17_GOOD, in_flight_at_crash=5))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("in_flight_at_crash", proc.stderr)

    def test_e17_mttr_without_recoveries_rejected(self):
        row = bench_row("BM_E17_CrashStorm_FetchInc/0/4",
                        **dict(E17_GOOD, recover=0, recoveries=0,
                               served_ops=112, availability=0.875))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mttr_ms", proc.stderr)

    def test_e18_row_passes(self):
        row = bench_row("BM_E18_Tas_Sim/16", **E18_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e18_row_missing_accounting_rejected(self):
        counters = dict(E18_GOOD)
        del counters["min_winner_ops"]
        row = bench_row("BM_E18_Leader_Hw/4", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("min_winner_ops", proc.stderr)

    def test_e18_unknown_object_rejected(self):
        row = bench_row("BM_E18_Tas_Sim/16", **dict(E18_GOOD, object_id=7))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("object_id", proc.stderr)

    def test_e18_unknown_substrate_rejected(self):
        row = bench_row("BM_E18_Tas_Sim/16",
                        **dict(E18_GOOD, substrate_id=3))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("substrate_id", proc.stderr)

    def test_e18_unordered_ops_rejected(self):
        # mean above max: the accounting must be min <= mean <= max.
        row = bench_row("BM_E18_Leader_Oversub/32",
                        **dict(E18_GOOD, substrate_id=2, object_id=1,
                               mean_winner_ops=20.0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("not ordered", proc.stderr)

    def test_e18_lost_winner_rejected(self):
        row = bench_row("BM_E18_Tas_Hw/8",
                        **dict(E18_GOOD, substrate_id=1, spec_violations=1))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("winner", proc.stderr)

    def test_e19_row_passes(self):
        row = bench_row("BM_E19_Hammer/2/2000", **E19_GOOD)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_e19_row_missing_accounting_rejected(self):
        counters = dict(E19_GOOD)
        del counters["node_high_water"]
        row = bench_row("BM_E19_Hammer/1/2000", **counters)
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("node_high_water", proc.stderr)

    def test_e19_reclaimed_above_retired_rejected(self):
        # The no-double-free invariant: freeing more than was retired.
        row = bench_row("BM_E19_Oversub/2/50",
                        **dict(E19_GOOD, nodes_retired=100,
                               nodes_reclaimed=101))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("more nodes than were retired", proc.stderr)

    def test_e19_zero_high_water_rejected(self):
        # A run that retired nodes must have seen a positive peak.
        row = bench_row("BM_E19_Hammer_StalledPeer/2/2000",
                        **dict(E19_GOOD, stalled_peer=1,
                               node_high_water=0))
        proc = run_bench_to_csv(bench_doc(row), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("zero node_high_water", proc.stderr)

    def test_families_match_bare_and_qualified_names(self):
        # Benches defined inside a namespace print llsc::BM_... names; the
        # family rules must hold on those exactly as on bare names.
        rows = []
        for prefix, good in GOOD_BY_FAMILY.items():
            for name in (f"{prefix}/4", f"llsc::{prefix}/4"):
                rows.append(bench_row(name, **good))
                for dropped in good:
                    with self.subTest(name=name, dropped=dropped):
                        counters = {k: v for k, v in good.items()
                                    if k != dropped}
                        doc = bench_doc(bench_row(name, **counters))
                        with self.assertRaisesRegex(
                                bench_to_csv.MalformedInput, dropped):
                            bench_to_csv.validate(
                                bench_to_csv.parse_json(doc))
        proc = run_bench_to_csv(bench_doc(*rows), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_aggregate_rows_skip_value_invariants_only(self):
        # --benchmark_repetitions appends mean/stddev/cv rows; a stddev of
        # 0 is a sound statistic, not a retry_amplification below 1, and
        # the cv of an all-zero counter is 0/0.
        name = "BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128"
        mean = bench_row(f"{name}_mean", run_type="aggregate",
                         aggregate_name="mean", **E13_GOOD)
        stddev = bench_row(f"{name}_stddev", run_type="aggregate",
                           aggregate_name="stddev",
                           **{k: 0 for k in E13_GOOD})
        cv = dict(stddev, name=f"{name}_cv", aggregate_name="cv",
                  hung=float("nan"))
        proc = run_bench_to_csv(bench_doc(mean, stddev, cv), "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = run_bench_to_csv(
            bench_doc(dict(mean, hung=float("nan"))), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-finite value for hung", proc.stderr)
        console = (f"{name}_mean 100 ns 90 ns 3 strategy_id=1 n_threads=4 "
                   "fault_budget=128 injected_sc_failures=128 "
                   f"retry_amplification=1.5\n{name}_stddev 0 ns 0 ns 3 "
                   "strategy_id=0 n_threads=0 fault_budget=0 "
                   "injected_sc_failures=0 retry_amplification=0\n")
        proc = run_bench_to_csv(console, "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # A per-run row keeps every invariant; an aggregate row keeps the
        # required counters.
        run = dict(stddev, run_type="iteration", name=name)
        proc = run_bench_to_csv(bench_doc(run), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("retry_amplification below 1", proc.stderr)
        del stddev["fault_budget"]
        proc = run_bench_to_csv(bench_doc(mean, stddev), "--check")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("fault_budget", proc.stderr)


class BenchToCsvConvertTest(unittest.TestCase):
    def test_console_cv_row_parses(self):
        # Captured from bench_fault_injection --benchmark_repetitions=3: the
        # _cv row prints its times and counters as percentages.
        console = (
            "BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128/real_time_mean"
            "         3.61 ms        0.484 ms            3 clean=1 crashed=0 "
            "fault_budget=128 hung=0 injected_sc_failures=128 "
            "max_injected_per_proc=127.667 n_threads=4 "
            "retry_amplification=1.83073 spec_violations=0 strategy_id=1\n"
            "BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128/real_time_cv"
            "          20.60 %         13.62 %             3 clean=0.00% "
            "crashed=-nan% fault_budget=0.00% hung=-nan% "
            "injected_sc_failures=0.00% max_injected_per_proc=0.45% "
            "n_threads=0.00% retry_amplification=12.43% "
            "spec_violations=-nan% strategy_id=0.00%\n")
        rows = bench_to_csv.parse_console(console.splitlines())
        self.assertEqual([r.aggregate for r in rows], ["mean", "cv"])
        cv = rows[1]
        self.assertAlmostEqual(cv["time_ns"], 0.206)
        self.assertAlmostEqual(cv["cpu_ns"], 0.1362)
        self.assertAlmostEqual(cv["retry_amplification"], 0.1243)
        self.assertTrue(math.isnan(cv["hung"]))
        proc = run_bench_to_csv(console, "--check")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 benchmark rows", proc.stdout)

    def test_cv_row_same_through_json_and_console(self):
        # One _cv row as each output format prints it: the JSON row keeps
        # the bench's time_unit, but its times are fractions.
        name = "BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128/real_time_cv"
        console = (name + "          17.93 %         13.62 %             2 "
                   "retry_amplification=12.43%\n")
        doc = bench_doc(dict(
            name=name, run_type="aggregate", aggregate_name="cv",
            aggregate_unit="percentage", iterations=2, real_time=0.1793,
            cpu_time=0.1362, time_unit="ms", retry_amplification=0.1243))
        (via_console,) = bench_to_csv.parse_console(console.splitlines())
        (via_json,) = bench_to_csv.parse_json(doc)
        self.assertEqual(via_json.aggregate, "cv")
        for key in ("time_ns", "cpu_ns", "retry_amplification"):
            self.assertAlmostEqual(via_json[key], via_console[key], msg=key)
        self.assertAlmostEqual(via_json["time_ns"], 0.1793)

    def test_csv_has_expected_columns(self):
        doc = bench_doc(
            bench_row("BM_E13_AdaptiveVsOblivious_Adaptive/4/256/128",
                      **E13_GOOD))
        proc = run_bench_to_csv(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(len(lines), 2)
        header = lines[0].split(",")
        for col in ("name", "arg", "threads", "time_ns", "cpu_ns",
                    "iterations", "strategy_id", "fault_budget",
                    "injected_sc_failures", "retry_amplification"):
            self.assertIn(col, header)
        values = dict(zip(header, lines[1].split(",")))
        self.assertEqual(values["name"], "BM_E13_AdaptiveVsOblivious_Adaptive")
        self.assertEqual(values["arg"], "4/256/128")
        self.assertEqual(values["threads"], "4")  # n_threads surfaced

    def test_csv_keeps_qualified_name(self):
        doc = bench_doc(bench_row("llsc::BM_E14_StorageHammer_Wide/4",
                                  **E14_GOOD))
        proc = run_bench_to_csv(doc)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        header, values = proc.stdout.strip().splitlines()
        values = dict(zip(header.split(","), values.split(",")))
        self.assertEqual(values["name"], "llsc::BM_E14_StorageHammer_Wide")


def run_fault_replay(*args):
    return subprocess.run([FAULT_REPLAY, *args], capture_output=True,
                          text=True, timeout=120)


class FaultReplayTest(unittest.TestCase):
    """fault_replay --replay against real artifacts the binary froze."""

    @classmethod
    def setUpClass(cls):
        if not os.access(FAULT_REPLAY, os.X_OK):
            raise unittest.SkipTest(f"{FAULT_REPLAY} is not built")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "recorded.json")
            proc = run_fault_replay(
                "--scenario", "fixed_ll_sc", "--n", "4", "--seed", "42",
                "--fault-seed", "7", "--sc-fail-rate", "0.5", "--crash",
                "1@3", "--out", path)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            with open(path, encoding="utf-8") as f:
                cls.recorded = json.load(f)

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def artifact(self, **overrides):
        doc = json.loads(json.dumps(self.recorded))
        doc.update(overrides)
        return doc

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def test_directories_and_files_are_counted_in_the_summary(self):
        sub = os.path.join(self.dir.name, "dumps")
        os.mkdir(sub)
        for name in ("x.json", "y.json"):
            with open(os.path.join(sub, name), "w", encoding="utf-8") as f:
                json.dump(self.artifact(), f)
        with open(os.path.join(sub, "notes.txt"), "w", encoding="utf-8") as f:
            f.write("not an artifact")
        proc = run_fault_replay("--replay", sub,
                                self.write("z.json", self.artifact()))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count("OK "), 3)
        self.assertIn("3/3 artifacts reproduced", proc.stdout)

    def test_custom_scenario_is_skipped(self):
        proc = run_fault_replay("--replay", self.write(
            "a.json", self.artifact(scenario="custom")))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("SKIP", proc.stdout)
        self.assertIn("0/0 artifacts reproduced", proc.stdout)
        self.assertIn("1 skipped", proc.stdout)

    def test_mismatch_exits_1_and_is_counted(self):
        good = self.write("good.json", self.artifact())
        bad = self.write("bad.json", self.artifact(proc_ops=[1, 2, 3, 4]))
        proc = run_fault_replay("--replay", "--platform", "both", good, bad)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL", proc.stdout)
        self.assertIn("op counts", proc.stdout)
        self.assertIn("1/2 artifacts reproduced", proc.stdout)

    def assert_unreadable(self, doc, field):
        proc = run_fault_replay("--replay", self.write("a.json", doc))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unreadable artifact", proc.stderr)
        self.assertIn(field, proc.stderr)

    def test_non_object_artifact_exits_2(self):
        self.assert_unreadable("[1, 2, 3]", "not an object")

    def test_wrong_field_type_names_the_field(self):
        self.assert_unreadable(self.artifact(n="four"), "field 'n'")

    def test_truncated_recovery_names_the_field(self):
        doc = self.artifact()
        doc["plan"]["crashes"] = [
            {"proc": 1, "after_ops": 3, "recovery": {"max_restarts": 1}}]
        self.assert_unreadable(doc, "delay_units")

    def test_pre_recovery_and_recovery_artifacts_replay(self):
        # The recorded crash entry has no "recovery" object (the pre-
        # recovery schema). Letting process 1 rejoin with amnesia restarts
        # its 16-op fixed_ll_sc body on top of the 3 ops it had executed,
        # and the run then terminates cleanly.
        old = self.artifact()
        self.assertEqual(old["status"], "crashed")
        self.assertNotIn("recovery", old["plan"]["crashes"][0])
        new = self.artifact(status="clean", proc_ops=[16, 19, 16, 16])
        new["plan"]["crashes"][0]["recovery"] = {
            "delay_units": 8, "max_restarts": 1, "amnesia": True}
        proc = run_fault_replay("--replay", "--platform", "both",
                                self.write("old.json", old),
                                self.write("new.json", new))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("2/2 artifacts reproduced", proc.stdout)


if __name__ == "__main__":
    if "--fault-replay" in sys.argv:
        at = sys.argv.index("--fault-replay")
        FAULT_REPLAY = sys.argv[at + 1]
        del sys.argv[at:at + 2]
    unittest.main()
