#!/usr/bin/env python3
"""Convert google-benchmark output (console or JSON) into CSV.

Usage:
    ./build/bench/bench_wakeup_lower_bound | tools/bench_to_csv.py > e1.csv
    ./build/bench/bench_hw_throughput --benchmark_format=json \
        | tools/bench_to_csv.py > e10.csv
    tools/bench_to_csv.py --check < bench_output.json   # validate only

The input format is auto-detected: JSON when the stream starts with '{'
(the --benchmark_format=json shape: {"context": ..., "benchmarks": [...]}),
console rows otherwise:

    llsc::BM_Tournament/64   3.87 ms   3.75 ms   7  log4_n=3 n=64 ...

Output: one CSV row per benchmark with columns name, arg, threads,
time_ns, cpu_ns, iterations, plus one column per user counter (union
across rows, in first-seen order). `threads` is taken from the
`n_threads` counter the hw benchmarks report (bench/bench_hw_throughput.cc)
and left empty for single-threaded benchmarks; latency percentile
counters (latency_p50_ns / latency_p99_ns) flow through like any other
counter.

--check: validate instead of convert. Exits 1 with a diagnostic on
malformed input (unparseable JSON, missing/empty "benchmarks", rows
missing required fields, or non-finite measurements) and 0 with a one-line
summary when the input is sound. BM_HwBackoff rows (the E11 backoff
sweep) must additionally carry n_threads, oversubscribed, hw_ops_per_sec,
cas_failure_rate, and parks counters with a failure rate in [0, 1]. BM_E12_* rows (the
fault-injection graceful-degradation sweep) must carry sc_fail_rate in
[0, 1] plus the non-negative clean / spec_violations / crashed / hung
taxonomy counts. BM_E13_* rows (the adversarial-placement comparison)
must carry n_threads, strategy_id (0 oblivious / 1 adaptive),
fault_budget, injected_sc_failures (<= fault_budget when the budget is
capped), and retry_amplification >= 1. BM_E14_* rows (the register-
storage-policy comparison) must carry n_threads, policy_id (0 boxed /
1 inline), hw_ops_per_sec, and a non-negative
overflow_events count. BM_E15_* rows (the flat-combining universal-
construction comparison) must carry n_threads, policy_id, and a
non-negative uc_ops_per_sec; BM_E15_Combining* rows must additionally
carry a non-negative batches count; a row with batches >= 1 must also
carry mean_batch_size >= 1, while a zero-batch row (every op adopted, or
crash-stop before the first winner install) must OMIT mean_batch_size —
reporting a mean over zero batches is the div-by-zero shape this check
rejects. BM_E16_* rows (the open-loop service-mode sweep,
bench/bench_service_mode.cc) must carry the pool fingerprint (n_threads,
m_procs, oversub_factor, with m_procs = n_threads * oversub_factor), the
offered/served accounting (arrival_rate_hz > 0, served_ops <=
offered_ops, non-negative throughput_ops_per_sec), and monotone latency
percentiles latency_p50_ns <= p90 <= p99 <= p999. BM_E17_* rows (the
crash-storm availability sweep, same bench binary) must carry the storm
fingerprint (recover in {0, 1}, storm >= 0, crashes / recoveries /
in_flight_at_crash with recoveries <= crashes and in_flight_at_crash <=
crashes), the availability accounting (availability in [0, 1] and equal
to served/offered, mttr_ms >= 0, zero when nothing recovered), the
served <= offered bound, and the same monotone latency percentiles.
BM_E18_* rows (the TAS/leader expected-steps sweep,
bench/bench_tas_leader.cc) must carry the object fingerprint (object_id
0 tas / 1 leader, substrate_id 0 sim / 1 hw / 2 oversub, n >= 1,
samples > 0, log2_n >= 0) and the winner-ops accounting with
min_winner_ops <= mean_winner_ops <= mean_max_ops and spec_violations
== 0 — a row reporting a lost winner is the acceptance failure this
check exists to catch. BM_E19_* rows (hazard-pointer reclamation,
bench/bench_reclamation.cc) must carry the run fingerprint (policy_id,
n_threads, stalled_peer in {0, 1}), a non-negative hw_ops_per_sec, and
the node accounting with
nodes_reclaimed <= nodes_retired (freeing more than was retired is the
double-free shape this check rejects) and node_high_water > 0 on
boxed-policy rows that retired anything — a zero high water with nodes
retired means the peak tracker is broken. Use it in CI to fail fast on
truncated benchmark artifacts.
"""
import argparse
import csv
import json
import math
import re
import sys

ROW = re.compile(
    r"^(?P<name>[\w:<>,]+(?:/\S+)?)\s+(?P<time>[\d.e+-]+) (?P<tunit>\w+)"
    r"\s+(?P<cpu>[\d.e+-]+) (?P<cunit>\w+)\s+(?P<iters>\d+)(?P<rest>.*)$")
COUNTER = re.compile(r"(\w+)=([\d.e+kMG-]+)")
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
SUFFIX = {"k": 1e3, "M": 1e6, "G": 1e9}

BASE_FIELDS = ["name", "arg", "threads", "time_ns", "cpu_ns", "iterations"]
REQUIRED_JSON_FIELDS = ["name", "real_time", "cpu_time", "iterations"]

# The E11 backoff sweep rows (BM_HwBackoff in bench/bench_hw_throughput.cc)
# must carry the contention fingerprint, or the sweep cannot be
# reconstructed from the CSV.
BACKOFF_ROW_PREFIX = "BM_HwBackoff"
BACKOFF_REQUIRED = [
    "n_threads", "oversubscribed", "hw_ops_per_sec", "cas_failure_rate",
    "parks",
]

# The E12 graceful-degradation rows (BM_E12_* in
# bench/bench_fault_injection.cc) must carry the injected-failure rate and
# the full run taxonomy, or the degradation curve cannot be reconstructed
# and silent sample loss (clean+crashed+hung+violations != samples) would
# go unnoticed.
E12_ROW_PREFIX = "BM_E12"
E12_REQUIRED = [
    "sc_fail_rate", "clean", "spec_violations", "crashed", "hung",
]

# The E13 adversarial-placement rows (BM_E13_* in
# bench/bench_fault_injection.cc) compare fault strategies at equal
# budget; their fingerprint is the strategy plus the budget accounting.
E13_ROW_PREFIX = "BM_E13"
E13_REQUIRED = [
    "n_threads", "strategy_id", "fault_budget", "injected_sc_failures",
    "retry_amplification",
]
E13_STRATEGY_IDS = {0.0, 1.0}  # oblivious, adaptive

# The E14 register-storage-policy rows (BM_E14_* in
# bench/bench_hw_throughput.cc) compare inline tagged words against boxed
# nodes; their fingerprint is the policy plus the overflow accounting, or
# the inline-vs-boxed contrast cannot be reconstructed from the CSV.
E14_ROW_PREFIX = "BM_E14"
E14_REQUIRED = [
    "n_threads", "policy_id", "hw_ops_per_sec", "overflow_events",
]
STORAGE_POLICY_IDS = {0.0, 1.0}  # E14/E15 policy_id: boxed, inline

# The E15 flat-combining rows (BM_E15_* in bench/bench_hw_throughput.cc)
# compare the combining universal construction against the single-register
# helping baseline and raw LL/SC fetch&add. Every row carries the thread
# count, storage policy, and throughput; the combining legs additionally
# carry the batching fingerprint — without it the batching thesis (ops/sec
# beats the baseline BECAUSE installs retire multiple ops) cannot be
# reconstructed from the CSV.
E15_ROW_PREFIX = "BM_E15"
E15_COMBINING_PREFIX = "BM_E15_Combining"
E15_REQUIRED = ["n_threads", "policy_id", "uc_ops_per_sec"]
E15_COMBINING_REQUIRED = ["batches"]

# The E16 service-mode rows (BM_E16_* in bench/bench_service_mode.cc)
# report the open-loop experiment: M = oversub_factor * N logical
# processes on N carrier threads under Poisson arrivals. The fingerprint
# is the pool shape plus the offered/served accounting plus the latency
# quartet; the percentiles must be monotone or the histogram is corrupt.
E16_ROW_PREFIX = "BM_E16"
E16_REQUIRED = [
    "n_threads", "m_procs", "oversub_factor", "arrival_rate_hz",
    "offered_ops", "served_ops", "throughput_ops_per_sec",
    "latency_p50_ns", "latency_p90_ns", "latency_p99_ns",
    "latency_p999_ns",
]
E16_PERCENTILES = [
    "latency_p50_ns", "latency_p90_ns", "latency_p99_ns",
    "latency_p999_ns",
]

# The E17 crash-storm rows (BM_E17_* in bench/bench_service_mode.cc)
# report availability under injected crash-stops with and without
# recovery. The fingerprint is the storm shape plus the crash/recovery
# accounting; the invariants (served <= offered, recoveries <= crashes,
# in_flight_at_crash <= crashes, availability == served/offered) are what
# keeps the availability claim honest — a benchmark that counted a
# crashed-mid-request client as served would fail here.
E17_ROW_PREFIX = "BM_E17"
E17_REQUIRED = [
    "n_threads", "m_procs", "recover", "storm", "arrival_rate_hz",
    "offered_ops", "served_ops", "throughput_ops_per_sec", "availability",
    "mttr_ms", "crashes", "recoveries", "in_flight_at_crash",
    "latency_p50_ns", "latency_p90_ns", "latency_p99_ns",
    "latency_p999_ns",
]

# The E18 TAS/leader expected-steps rows (BM_E18_* in
# bench/bench_tas_leader.cc) report winner vs max shared-op costs against
# log2(n) on all three substrates. The fingerprint is the object/substrate
# pair plus the ops accounting; spec_violations must be zero — the
# exactly-one-winner postcondition is deterministic, so a row admitting a
# lost winner is a correctness failure, not a measurement artifact.
E18_ROW_PREFIX = "BM_E18"
E18_REQUIRED = [
    "n", "object_id", "substrate_id", "samples", "mean_winner_ops",
    "mean_max_ops", "min_winner_ops", "log2_n", "spec_violations",
]
E18_OBJECT_IDS = {0.0, 1.0}  # tas, leader
E18_SUBSTRATE_IDS = {0.0, 1.0, 2.0}  # sim, hw, oversub

# The E19 reclamation rows (BM_E19_* in bench/bench_reclamation.cc) run
# hazard-pointer reclamation on the storage hammer, with and without a
# stalled peer. The fingerprint is the node accounting;
# nodes_reclaimed <= nodes_retired is the no-double-free invariant, and
# boxed rows that retired nodes must report a positive peak backlog or the
# high-water tracker is broken.
E19_ROW_PREFIX = "BM_E19"
E19_REQUIRED = [
    "n_threads", "policy_id", "hw_ops_per_sec",
    "nodes_retired", "nodes_reclaimed", "node_high_water",
    "max_stall_spins", "scan_passes", "stalled_peer",
]
E19_BOXED_POLICY_ID = 0.0


class MalformedInput(Exception):
    pass


def parse_number(text):
    if text and text[-1] in SUFFIX:
        return float(text[:-1]) * SUFFIX[text[-1]]
    return float(text)


def split_name(full_name):
    base, _, arg = full_name.partition("/")
    return base, arg


def parse_console(stream):
    rows = []
    for line in stream:
        m = ROW.match(line.strip())
        if not m:
            continue
        base, arg = split_name(m.group("name"))
        row = {
            "name": base,
            "arg": arg,
            "time_ns": float(m.group("time")) * UNIT_NS[m.group("tunit")],
            "cpu_ns": float(m.group("cpu")) * UNIT_NS[m.group("cunit")],
            "iterations": int(m.group("iters")),
        }
        for key, value in COUNTER.findall(m.group("rest")):
            row[key] = parse_number(value)
        rows.append(row)
    return rows


def parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedInput(f"not valid JSON: {e}")
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise MalformedInput('missing top-level "benchmarks" array')
    benches = doc["benchmarks"]
    if not isinstance(benches, list) or not benches:
        raise MalformedInput('"benchmarks" is empty or not an array')
    rows = []
    for i, b in enumerate(benches):
        if not isinstance(b, dict):
            raise MalformedInput(f"benchmarks[{i}] is not an object")
        # Aggregate rows (mean/median/stddev) ride along like regular runs.
        missing = [f for f in REQUIRED_JSON_FIELDS if f not in b]
        if missing:
            raise MalformedInput(
                f"benchmarks[{i}] missing field(s): {', '.join(missing)}")
        unit = b.get("time_unit", "ns")
        if unit not in UNIT_NS:
            raise MalformedInput(
                f"benchmarks[{i}] has unknown time_unit {unit!r}")
        base, arg = split_name(str(b["name"]))
        row = {
            "name": base,
            "arg": arg,
            "time_ns": float(b["real_time"]) * UNIT_NS[unit],
            "cpu_ns": float(b["cpu_time"]) * UNIT_NS[unit],
            "iterations": int(b["iterations"]),
        }
        reserved = set(REQUIRED_JSON_FIELDS) | {
            "run_name", "run_type", "repetitions", "repetition_index",
            "threads", "time_unit", "family_index",
            "per_family_instance_index", "aggregate_name", "aggregate_unit",
            "label", "error_occurred", "error_message",
        }
        for key, value in b.items():
            if key in reserved or not isinstance(value, (int, float)):
                continue
            row[key] = float(value)
        rows.append(row)
    return rows


def validate(rows):
    if not rows:
        raise MalformedInput("no benchmark rows found")
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"non-finite value for {key}")
        if row["iterations"] <= 0:
            raise MalformedInput(
                f"benchmark {row['name']}/{row['arg']}: "
                f"non-positive iteration count")
        if row["time_ns"] < 0 or row["cpu_ns"] < 0:
            raise MalformedInput(
                f"benchmark {row['name']}/{row['arg']}: negative time")
        if row["name"].startswith(BACKOFF_ROW_PREFIX):
            missing = [f for f in BACKOFF_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: backoff "
                    f"comparison row missing field(s): {', '.join(missing)}")
            if row["cas_failure_rate"] < 0 or row["cas_failure_rate"] > 1:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"cas_failure_rate outside [0, 1]")
        if row["name"].startswith(E12_ROW_PREFIX):
            missing = [f for f in E12_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: fault-injection "
                    f"row missing field(s): {', '.join(missing)}")
            if row["sc_fail_rate"] < 0 or row["sc_fail_rate"] > 1:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"sc_fail_rate outside [0, 1]")
            for field in ("clean", "spec_violations", "crashed", "hung"):
                if row[field] < 0:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: "
                        f"negative taxonomy count {field}")
        if row["name"].startswith(E13_ROW_PREFIX):
            missing = [f for f in E13_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: adversarial-"
                    f"placement row missing field(s): {', '.join(missing)}")
            if row["strategy_id"] not in E13_STRATEGY_IDS:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: unknown "
                    f"strategy_id {row['strategy_id']}")
            if row["fault_budget"] < 0 or row["injected_sc_failures"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"fault-budget accounting")
            if (row["fault_budget"] > 0
                    and row["injected_sc_failures"] > row["fault_budget"]):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: injected more "
                    f"failures than the fault budget allows")
            if row["retry_amplification"] < 1:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"retry_amplification below 1")
        if row["name"].startswith(E14_ROW_PREFIX):
            missing = [f for f in E14_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: storage-policy "
                    f"row missing field(s): {', '.join(missing)}")
            if row["policy_id"] not in STORAGE_POLICY_IDS:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: unknown "
                    f"policy_id {row['policy_id']}")
            if row["hw_ops_per_sec"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"hw_ops_per_sec")
            if row["overflow_events"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"overflow_events")
        if row["name"].startswith(E15_ROW_PREFIX):
            missing = [f for f in E15_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: combining "
                    f"comparison row missing field(s): {', '.join(missing)}")
            if row["policy_id"] not in STORAGE_POLICY_IDS:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: unknown "
                    f"policy_id {row['policy_id']}")
            if row["uc_ops_per_sec"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"uc_ops_per_sec")
            if row["name"].startswith(E15_COMBINING_PREFIX):
                missing = [
                    f for f in E15_COMBINING_REQUIRED if f not in row]
                if missing:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: combining "
                        f"row missing batching field(s): "
                        f"{', '.join(missing)}")
                if row["batches"] < 0:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: negative "
                        f"batches count")
                if row["batches"] == 0:
                    # Zero-batch runs (every op adopted, or crash-stop
                    # before the first winner install) have no meaningful
                    # mean; the bench omits the counter, and a present
                    # value would be the div-by-zero artifact.
                    if "mean_batch_size" in row:
                        raise MalformedInput(
                            f"benchmark {row['name']}/{row['arg']}: "
                            f"mean_batch_size reported over zero batches")
                else:
                    if "mean_batch_size" not in row:
                        raise MalformedInput(
                            f"benchmark {row['name']}/{row['arg']}: "
                            f"combining row with batches installed is "
                            f"missing mean_batch_size")
                    if row["mean_batch_size"] < 1:
                        raise MalformedInput(
                            f"benchmark {row['name']}/{row['arg']}: "
                            f"mean_batch_size below 1")
        if row["name"].startswith(E16_ROW_PREFIX):
            missing = [f for f in E16_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: service-mode "
                    f"row missing field(s): {', '.join(missing)}")
            if row["arrival_rate_hz"] <= 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"non-positive arrival_rate_hz")
            if (row["n_threads"] < 1 or row["oversub_factor"] < 1
                    or row["m_procs"] != row["n_threads"]
                    * row["oversub_factor"]):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: pool shape "
                    f"m_procs != n_threads * oversub_factor")
            if row["served_ops"] < 0 or row["offered_ops"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"offered/served accounting")
            if row["served_ops"] > row["offered_ops"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: served more "
                    f"ops than were offered")
            if row["throughput_ops_per_sec"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"throughput_ops_per_sec")
            for lo, hi in zip(E16_PERCENTILES, E16_PERCENTILES[1:]):
                if row[lo] > row[hi]:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: latency "
                        f"percentiles not monotone ({lo} > {hi})")
        if row["name"].startswith(E17_ROW_PREFIX):
            missing = [f for f in E17_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: crash-storm "
                    f"row missing field(s): {', '.join(missing)}")
            if row["recover"] not in (0.0, 1.0):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: recover flag "
                    f"must be 0 or 1")
            if row["storm"] < 0 or row["storm"] > row["m_procs"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: storm size "
                    f"outside [0, m_procs]")
            if row["served_ops"] < 0 or row["offered_ops"] <= 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: bad "
                    f"offered/served accounting")
            if row["served_ops"] > row["offered_ops"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: served more "
                    f"ops than were offered")
            if row["recoveries"] > row["crashes"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: more "
                    f"recoveries than crashes")
            if row["in_flight_at_crash"] > row["crashes"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"in_flight_at_crash exceeds crashes")
            if row["availability"] < 0 or row["availability"] > 1:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: availability "
                    f"outside [0, 1]")
            expected = row["served_ops"] / row["offered_ops"]
            if abs(row["availability"] - expected) > 1e-3:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: availability "
                    f"!= served/offered")
            if row["mttr_ms"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"mttr_ms")
            if row["recoveries"] == 0 and row["mttr_ms"] != 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: mttr_ms "
                    f"reported with zero recoveries")
            for lo, hi in zip(E16_PERCENTILES, E16_PERCENTILES[1:]):
                if row[lo] > row[hi]:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: latency "
                        f"percentiles not monotone ({lo} > {hi})")
        if row["name"].startswith(E18_ROW_PREFIX):
            missing = [f for f in E18_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: expected-steps "
                    f"row missing field(s): {', '.join(missing)}")
            if row["object_id"] not in E18_OBJECT_IDS:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: unknown "
                    f"object_id {row['object_id']}")
            if row["substrate_id"] not in E18_SUBSTRATE_IDS:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: unknown "
                    f"substrate_id {row['substrate_id']}")
            if row["n"] < 1 or row["samples"] <= 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: bad sweep "
                    f"shape (n < 1 or samples <= 0)")
            if row["log2_n"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"log2_n")
            if not (0 <= row["min_winner_ops"] <= row["mean_winner_ops"]
                    <= row["mean_max_ops"]):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: winner-ops "
                    f"accounting not ordered (min <= mean <= max)")
            if row["spec_violations"] != 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: "
                    f"{row['spec_violations']:.0f} sample(s) lost the "
                    f"unique winner")
        if row["name"].startswith(E19_ROW_PREFIX):
            missing = [f for f in E19_REQUIRED if f not in row]
            if missing:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: reclamation "
                    f"row missing field(s): {', '.join(missing)}")
            if row["stalled_peer"] not in (0.0, 1.0):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: stalled_peer "
                    f"flag must be 0 or 1")
            if row["hw_ops_per_sec"] < 0:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: negative "
                    f"hw_ops_per_sec")
            for field in ("nodes_retired", "nodes_reclaimed",
                          "node_high_water", "max_stall_spins",
                          "scan_passes"):
                if row[field] < 0:
                    raise MalformedInput(
                        f"benchmark {row['name']}/{row['arg']}: negative "
                        f"{field}")
            if row["nodes_reclaimed"] > row["nodes_retired"]:
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: reclaimed "
                    f"more nodes than were retired")
            if (row["policy_id"] == E19_BOXED_POLICY_ID
                    and row["nodes_retired"] > 0
                    and row["node_high_water"] <= 0):
                raise MalformedInput(
                    f"benchmark {row['name']}/{row['arg']}: boxed row "
                    f"retired nodes but reports zero node_high_water")


def write_csv(rows, out):
    counters = []
    for row in rows:
        # The hw benchmarks report their process/thread count as a counter;
        # surface it as a first-class column.
        if "n_threads" in row:
            row["threads"] = int(row.pop("n_threads"))
        for key in row:
            if key not in BASE_FIELDS and key not in counters:
                counters.append(key)
    writer = csv.DictWriter(out, fieldnames=BASE_FIELDS + counters)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def main():
    ap = argparse.ArgumentParser(
        description="google-benchmark output (console or JSON) -> CSV")
    ap.add_argument("--check", action="store_true",
                    help="validate the input instead of converting; exit 1 "
                         "on malformed benchmark output")
    args = ap.parse_args()

    text = sys.stdin.read()
    try:
        stripped = text.lstrip()
        if stripped.startswith("{"):
            rows = parse_json(text)
        else:
            if args.check and not stripped:
                raise MalformedInput("empty input")
            rows = parse_console(text.splitlines())
        validate(rows)
    except MalformedInput as e:
        if args.check:
            print(f"bench_to_csv: malformed benchmark output: {e}",
                  file=sys.stderr)
            return 1
        raise SystemExit(f"bench_to_csv: {e}")

    if args.check:
        names = {row["name"] for row in rows}
        print(f"ok: {len(rows)} benchmark rows from {len(names)} benchmarks")
        return 0
    write_csv(rows, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
