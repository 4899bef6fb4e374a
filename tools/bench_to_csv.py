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
summary when the input is sound. Rows of the S7 and E11-E19 experiments
must also satisfy their family's entry in the FAMILIES table below. Use it
in CI to fail fast on truncated benchmark artifacts.
"""
import argparse
import csv
import json
import math
import re
import sys

# A _cv aggregate row prints its times and counters as percentages
# ("20.60 %", "clean=0.00%", "hung=-nan%"); they are kept as fractions,
# the value the JSON format reports.
ROW = re.compile(
    r"^(?P<name>[\w:<>,]+(?:/\S+)?)\s+(?P<time>[\d.e+-]+) (?P<tunit>\w+|%)"
    r"\s+(?P<cpu>[\d.e+-]+) (?P<cunit>\w+|%)\s+(?P<iters>\d+)(?P<rest>.*)$")
COUNTER = re.compile(r"(\w+)=(-?nan|[\d.e+kMG-]+)(%?)")
AGGREGATE_NAME = re.compile(r"_(mean|median|stddev|cv)$")
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
CONSOLE_UNIT_NS = dict(UNIT_NS, **{"%": 0.01})
SUFFIX = {"k": 1e3, "M": 1e6, "G": 1e9}

BASE_FIELDS = ["name", "arg", "threads", "time_ns", "cpu_ns", "iterations"]
REQUIRED_JSON_FIELDS = ["name", "real_time", "cpu_time", "iterations"]


def nonnegative(*fields):
    return [(f"negative {f}", lambda r, f=f: r[f] >= 0) for f in fields]


def known(field, ids):
    return (f"unknown {field} {{{field}}}", lambda r: r[field] in ids)


LATENCY = ["latency_p50_ns", "latency_p90_ns", "latency_p99_ns",
           "latency_p999_ns"]
MONOTONE_LATENCY = [
    (f"latency percentiles not monotone ({lo} > {hi})",
     lambda r, lo=lo, hi=hi: r[lo] <= r[hi])
    for lo, hi in zip(LATENCY, LATENCY[1:])]

# The one statement of the per-experiment row rules. A row belongs to every
# family whose prefix starts its unqualified name (the text after the last
# "::", so llsc::BM_E14_X/4 is BM_E14_X). Each entry is
# (prefix, label, required counters, invariants); an invariant is a
# (message, predicate) pair, checked in order, whose predicate is true on a
# sound row. The message is formatted with the row's counters. Aggregate
# rows (mean/median/stddev/cv over repetitions) must carry the counters,
# but their values are statistics, not runs, so the invariants skip them.
FAMILIES = [
    # S7 register widths (bench_register_width): a bounded run's widest
    # write is a positive width within ceil(log2 n)+1 bits; an unbounded
    # one reports max_bits = -1.
    ("BM_S7", "register-width",
     ["n", "bounded", "max_bits", "log2n_plus_1", "writes"],
     [known("bounded", (0, 1)),
      ("bounded row with max_bits {max_bits:.0f} outside "
       "(0, log2n_plus_1 = {log2n_plus_1:.0f}]",
       lambda r: r["bounded"] != 1
       or 0 < r["max_bits"] <= r["log2n_plus_1"]),
      ("unbounded row with max_bits {max_bits:.0f} (want -1)",
       lambda r: r["bounded"] != 0 or r["max_bits"] == -1),
      ("run wrote nothing (writes {writes:.0f})",
       lambda r: r["writes"] > 0)]),
    # E11 backoff sweep (bench_hw_throughput).
    ("BM_HwBackoff", "backoff comparison",
     ["n_threads", "oversubscribed", "hw_ops_per_sec", "cas_failure_rate",
      "parks"],
     [("cas_failure_rate outside [0, 1]",
       lambda r: 0 <= r["cas_failure_rate"] <= 1)]),
    # E12 graceful degradation (bench_fault_injection): the rate plus the
    # full run taxonomy.
    ("BM_E12", "fault-injection",
     ["sc_fail_rate", "clean", "spec_violations", "crashed", "hung"],
     [("sc_fail_rate outside [0, 1]",
       lambda r: 0 <= r["sc_fail_rate"] <= 1),
      *nonnegative("clean", "spec_violations", "crashed", "hung")]),
    # E13 adversarial vs oblivious placement at equal budget.
    ("BM_E13", "adversarial-placement",
     ["n_threads", "strategy_id", "fault_budget", "injected_sc_failures",
      "retry_amplification"],
     [known("strategy_id", (0, 1)),  # oblivious, adaptive
      ("negative fault-budget accounting",
       lambda r: r["fault_budget"] >= 0 and r["injected_sc_failures"] >= 0),
      ("injected more failures than the fault budget allows",
       lambda r: r["fault_budget"] <= 0
       or r["injected_sc_failures"] <= r["fault_budget"]),
      ("retry_amplification below 1",
       lambda r: r["retry_amplification"] >= 1)]),
    # E14 inline words vs nodes (bench_hw_throughput): every overflowing
    # write installs a node.
    ("BM_E14", "register-storage",
     ["n_threads", "hw_ops_per_sec", "overflow_events", "nodes_allocated"],
     [*nonnegative("hw_ops_per_sec", "overflow_events", "nodes_allocated"),
      ("nodes_allocated {nodes_allocated:.0f} below overflow_events "
       "{overflow_events:.0f}",
       lambda r: r["nodes_allocated"] >= r["overflow_events"])]),
    # E15 combining universal construction vs its baselines.
    ("BM_E15", "combining comparison",
     ["n_threads", "uc_ops_per_sec"],
     nonnegative("uc_ops_per_sec")),
    # The combining legs also carry the batching fingerprint. A zero-batch
    # run (every op adopted, or a crash-stop before the first install) has
    # no mean, so the bench omits it; a present value is a div-by-zero.
    ("BM_E15_Combining", "combining batching",
     ["batches"],
     [*nonnegative("batches"),
      ("mean_batch_size reported over zero batches",
       lambda r: r["batches"] != 0 or "mean_batch_size" not in r),
      ("combining row with batches installed is missing mean_batch_size",
       lambda r: r["batches"] == 0 or "mean_batch_size" in r),
      ("mean_batch_size below 1",
       lambda r: r["batches"] == 0 or r["mean_batch_size"] >= 1)]),
    # E16 open-loop service mode (bench_service_mode): M = oversub_factor *
    # N processes on N carriers under Poisson arrivals.
    ("BM_E16", "service-mode",
     ["n_threads", "m_procs", "oversub_factor", "arrival_rate_hz",
      "offered_ops", "served_ops", "throughput_ops_per_sec", *LATENCY],
     [("non-positive arrival_rate_hz", lambda r: r["arrival_rate_hz"] > 0),
      ("pool shape m_procs != n_threads * oversub_factor",
       lambda r: r["n_threads"] >= 1 and r["oversub_factor"] >= 1
       and r["m_procs"] == r["n_threads"] * r["oversub_factor"]),
      ("negative offered/served accounting",
       lambda r: r["served_ops"] >= 0 and r["offered_ops"] >= 0),
      ("served more ops than were offered",
       lambda r: r["served_ops"] <= r["offered_ops"]),
      *nonnegative("throughput_ops_per_sec"),
      *MONOTONE_LATENCY]),
    # E17 crash-storm availability (bench_service_mode): a client counted
    # as served after crashing mid-request fails the accounting here.
    ("BM_E17", "crash-storm",
     ["n_threads", "m_procs", "recover", "storm", "arrival_rate_hz",
      "offered_ops", "served_ops", "throughput_ops_per_sec", "availability",
      "mttr_ms", "crashes", "recoveries", "in_flight_at_crash", *LATENCY],
     [known("recover", (0, 1)),
      ("storm size outside [0, m_procs]",
       lambda r: 0 <= r["storm"] <= r["m_procs"]),
      ("bad offered/served accounting",
       lambda r: r["served_ops"] >= 0 and r["offered_ops"] > 0),
      ("served more ops than were offered",
       lambda r: r["served_ops"] <= r["offered_ops"]),
      ("more recoveries than crashes",
       lambda r: r["recoveries"] <= r["crashes"]),
      ("in_flight_at_crash exceeds crashes",
       lambda r: r["in_flight_at_crash"] <= r["crashes"]),
      ("availability outside [0, 1]", lambda r: 0 <= r["availability"] <= 1),
      ("availability != served/offered",
       lambda r: abs(r["availability"] - r["served_ops"] / r["offered_ops"])
       <= 1e-3),
      *nonnegative("mttr_ms"),
      ("mttr_ms reported with zero recoveries",
       lambda r: r["recoveries"] != 0 or r["mttr_ms"] == 0),
      *MONOTONE_LATENCY]),
    # E18 TAS/leader expected steps (bench_tas_leader). The unique winner
    # is deterministic, so a row admitting a lost one is a correctness
    # failure, not a measurement artifact.
    ("BM_E18", "expected-steps",
     ["n", "object_id", "substrate_id", "samples", "mean_winner_ops",
      "mean_max_ops", "min_winner_ops", "log2_n", "spec_violations"],
     [known("object_id", (0, 1)),  # tas, leader
      known("substrate_id", (0, 1, 2)),  # sim, hw, oversub
      ("bad sweep shape (n < 1 or samples <= 0)",
       lambda r: r["n"] >= 1 and r["samples"] > 0),
      *nonnegative("log2_n"),
      ("winner-ops accounting not ordered (min <= mean <= max)",
       lambda r: 0 <= r["min_winner_ops"] <= r["mean_winner_ops"]
       <= r["mean_max_ops"]),
      ("{spec_violations:.0f} sample(s) lost the unique winner",
       lambda r: r["spec_violations"] == 0)]),
    # E19 hazard-pointer reclamation (bench_reclamation): freeing more than
    # was retired is a double free, and a row that retired nodes with a
    # zero peak means the high-water tracker is broken.
    ("BM_E19", "reclamation",
     ["n_threads", "hw_ops_per_sec", "nodes_retired",
      "nodes_reclaimed", "node_high_water", "max_stall_spins", "scan_passes",
      "stalled_peer"],
     [known("stalled_peer", (0, 1)),
      *nonnegative("hw_ops_per_sec", "nodes_retired", "nodes_reclaimed",
                   "node_high_water", "max_stall_spins", "scan_passes"),
      ("reclaimed more nodes than were retired",
       lambda r: r["nodes_reclaimed"] <= r["nodes_retired"]),
      ("row retired nodes but reports zero node_high_water",
       lambda r: r["nodes_retired"] <= 0 or r["node_high_water"] > 0)]),
]


class MalformedInput(Exception):
    pass


class Row(dict):
    """One benchmark row; `aggregate` names the statistic over repetitions
    (mean, median, stddev, cv) the row reports, or is empty for a run."""
    aggregate = ""


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
        row = Row(
            name=base,
            arg=arg,
            time_ns=float(m.group("time")) * CONSOLE_UNIT_NS[m.group("tunit")],
            cpu_ns=float(m.group("cpu")) * CONSOLE_UNIT_NS[m.group("cunit")],
            iterations=int(m.group("iters")),
        )
        statistic = AGGREGATE_NAME.search(m.group("name"))
        row.aggregate = statistic.group(1) if statistic else ""
        for key, value, percent in COUNTER.findall(m.group("rest")):
            row[key] = parse_number(value) * (0.01 if percent else 1.0)
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
        missing = [f for f in REQUIRED_JSON_FIELDS if f not in b]
        if missing:
            raise MalformedInput(
                f"benchmarks[{i}] missing field(s): {', '.join(missing)}")
        unit = b.get("time_unit", "ns")
        if unit not in UNIT_NS:
            raise MalformedInput(
                f"benchmarks[{i}] has unknown time_unit {unit!r}")
        # A _cv row's times are already fractions; time_unit does not apply.
        scale = (1.0 if b.get("aggregate_unit") == "percentage"
                 else UNIT_NS[unit])
        base, arg = split_name(str(b["name"]))
        row = Row(
            name=base,
            arg=arg,
            time_ns=float(b["real_time"]) * scale,
            cpu_ns=float(b["cpu_time"]) * scale,
            iterations=int(b["iterations"]),
        )
        if b.get("run_type") == "aggregate":
            row.aggregate = str(b.get("aggregate_name", "aggregate"))
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
        where = f"benchmark {row['name']}/{row['arg']}"
        for key, value in row.items():
            # The cv of a counter that is 0 in every repetition is 0/0,
            # which google-benchmark reports as NaN; the mean and stddev
            # rows it is computed from are checked on their own.
            if row.aggregate == "cv" and key not in BASE_FIELDS:
                continue
            if isinstance(value, float) and not math.isfinite(value):
                raise MalformedInput(f"{where}: non-finite value for {key}")
        if row["iterations"] <= 0:
            raise MalformedInput(f"{where}: non-positive iteration count")
        if row["time_ns"] < 0 or row["cpu_ns"] < 0:
            raise MalformedInput(f"{where}: negative time")
        unqualified = row["name"].rpartition("::")[2]
        for prefix, label, required, invariants in FAMILIES:
            if not unqualified.startswith(prefix):
                continue
            missing = [f for f in required if f not in row]
            if missing:
                raise MalformedInput(
                    f"{where}: {label} row missing field(s): "
                    f"{', '.join(missing)}")
            if row.aggregate:
                continue
            for message, holds in invariants:
                if not holds(row):
                    raise MalformedInput(f"{where}: {message.format_map(row)}")


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
