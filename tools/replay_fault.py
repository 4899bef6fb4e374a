#!/usr/bin/env python3
"""Replay failing Monte-Carlo fault artifacts through the fault_replay binary.

The Monte-Carlo drivers (hw/mc_driver, core/lower_bound) dump a
FaultArtifact JSON for every failing sample when an artifact directory is
configured. This wrapper feeds each artifact back through
`fault_replay --replay` and reports whether the recorded taxonomy and
per-process op counts reproduce bit-for-bit.

Usage:
    tools/replay_fault.py artifacts/fault_sample_3.json
    tools/replay_fault.py --platform both artifacts/*.json
    tools/replay_fault.py --binary ./build/examples/fault_replay artifacts/

Exit status: 0 when every artifact replays bit-for-bit, 1 on any mismatch
or replay failure, 2 on usage/environment errors (missing binary,
unreadable artifact). Artifacts with an unregistered scenario ("custom")
are reported and skipped — they document a failure but carry no body to
rebuild (see docs/fault_injection.md).

--strategy filters by the plan's placement strategy ("oblivious" matches
plans that omit the optional key; "adaptive"/"burst" match the recorded
adversarial plans, which replay through their embedded decision trace).
"""
import argparse
import json
import os
import subprocess
import sys

DEFAULT_BINARY = os.path.join("build", "examples", "fault_replay")

# Keys every artifact must carry to be replayable (FaultArtifact schema —
# see docs/fault_injection.md).
REQUIRED_KEYS = ["scenario", "n", "toss_seed", "status", "proc_ops", "plan"]


def collect_artifacts(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, f) for f in sorted(os.listdir(path))
                if f.endswith(".json"))
        else:
            files.append(path)
    return files


def check_artifact(path):
    """Light schema validation; the binary re-parses authoritatively.

    Raises ValueError with the offending key and the expected shape, so a
    malformed or truncated artifact fails with a readable message instead
    of a KeyError/TypeError deeper in the replay loop. Pre-recovery
    artifacts (crash entries without the optional "recovery" object) pass
    untouched — their schema is a strict subset.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("artifact root: expected a JSON object, got "
                         f"{type(doc).__name__}")
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise ValueError(f"missing key(s): {', '.join(missing)}")
    for key, want in (("scenario", str), ("status", str), ("n", int)):
        if not isinstance(doc[key], want):
            raise ValueError(f"field '{key}': expected {want.__name__}, "
                             f"got {type(doc[key]).__name__}")
    if not isinstance(doc["proc_ops"], list):
        raise ValueError("field 'proc_ops': expected an array, got "
                         f"{type(doc['proc_ops']).__name__}")
    if not isinstance(doc["plan"], dict):
        raise ValueError("field 'plan': expected an object, got "
                         f"{type(doc['plan']).__name__}")
    crashes = doc["plan"].get("crashes", [])
    if not isinstance(crashes, list):
        raise ValueError("field 'plan.crashes': expected an array, got "
                         f"{type(crashes).__name__}")
    for i, crash in enumerate(crashes):
        if not isinstance(crash, dict):
            raise ValueError(f"field 'plan.crashes[{i}]': expected an "
                             f"object, got {type(crash).__name__}")
        recovery = crash.get("recovery")
        if recovery is None:
            continue  # pre-recovery schema: crash-stop is final
        if not isinstance(recovery, dict):
            raise ValueError(
                f"field 'plan.crashes[{i}].recovery': expected an object, "
                f"got {type(recovery).__name__}")
        for key in ("delay_units", "max_restarts"):
            if key not in recovery:
                raise ValueError(
                    f"field 'plan.crashes[{i}].recovery': missing "
                    f"'{key}' (expected an unsigned integer)")
            if not isinstance(recovery[key], int) or recovery[key] < 0:
                raise ValueError(
                    f"field 'plan.crashes[{i}].recovery.{key}': expected "
                    f"an unsigned integer, got {recovery[key]!r}")
    return doc


def main():
    ap = argparse.ArgumentParser(
        description="replay fault artifacts via fault_replay --replay")
    ap.add_argument("artifacts", nargs="+",
                    help="artifact JSON files or directories of them")
    ap.add_argument("--binary", default=DEFAULT_BINARY,
                    help=f"fault_replay binary (default: {DEFAULT_BINARY})")
    ap.add_argument("--platform", default="sim",
                    choices=["sim", "hw", "both"],
                    help="substrate(s) to replay on (default: sim)")
    ap.add_argument("--timeout-ms", type=int, default=120000,
                    help="watchdog budget per replay (default: 120000)")
    ap.add_argument("--strategy", default="any",
                    choices=["any", "oblivious", "adaptive", "burst"],
                    help="only replay artifacts whose plan uses this "
                         "placement strategy (default: any)")
    args = ap.parse_args()

    if not (os.path.isfile(args.binary) and os.access(args.binary, os.X_OK)):
        print(f"replay_fault: binary not found or not executable: "
              f"{args.binary} (build the repo first)", file=sys.stderr)
        return 2

    files = collect_artifacts(args.artifacts)
    if not files:
        print("replay_fault: no artifact files found", file=sys.stderr)
        return 2

    failures = 0
    skipped = 0
    for path in files:
        try:
            doc = check_artifact(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"replay_fault: {path}: unreadable artifact: {e}",
                  file=sys.stderr)
            return 2
        if doc["scenario"] == "custom":
            print(f"SKIP  {path}: scenario 'custom' has no registered body")
            skipped += 1
            continue
        # Oblivious plans predate the optional "strategy" key and omit it.
        plan = doc["plan"] if isinstance(doc["plan"], dict) else {}
        strategy = plan.get("strategy", "oblivious")
        if args.strategy != "any" and strategy != args.strategy:
            print(f"SKIP  {path}: strategy '{strategy}' filtered out")
            skipped += 1
            continue
        cmd = [args.binary, "--replay", path, "--platform", args.platform,
               "--timeout_ms", str(args.timeout_ms)]
        # Non-boxed artifacts carry the storage policy and width counters
        # of the failing sample (optional keys; boxed artifacts omit them).
        width = ""
        if "storage_policy" in doc:
            width = (f", storage={doc['storage_policy']}"
                     f", overflow_events={doc.get('overflow_events', 0)}"
                     f", max_bits={doc.get('max_bits', 0)}"
                     f", boxed_fallback_registers="
                     f"{doc.get('boxed_fallback_registers', 0)}")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            print(f"OK    {path}: replay matches "
                  f"(status={doc['status']}, n={doc['n']}{width})")
        else:
            failures += 1
            print(f"FAIL  {path}: replay diverged (exit {proc.returncode})")
            for line in (proc.stdout + proc.stderr).splitlines():
                print(f"      {line}")

    replayed = len(files) - skipped
    print(f"replay_fault: {replayed - failures}/{replayed} artifacts "
          f"reproduced bit-for-bit"
          + (f", {skipped} skipped" if skipped else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
