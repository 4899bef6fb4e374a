#!/usr/bin/env python3
"""Builds and runs the repo's benchmark.

    python3 perfbench/run.py --workload service|hammer|lower_bound \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library straight from src/ plus the workload
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

A run starts the workload in four processes of its own, one per stack
layout (see child_command), each for S/4 seconds, and reports each metric as
the mean over the four. A traced run does that traced, after an untraced
pass of 0.6 S for the tracing overhead. Every process gets a pinned
environment (see pinned_env) and no address-space randomization.

Output: a host fingerprint, every metric with its unit and sample count, the
error rate, the checks, and with --trace 1 the per-layer metrics and the
tracing overhead (traced minus untraced end-to-end metrics). The last line of
stdout is one JSON object: correct, attempted, failed, and the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
The exit code is 0 only when every output check passed.

--self-test runs each workload briefly with every check's expected value
perturbed (--corrupt) and asserts that each check fires, then once clean.
"""

import argparse
import ctypes
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("service", "hammer", "lower_bound")
# Share of --seconds the traced workload's own pass gets in a traced run
# (kTracedShare in src/main.cc); the untraced comparison pass runs as long.
TRACED_SHARE = 0.6
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Stack layouts per untraced run: the 16-byte alignment classes of the main
# thread's stack within a 64-byte cache line.
LAYOUTS = 4
ADDR_NO_RANDOMIZE = 0x0040000

# What each end-to-end metric means on each workload.
MEANING = {
    "service": {
        "setup_s": "median zero-op run_service() of the same configuration",
        "ops_per_s": "served ops/s in the saturation phase (capacity)",
        "latency_p50_us": "completion - scheduled arrival at the load rate",
        "latency_p99_us": "completion - scheduled arrival at the load rate",
        "peak_rss_mb": "peak resident memory of the workload process",
    },
    "hammer": {
        "setup_s": "median zero-op HwExecutor run of the same configuration",
        "ops_per_s": "completed memory ops/s, 4 processes",
        "latency_p50_us": "sampled per-op time",
        "latency_p99_us": "sampled per-op time",
        "peak_rss_mb": "peak resident memory of the workload process",
    },
    "lower_bound": {
        "setup_s": "median construction of the n = 16384 System",
        "ops_per_s": "simulated shared-memory steps per host second",
        "latency_p50_us": "host time per Monte-Carlo sample, median over shards",
        "latency_p99_us": "host time per Monte-Carlo sample, p99 over shards",
        "peak_rss_mb": "peak resident memory of the workload process",
    },
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else pathlib.Path.cwd() / target) / "perfbench"


def build():
    """Configures (once) and builds the workload binary; returns its path."""
    if not (ROOT / "src" / "hw" / "service.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0

    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    ok = (out / "CMakeCache.txt").is_file() or run(configure)
    ok = ok and run(["cmake", "--build", str(out), "-j", jobs])
    if not ok:
        fail("build failed")
    return out / "perfbench_llsc"


def pinned_env(workload):
    """The workload's whole environment, built from scratch.

    The workloads pass storage, reclamation, backoff, yield policy and a zero
    watchdog deadline explicitly wherever the library takes them; the two
    policy variables pin what run_service() and default arguments still read,
    and LLSC_TIMEOUT_MS is never passed. lower_bound frees and reallocates
    ~270 MB per analysis; there glibc malloc keeps freed memory mapped and
    backs its heap with transparent huge pages, so page faults and TLB
    misses, whose cost varies by tens of percent between processes on a
    virtual machine, do not land in the timed work.
    """
    env = {"LLSC_STORAGE_POLICY": "boxed", "LLSC_RECLAIMER": "epoch"}
    if workload == "lower_bound":
        env.update({
            "MALLOC_TRIM_THRESHOLD_": "4000000000",
            "MALLOC_MMAP_THRESHOLD_": "4000000000",
            "MALLOC_TOP_PAD_": "268435456",
            "GLIBC_TUNABLES": "glibc.malloc.hugetlb=1",
        })
    return env


def fixed_layout():
    """Runs in the child before exec: turn off address-space randomization.

    Best effort: where personality() is refused, the child keeps
    randomization and the fingerprint says so.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def aslr_disabled_in_children():
    probe = subprocess.run(["cat", "/proc/self/personality"], capture_output=True,
                           text=True, preexec_fn=fixed_layout)
    try:
        return bool(int(probe.stdout.strip(), 16) & ADDR_NO_RANDOMIZE)
    except ValueError:
        return False


def child_command(binary, workload, seed, seconds, traced, trace_out, corrupt,
                  layout):
    """argv and environment of one workload process in stack layout `layout`.

    Where the kernel puts the main thread's stack depends on the bytes of
    argv and the environment. With a fixed address space, service's latency
    is then bimodal in the stack's alignment within a cache line (about
    0.6 ms or 1.4 ms p50 on a 4-core x86-64 virtual machine, with period
    64 bytes), most likely false sharing between hot scheduler state and
    other locals on that stack. A padding variable puts the strings' total
    size in alignment class `layout` (16-byte steps), so the four layouts
    cover every class and their mean does not depend on the checkout path,
    the seed's digits, or a code change that moves the stack by a few bytes.
    """
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "1" if traced else "0",
            "--trace-out", str(trace_out)]
    if corrupt:
        argv.append("--corrupt")
    env = pinned_env(workload)
    pad_key = "PERFBENCH_LAYOUT_PAD"
    strings = (len(os.fsencode(argv[0])) + 1
               + sum(len(os.fsencode(a)) + 1 for a in argv)
               + sum(len(k) + len(v) + 2 for k, v in env.items())
               + len(pad_key) + 2)
    pointers = 8 * (len(argv) + len(env) + 1 + 2)
    env[pad_key] = "x" * ((16 * layout - strings - pointers) % 64)
    return argv, env


def run_child(binary, workload, seed, seconds, traced, trace_out, layout=0,
              corrupt=False):
    argv, env = child_command(binary, workload, seed, seconds, traced,
                              trace_out, corrupt, layout)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              preexec_fn=fixed_layout, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} exited with {proc.returncode} and no result")
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def mean_over_layouts(results):
    """One result from the per-layout ones: metrics averaged, counts summed."""
    out = dict(results[0])
    out["correct"] = all(r["correct"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["checks"] = [c for r in results for c in r["checks"]]
    for table in ("metrics", "layers"):
        out[table] = {}
        for name, m in results[0][table].items():
            values = [r[table][name]["value"] for r in results]
            out[table][name] = {"value": sum(values) / len(values),
                                "unit": m["unit"],
                                "samples": sum(r[table][name]["samples"] for r in results)}
            if table == "metrics":
                out[table][name]["per_layout"] = values
    return out


def source_hash():
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(result, workload, seed):
    info = result.get("info", {})
    commit = None  # a plain checkout (no .git) is identified by source_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "commit": commit,
        "source_sha256": source_hash(),
        "seed": seed,
        "storage_policy": info.get("default_storage_policy"),
        "reclaimer": info.get("default_reclaim_policy"),
        "hw_timeout_ms": info.get("default_hw_timeout_ms"),
        "caller_llsc_env": {k: v for k, v in os.environ.items() if k.startswith("LLSC_")},
        "aslr_off": aslr_disabled_in_children(),
        "malloc_keeps_freed_memory": "MALLOC_TRIM_THRESHOLD_" in pinned_env(workload),
    }


def print_table(title, metrics, meaning=None):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        samples = f"n={m['samples']}" if m["samples"] else ""
        note = f"  {meaning[name]}" if meaning and name in meaning else ""
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<10} {samples:<12}{note}")
        if "per_layout" in m:
            print(f"  {'':<44} per layout: " + " ".join(f"{v:.5g}" for v in m["per_layout"]))


def print_checks(result):
    failed = [c for c in result["checks"] if not c["ok"]]
    print(f"checks: {len(result['checks']) - len(failed)}/{len(result['checks'])} passed")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")


def run_benchmark(args):
    spec = benchmark_spec()
    binary = build()
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    def trace_out(tag):
        return trace_dir / f"{args.workload}-seed{args.seed}-{tag}.json"

    def over_layouts(seconds, traced, tag):
        return mean_over_layouts([
            run_child(binary, args.workload, args.seed, seconds / LAYOUTS, traced,
                      trace_out(f"{tag}layout{k}"), layout=k)
            for k in range(LAYOUTS)])

    if args.trace:
        # The traced pipeline calls the library from other stack depths, so
        # both sides of the overhead are averaged over the four layouts too.
        untraced = over_layouts(args.seconds * TRACED_SHARE, False, "untraced-")
        result = over_layouts(args.seconds, True, "traced-")
    else:
        result = over_layouts(args.seconds, False, "")
    print("fingerprint " + json.dumps(fingerprint(result, args.workload, args.seed),
                                      sort_keys=True))
    print_table(f"end-to-end metrics, workload {args.workload}"
                + (" (traced)" if args.trace else " (mean over stack layouts)"),
                result["metrics"], MEANING[args.workload])
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'error_rate':<44} {rate:>16.6g} {'ratio':<10} "
          f"n={result['attempted']:<10}  failed / attempted")
    print_checks(result)
    if args.trace:
        print_table("per-layer metrics", result["layers"])
        print("tracing overhead (traced - untraced, same workload, seed and layouts)")
        for name in sorted(result["metrics"]):
            t = result["metrics"][name]["value"]
            u = untraced["metrics"][name]["value"]
            rel = f"{(t - u) / u:+.1%}" if u else "n/a"
            print(f"  {name:<44} {t - u:>+16.6g} {result['metrics'][name]['unit']:<10} {rel}")
        print(f"spans written to {trace_out('traced-layout0')} (and layouts 1-3)")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    correct = result["correct"] and not missing
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    binary = build()
    trace_out = build_dir() / "traces" / "self-test.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    # Untraced runs cover each workload's own checks; one traced run covers
    # every traced pipeline (the traced workload plus its two companions).
    cases = [(w, False) for w in WORKLOADS] + [("service", True)]
    for workload, traced in cases:
        label = f"{workload}{' traced' if traced else ''}"
        clean = run_child(binary, workload, 1, 2, traced, trace_out)
        if not clean["correct"]:
            print(f"FAIL {label}: clean run reported failures")
            ok = False
        corrupt = run_child(binary, workload, 1, 2, traced, trace_out, corrupt=True)
        silent = sorted({c["name"] for c in corrupt["checks"] if c["ok"]})
        if silent or corrupt["correct"]:
            print(f"FAIL {label}: corrupted checks that did not fire: {silent}")
            ok = False
        else:
            names = sorted({c["name"] for c in corrupt["checks"]})
            print(f"ok   {label}: {len(names)} checks, each fires when its expected "
                  f"value is corrupted: {', '.join(names)}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
