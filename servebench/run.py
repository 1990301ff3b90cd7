#!/usr/bin/env python3
"""Serving benchmark entry point (see README.md in this directory).

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds sop_server, sop_router and the benchmark's load generator from this
checkout (CMake, the repository's default build type) under .bench_build/,
runs the load generator, and prints the run's diagnostics followed by one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones plus the tracing overhead. --plant-wrong-outlier corrupts
one sampled emission before the oracle check, which must fail the run.
--single-server serves a routed workload from one sop_server (the
single-server reference figure on the same inputs). --cpus N lets the run
use N CPUs instead of one (reference figures only; see README.md).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
# Every run ends within this many seconds once built.
RUN_DEADLINE_S = 175



def load_spec():
    """BENCHMARK.json at the checkout root: the single definition of the
    workload names and of the metrics' names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the three binaries; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "sop_server", "sop_router", "servebench_loadgen"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def idlest_cpus(count):
    """The `count` least busy CPUs this process may run on, over 0.25 s."""
    def busy():
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                name, *ticks = line.split()
                if name.startswith("cpu") and name != "cpu":
                    ticks = [int(t) for t in ticks[:8]]
                    out[int(name[3:])] = (sum(ticks), ticks[3] + ticks[4])
        return out
    before = busy()
    time.sleep(0.25)
    after = busy()
    allowed = sorted(os.sched_getaffinity(0))

    def load(cpu):
        total = after[cpu][0] - before[cpu][0]
        idle = after[cpu][1] - before[cpu][1]
        return 1.0 - idle / total if total else 1.0
    return sorted(sorted(allowed, key=load)[:max(1, count)])


def p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def end_to_end(phase):
    pts = phase["timed_points"]
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "ingest_pps": pts / phase["wall_s"],
        "batch_p50_ms": statistics.median(phase["batch_ms"]),
        "batch_p95_ms": p95(phase["batch_ms"]),
        "change_p50_ms": statistics.median(phase["change_ms"]),
        "cpu_us_per_point": phase["serving_cpu_s"] * 1e6 / pts,
        "peak_rss_mb": phase["peak_rss_kb"] / 1024.0,
        "wire_bytes_per_point": phase["wire_bytes"] / pts,
    }


def load_snapshots(paths):
    """{"router": snap or None, "servers": [snap, ...]} from --metrics-out."""
    out = {"router": None, "servers": []}
    for path in paths:
        with open(path) as f:
            snap = json.load(f)
        if os.path.basename(path).endswith("_router.json"):
            out["router"] = snap
        else:
            out["servers"].append(snap)
    return out


def counter(snaps, name):
    return sum(s.get("counters", {}).get(name, 0) for s in snaps)


def hist(snap, name, field):
    h = snap.get("histograms", {}).get(name) if snap else None
    return h[field] if h else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(result, untraced, traced):
    layers = dict(result["layers"])
    phase = result["traced"]
    snaps = load_snapshots(phase["snapshots"])
    servers = snaps["servers"]
    router = snaps["router"]
    points = phase["total_points"]

    layers["core.ksky.scans_per_point"] = ratio(counter(servers, "ksky/scans"), points)
    sky_n = sum(hist(s, "ksky/skyband_size", "count") for s in servers)
    sky_sum = sum(hist(s, "ksky/skyband_size", "sum") for s in servers)
    layers["core.ksky.skyband_mean"] = ratio(sky_sum, sky_n)
    layers["core.lsky.evictions_per_point"] = ratio(counter(servers, "lsky/evictions"), points)
    layers["core.sop.safe_points_per_point"] = ratio(
        counter(servers, "sop/safe_points_discovered"), points)
    calls = counter(servers, "kernel/batches")
    cands = counter(servers, "kernel/candidates")
    layers["kernel.calls_per_point"] = ratio(calls, points)
    layers["kernel.candidates_per_call"] = ratio(cands, calls)
    layers["kernel.hit_ratio"] = ratio(counter(servers, "kernel/hits"), cands)

    advance = [hist(s, "net/server/advance_ms", "p50") for s in servers]
    layers["net.server.advance_ms_p50"] = statistics.median(advance)
    layers["net.server.bytes_per_point"] = ratio(
        counter(servers, "net/server/bytes_in") + counter(servers, "net/server/bytes_out"),
        points)
    layers["net.serving_ms_p50"] = (traced["batch_p50_ms"]
                                    - layers["core.session.advance_ms_p50"])

    # Router layers: 0 where no router is on the path; one serving instance
    # is its own slowest worker and carries all the points.
    layers["cluster.route.batch_ms_p50"] = hist(router, "cluster/route/batch_ms", "p50")
    layers["cluster.merge.merge_ms_p50"] = hist(router, "cluster/merge/merge_ms", "p50")
    shard_points = [v for k, v in (router or {}).get("counters", {}).items()
                    if k.startswith("cluster/worker/") and k.endswith("/points")]
    layers["cluster.shard_points_max_over_mean"] = (
        ratio(max(shard_points), statistics.mean(shard_points)) if shard_points else 1.0)
    layers["cluster.worker.advance_ms_p50_max"] = max(advance)

    def pct(worse, better):
        return (worse / better - 1.0) * 100.0 if better else 0.0

    layers["trace.overhead.batch_p50_pct"] = pct(traced["batch_p50_ms"], untraced["batch_p50_ms"])
    layers["trace.overhead.batch_p95_pct"] = pct(traced["batch_p95_ms"], untraced["batch_p95_ms"])
    layers["trace.overhead.change_p50_pct"] = pct(traced["change_p50_ms"], untraced["change_p50_ms"])
    layers["trace.overhead.ingest_pps_pct"] = pct(untraced["ingest_pps"], traced["ingest_pps"])
    layers["trace.overhead.cpu_us_per_point_pct"] = pct(traced["cpu_us_per_point"],
                                                        untraced["cpu_us_per_point"])
    return layers


def diagnostics(name, phase):
    serving_ratio = phase["serving_cpu_s"] / phase["wall_s"]
    print(f"[{name}] attempted {phase['attempted']} operations, failed {phase['failed']}; "
          f"{phase['timed_batches']} batches, {phase['changes']} changes, "
          f"{phase['timed_points']} points in {phase['wall_s']:.3f} s")
    print(f"[{name}] samples: setup_s n={len(phase['setup_s'])}, "
          f"batch_p50_ms/batch_p95_ms n={len(phase['batch_ms'])}, "
          f"change_p50_ms n={len(phase['change_ms'])}")
    print(f"[{name}] host steal share {phase['steal_share']:.4f}, "
          f"serving CPU / wall {serving_ratio:.3f}")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-outlier", action="store_true")
    ap.add_argument("--single-server", action="store_true")
    ap.add_argument("--cpus", type=int, default=1,
                    help="CPUs the load generator and the serving processes may use")
    args = ap.parse_args()

    if not build():
        return 2
    run_dir = os.path.join(ROOT, ".bench_build", "run_" + args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(BUILD, "servebench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BUILD, "--run-dir", run_dir]
    if args.plant_wrong_outlier:
        cmd.append("--plant-wrong-outlier")
    if args.single_server:
        cmd.append("--single-server")
    # The load generator and every serving process it spawns inherit this
    # CPU set: by default the one CPU other tenants use least (README.md).
    cpus = idlest_cpus(args.cpus)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=RUN_DEADLINE_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        log("load generator timed out")
        return 2
    result_path = os.path.join(run_dir, "result.json")
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        log(f"load generator failed with exit code {proc.returncode}")
        return 2
    with open(result_path) as f:
        result = json.load(f)

    checks = result["checks"]
    phases = [("untraced", result["untraced"])]
    if args.trace:
        phases.append(("traced", result["traced"]))
    for name, phase in phases:
        diagnostics(name, phase)
        for problem in phase["problems"]:
            print(f"[{name}] problem: {problem}")
    print(f"oracle: {checks['oracle_checked']} sampled emissions "
          f"({checks['oracle_readd_checked']} first emissions of re-added queries, "
          f"{checks['oracle_outliers']} outliers) checked by brute force, "
          f"{checks['oracle_mismatches']} mismatches; "
          f"{checks['violations']} property violations")
    for msg in checks["violation_examples"] + checks["oracle_messages"]:
        print("check failed: " + msg)
    print(f"kernel backend {result['kernel_backend']}; CPUs {cpus}; load generator wall "
          f"{time.monotonic() - started:.1f} s")

    correct = (proc.returncode == 0 and checks["violations"] == 0
               and checks["oracle_mismatches"] == 0 and checks["oracle_checked"] > 0
               and checks["oracle_readd_checked"] > 0 and checks["oracle_outliers"] > 0
               and all(not p["problems"] for _, p in phases))
    untraced = end_to_end(result["untraced"])
    if args.trace:
        traced = end_to_end(result["traced"])
        values = per_layer(result, untraced, traced)
        for name, n in sorted(result["layer_samples"].items()):
            print(f"layer sample count {name} n={n}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted = sum(p["attempted"] for _, p in phases)
    failed = sum(p["failed"] for _, p in phases)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
