#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the adaptive gossip simulator and
its UDP runtime.

Usage (from the repository root):

    python3 layerbench/run.py                      # every workload, end-to-end
    python3 layerbench/run.py --workload sim-10k --seed 7 --seconds 10 --trace 0
    python3 layerbench/run.py --workload sim-lossy --seed 7 --seconds 10 --trace 1

The script builds `layerbench/` (a Cargo package of its own that depends on
the repository's crates by path) and runs each workload in its own process.
`--trace 0` prints every end-to-end metric; `--trace 1` runs the traced
replay and prints every per-layer metric. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
failed output check makes `correct` false and the exit code 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["sim-10k", "sim-lossy", "rt-udp"]
SIM_WORKLOADS = ["sim-10k", "sim-lossy"]

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "node_rounds_per_s": "1/s",
    "cpu_us_per_delivery": "us",
    "admitted_per_s": "1/s",
    "atomic_frac": "frac",
    "avg_receiver_frac": "frac",
    "complete_ms.mean": "ms",
    "complete_ms.p95": "ms",
    "complete_ms.p99": "ms",
    "frames_per_delivery": "count",
    "messages": "count",
}

PER_LAYER = {
    "sim.self_ms_per_round": "ms",
    "sim.events_per_node_round": "count",
    "sim.peak_queue_depth": "count",
    "workload.self_us_per_node_round": "us",
    "membership.sample_us": "us",
    "membership.samples_per_node_round": "count",
    "membership.allocs_per_node_round": "count",
    "membership.view_kb_per_node": "KB",
    "core.on_round_us": "us",
    "core.on_receive_us": "us",
    "core.offer_us": "us",
    "core.drain_us": "us",
    "core.allocs_per_node_round": "count",
    "core.useful_frac": "frac",
    "core.drops_per_round": "count",
    "recovery.self_us_per_node_round": "us",
    "recovery.allocs_per_node_round": "count",
    "recovery.useful_frac": "frac",
    "recovery.cache_miss_frac": "frac",
    "recovery.control_frames_per_delivery": "count",
    "metrics.on_events_us_per_round": "us",
    "mem.estimate_kb_per_node": "KB",
    "mem.rss_kb_per_node": "KB",
    "alloc.per_node_round": "count",
    "codec.encode_ns_per_frame": "ns",
    "codec.decode_ns_per_frame": "ns",
    "codec.bytes_per_frame": "B",
    "runtime.bytes_sent_per_delivery": "B",
    "runtime.frames_sent_per_delivery": "count",
    "runtime.sheds": "count",
    "runtime.send_retries": "count",
    "runtime.decode_errors": "count",
    "runtime.offers_refused_frac": "frac",
    "runtime.loop_iter_ms.p50": "ms",
    "runtime.egress_dwell_ms.p99": "ms",
    "trace.node_rounds_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

# Per-layer figures the traced simulator run takes from the timed run of
# the same seed (they need no tracing, and the timed run's are untouched by
# the adapters).
FROM_TIMED_SIM = [
    "alloc.per_node_round",
    "mem.estimate_kb_per_node",
    "mem.rss_kb_per_node",
]

# Counts two same-seed simulator runs must agree on exactly.
SIM_COUNTS = ["checksum", "sends", "deliveries", "admitted", "app_deliveries"]

# Every process gets this long; the first run in a checkout also builds.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    pass


def build():
    """Builds the benchmark binary and returns its path."""
    for crate in ["core", "sim", "workload", "runtime", "recovery"]:
        manifest = os.path.join(REPO_ROOT, "crates", crate, "Cargo.toml")
        if not os.path.isfile(manifest):
            log(f"layerbench: {manifest} is missing; run from a full checkout")
            sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(REPO_ROOT, ".bench_build"))
    target = os.path.join(REPO_ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=REPO_ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        log("layerbench: build failed")
        sys.exit(2)
    return os.path.join(target, "release", "agb-layerbench"), target


def quiet_cpu():
    """Pins a workload process to the highest-numbered CPU it may use.

    The simulator runs on one thread. Left free, it migrates between CPUs,
    and CPU 0 takes the virtio device interrupts; on a 2-vCPU VM the two
    CPUs ran a fixed loop 20% apart, so migration alone moved round times
    by that much between runs. The runtime's node threads use about a
    fifth of one CPU together; on one CPU their wake-ups never cross to
    the other."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})


def run_bin(binary, mode, workload, seed, seconds, tiny, out_dir=None):
    """Runs one workload process and returns its parsed result object."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if tiny:
        cmd.append("--tiny")
    if out_dir:
        cmd += ["--out", out_dir]
    try:
        done = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=quiet_cpu)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{mode} {workload} seed {seed} timed out")
    if done.stderr.strip():
        log(done.stderr.rstrip())
    if done.returncode != 0:
        raise CheckFailed(f"{mode} {workload} seed {seed} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise CheckFailed(f"{mode} {workload} seed {seed} printed nothing")
    return json.loads(lines[-1])


def same_counts(a, b, keys):
    """Names of the counts in `keys` on which results `a` and `b` differ."""
    return [f"{k}: {a['counts'][k]} vs {b['counts'][k]}"
            for k in keys if a["counts"][k] != b["counts"][k]]


def spot_check(binary, workload, seed):
    """Tiny same-seed pair plus a second seed: runs must be reproducible,
    and the seed must reach the inputs."""
    first = run_bin(binary, "timed", workload, seed, 1, True)
    again = run_bin(binary, "timed", workload, seed, 1, True)
    other = run_bin(binary, "timed", workload, seed + 1, 1, True)
    diff = same_counts(first, again, SIM_COUNTS)
    if diff:
        raise CheckFailed(f"{workload}: same-seed tiny runs differ: {diff}")
    if first["counts"]["checksum"] == other["counts"]["checksum"]:
        raise CheckFailed(f"{workload}: seeds {seed} and {seed + 1} gave one checksum")


def check_metrics(values, names, where):
    for name in names:
        value = values.get(name)
        if value is None:
            raise CheckFailed(f"{where}: metric {name} missing")
        if not math.isfinite(value[0]):
            raise CheckFailed(f"{where}: metric {name} is not finite")


def timed_run(binary, workload, seed, seconds, tiny):
    """One timed process with its output checks: the spot check first on a
    simulator workload, then every end-to-end metric finite and above 0 and
    atomicity above the workload's floor."""
    if workload in SIM_WORKLOADS:
        spot_check(binary, workload, seed)
    res = run_bin(binary, "timed", workload, seed, seconds, tiny)
    metrics = res["metrics"]
    check_metrics(metrics, END_TO_END, workload)
    for name, (value, _) in metrics.items():
        if value <= 0:
            raise CheckFailed(f"{workload}: {name} is {value}, expected > 0")
    floor = res["counts"]["atomic_floor"]
    if metrics["atomic_frac"][0] < floor:
        raise CheckFailed(
            f"{workload}: atomic_frac {metrics['atomic_frac'][0]:.4f} below floor {floor}")
    return res


def traced_result(binary, workload, seed, seconds, tiny, out_dir):
    """The per-layer figures of one workload: a timed run, then the traced
    run of the same seed, whose deterministic counts must equal the timed
    run's (on the simulator the replay is a second same-seed run)."""
    timed = timed_run(binary, workload, seed, seconds, tiny)
    traced = run_bin(binary, "traced", workload, seed, seconds, tiny, out_dir)
    layers = dict(traced["layers"])
    if workload in SIM_WORKLOADS:
        diff = same_counts(timed, traced, SIM_COUNTS)
        if diff:
            raise CheckFailed(f"{workload}: traced replay differs from the timed run: {diff}")
        log(f"{workload}: the timed run and the traced replay agree on "
            + ", ".join(f"{k}={timed['counts'][k]}" for k in SIM_COUNTS))
        for name in FROM_TIMED_SIM:
            layers[name] = timed["layers"][name]
        log(f"{workload}: memory estimate {layers['mem.estimate_kb_per_node'][0]:.1f} KB/node"
            f" vs measured peak RSS {layers['mem.rss_kb_per_node'][0]:.1f} KB/node")
        base = timed["metrics"]["node_rounds_per_s"][0]
        layers["trace.overhead_frac"] = [1 - layers["trace.node_rounds_per_s"][0] / base, "frac"]
    else:
        base = timed["metrics"]["cpu_us_per_delivery"][0]
        cpu = traced["metrics"]["cpu_us_per_delivery"][0]
        layers["trace.overhead_frac"] = [cpu / base - 1, "frac"]
        log(f"{workload}: unmeasured runtime counters (readings not trusted as layer figures): "
            + ", ".join(f"{k} (reads {v})" for k, v in traced["unmeasured"].items()))
    missing = [n for n in PER_LAYER if n not in layers]
    for name in missing:
        layers[name] = [0.0, PER_LAYER[name]]
    if missing:
        log(f"{workload}: not measured on this workload, reported as 0: " + ", ".join(missing))
    check_metrics(layers, PER_LAYER, workload)
    return traced, {name: layers[name] for name in PER_LAYER}


def run_workload(binary, target, workload, seed, seconds, trace, tiny):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    names = PER_LAYER if trace else END_TO_END
    try:
        if trace:
            out_dir = os.path.join(target, "layerbench")
            res, metrics = traced_result(binary, workload, seed, seconds, tiny, out_dir)
        else:
            res = timed_run(binary, workload, seed, seconds, tiny)
            metrics = res["metrics"]
    except CheckFailed as e:
        log(f"CHECK FAILED: {e}")
        return False, 1, 1, {}
    for name in names:
        value, unit = metrics[name]
        print(f"{workload:10} {name:40} {value:16.6f} {unit}")
    counts = res["counts"]
    return True, counts["attempted"], counts["failed"], {n: metrics[n] for n in names}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args()
    binary, target = build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        ok, a, f, m = run_workload(binary, target, w, args.seed, args.seconds,
                                   args.trace, args.tiny)
        correct &= ok
        attempted += a
        failed += f
        for name, (value, unit) in m.items():
            key = name if len(workloads) == 1 else f"{w}/{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
