#!/usr/bin/env python3
"""NADINO simulator benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/ unchanged) into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload's harness
process back to back for about --seconds, one single-threaded process per
repetition, all with the same seed. Every repetition must produce the same
simulated results and registry digest; host-time metrics are medians over the
repetitions. --trace 0 reports the end-to-end metrics from untraced
repetitions. --trace 1 alternates untraced and traced repetitions and reports
the per-layer metrics; the traced ones must match the untraced ones exactly.
The last line of stdout is the JSON result; the exit code is 0 only when
every output check passed. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("boutique", "ingress_4k", "openloop_64", "churn")
MIN_REPS = 3
REP_TIMEOUT_S = 120

# (name, unit, source): "host" metrics are host wall-clock measurements,
# "sim" metrics are simulated (virtual-time) outputs of the model.
END_TO_END = [
    ("host_req_per_s", "1/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("sim_goodput_rps", "1/s", "sim"),
    ("sim_lat_p50_us", "us", "sim"),
    ("sim_lat_p99_us", "us", "sim"),
    ("ok_frac", "ratio", "sim"),
    ("sim_ttfb_p90_us", "us", "sim"),
]

# Traced boundaries (trace_wrap.cc names) summed into each per-layer metric.
COMPOSITE_SELF_MS = {
    "sim.fifo_submit_self_ms": ["FifoResource::Submit"],
    "sim.link_transfer_self_ms": ["Link::Transfer"],
    "mem.checksum_self_ms": ["Checksum"],
    "runtime.write_message_self_ms": ["WriteMessage"],
    "dne.self_ms": ["NetworkEngine::SendFromFunction"],
    "dpu.comch_self_ms": ["ComchServer::SendToDpu", "ComchServer::SendToHost"],
    "rdma.post_send_self_ms": ["RdmaEngine::PostSend"],
    "rdma.fabric_send_self_ms": ["Fabric::Send"],
    "rdma.connsvc_acquire_self_ms": ["ConnectionService::Acquire"],
    "transport.http_parse_self_ms": ["HttpCodec::ParseRequest"],
}
COMPOSITE_CALLS = {
    "sim.fifo_submit_calls": ["FifoResource::Submit"],
    "mem.checksum_calls": ["Checksum"],
    "runtime.read_message_calls": ["ReadMessage"],
    "runtime.rewrite_header_calls": ["RewriteHeader"],
    "dne.send_from_function_calls": ["NetworkEngine::SendFromFunction"],
    "dpu.comch_sends": ["ComchServer::SendToDpu", "ComchServer::SendToHost"],
    "rdma.post_send_calls": ["RdmaEngine::PostSend"],
    "rdma.connsvc_acquire_calls": ["ConnectionService::Acquire"],
    "ingress.submit_calls": ["IngressGateway::SubmitRequest"],
    "transport.http_parse_calls": ["HttpCodec::ParseRequest"],
}
# Modeled per-layer values the harness reads from the run itself.
MODELED_UNITS = {
    "sim.events": "count",
    "sim.slab_slots": "count",
    "mem.pool_get_failures": "count",
    "openloop.shed_frac": "ratio",
    "openloop.in_flight_peak": "count",
    "dne.dpu_cores": "cores",
    "dne.host_cores": "cores",
    "dne.drops": "count",
    "rdma.qp_cache_miss_frac": "ratio",
    "rdma.rnr_events": "count",
    "rdma.setup_verbs": "count",
    "rdma.verbs_per_invocation": "ratio",
    "ingress.http_errors": "count",
}
# Fields every repetition of one workload and seed must reproduce exactly.
DETERMINISTIC = ("host_requests", "attempted", "completed", "failed", "refused",
                 "registry_digest", "sim", "layer")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures (once) and builds the harness binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ tree next to perfbench/: nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + list(targets))
        for step in steps:
            result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                    text=True)
            if result.returncode != 0:
                log(result.stdout[-4000:])
                raise RuntimeError("build step failed: " + " ".join(step))
    return {t: os.path.join(out, t) for t in targets}


def run_rep(binary, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            timeout=REP_TIMEOUT_S)
    if result.returncode != 0:
        log(result.stderr[-4000:])
        raise RuntimeError("harness failed: " + " ".join(cmd))
    return json.loads(result.stdout.strip().splitlines()[-1])


def run_reps(binaries, workload, seed, seconds, with_traced):
    """Back-to-back repetitions for about `seconds`; with_traced alternates
    untraced (binaries[0]) and traced (binaries[1]) repetitions."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while len(plain) < MIN_REPS or time.monotonic() < deadline:
        plain.append(run_rep(binaries[0], workload, seed, False))
        if with_traced:
            traced.append(run_rep(binaries[1], workload, seed, True))
    return plain, traced


def check_reps(plain, traced):
    """Output checks plus the determinism and observation-only contracts."""
    problems = []
    for rep in plain + traced:
        problems += [v for v in rep["violations"] if v not in problems]
    reference = plain[0]
    for name, reps in (("untraced", plain[1:]), ("traced", traced)):
        for rep in reps:
            diff = [k for k in DETERMINISTIC if rep[k] != reference[k]]
            if diff:
                problems.append("%s repetition differs from the first untraced one in %s"
                                % (name, ", ".join(diff)))
                break
    return problems


def end_to_end_metrics(plain):
    first = plain[0]
    values = {
        "host_req_per_s": median([r["host_requests"] / r["run_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    for name in ("sim_goodput_rps", "sim_lat_p50_us", "sim_lat_p99_us", "ok_frac",
                 "sim_ttfb_p90_us"):
        values[name] = first["sim"][name]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(plain, traced):
    first = traced[0]

    def self_ms(boundaries):
        return median([sum(r["trace"][b]["self_ns"] for b in boundaries) / 1e6 for r in traced])

    def calls(boundaries):
        return sum(first["trace"][b]["calls"] for b in boundaries)

    plain_run_s = median([r["run_s"] for r in plain])
    traced_run_s = median([r["run_s"] for r in traced])
    metrics = {}
    for name, boundaries in COMPOSITE_SELF_MS.items():
        metrics[name] = (self_ms(boundaries), "ms")
    for name, boundaries in COMPOSITE_CALLS.items():
        metrics[name] = (calls(boundaries), "count")
    for name, unit in MODELED_UNITS.items():
        metrics[name] = (first["layer"][name], unit)
    writes = first["trace"]["WriteMessage"]["calls"]
    metrics["mem.checksum_bytes"] = (first["trace"]["Checksum"]["bytes"], "B")
    metrics["runtime.reads_per_write"] = (
        first["trace"]["ReadMessage"]["calls"] / writes if writes else 0.0, "ratio")
    metrics["sim.residual_self_ms"] = (self_ms(["Simulator::RunUntil"]), "ms")
    metrics["sim.host_ns_per_event"] = (plain_run_s * 1e9 / first["layer"]["sim.events"], "ns")
    metrics["e2e.lat_samples"] = (first["sim"]["lat_samples"], "count")
    metrics["e2e.ttfb_samples"] = (first["sim"]["ttfb_samples"], "count")
    metrics["trace.overhead_frac"] = (traced_run_s / plain_run_s - 1.0, "ratio")
    metrics["trace.unattributed_frac"] = (
        median([r["trace"]["Simulator::RunUntil"]["self_ns"] / 1e9 / r["run_s"] for r in traced]),
        "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def print_table(metrics, kinds, workload, seed, reps, digest):
    print("perfbench %s seed=%d: %s; registry digest %s" % (workload, seed, reps, digest))
    for name, m in metrics.items():
        print("  %-32s %20.6f %-6s %s" % (name, m["value"], m["unit"], kinds.get(name, "")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binaries = build(["perfbench_plain", "perfbench_traced"])
        plain, traced = run_reps([binaries["perfbench_plain"], binaries["perfbench_traced"]],
                                 args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        log("perfbench: %s" % error)
        return 2

    problems = check_reps(plain, traced)
    first = plain[0]
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        kinds = {}
        reps = "%d untraced + %d traced repetitions" % (len(plain), len(traced))
    else:
        metrics = end_to_end_metrics(plain)
        kinds = {}
        for name, _, source in END_TO_END:
            samples = ("lat_samples" if "_lat_" in name
                       else "ttfb_samples" if "ttfb" in name else None)
            kinds[name] = source + (" (n=%d)" % first["sim"][samples] if samples else "")
        reps = "%d untraced repetitions" % len(plain)
    print_table(metrics, kinds, args.workload, args.seed, reps, first["registry_digest"])
    for problem in problems:
        print("  CHECK FAILED: %s" % problem)
    print(json.dumps({"correct": not problems, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
