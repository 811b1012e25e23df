#!/usr/bin/env python3
"""Sensitivity self-test: does the benchmark see a known slowdown, in the
right layer, on the right workload?

    python3 perfbench/selftest.py [--seed N] [--seconds S]

perfbench_spin is the traced harness with a host delay of
PERFBENCH_SPIN_NS_PER_KIB nanoseconds per KiB hashed injected into every
Checksum call (see CMakeLists.txt and trace_wrap.cc). Against
perfbench_traced (same wrappers, no delay) it checks that
  1. mem.checksum_self_ms rises by about checksum_bytes x the delay per byte
     (within 30 %, plus up to 50 ns per call for entering the spin);
  2. host_req_per_s on ingress_4k (payload-heavy) worsens by more than the
     bound BENCHMARK.json gives it;
  3. host_req_per_s on openloop_64 (64 B payloads) moves by much less, and
     stays within that bound;
  4. every modeled output (sim_*, ok_frac, layer counts, registry digest) is
     bit-identical.
End-to-end comparisons alternate the two binaries with tracing off; the
attribution comparison uses traced runs. Exit code 0 when all four hold.
"""

import argparse
import json
import os
import re
import statistics
import sys
import time

import run

PAYLOAD_HEAVY = "ingress_4k"
PAYLOAD_LIGHT = "openloop_64"
SPIN_ENTRY_MS = 50e-6  # 50 ns


def spin_ns_per_byte():
    with open(os.path.join(run.HERE, "CMakeLists.txt")) as f:
        match = re.search(r"PERFBENCH_SPIN_NS_PER_KIB=(\d+)", f.read())
    return int(match.group(1)) / 1024.0


def host_req_per_s(rep):
    return rep["host_requests"] / rep["run_s"]


def measure(binaries, workload, seed, seconds):
    """Alternating untraced repetitions of base and spin, then traced ones."""
    reps = {"base": [], "spin": [], "base_traced": [], "spin_traced": []}
    deadline = time.monotonic() + seconds
    while len(reps["base"]) < run.MIN_REPS or time.monotonic() < deadline:
        for name in ("base", "spin"):
            reps[name].append(run.run_rep(binaries[name], workload, seed, False))
    for _ in range(run.MIN_REPS):
        for name in ("base", "spin"):
            reps[name + "_traced"].append(run.run_rep(binaries[name], workload, seed, True))
    return reps


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "host_req_per_s")
    built = run.build(["perfbench_traced", "perfbench_spin"])
    binaries = {"base": built["perfbench_traced"], "spin": built["perfbench_spin"]}
    per_byte = spin_ns_per_byte()

    failures = []
    slowdown = {}
    for workload in (PAYLOAD_HEAVY, PAYLOAD_LIGHT):
        reps = measure(binaries, workload, args.seed, args.seconds)
        base = statistics.median(host_req_per_s(r) for r in reps["base"])
        spin = statistics.median(host_req_per_s(r) for r in reps["spin"])
        slowdown[workload] = 1.0 - spin / base
        traced = reps["base_traced"][0]["trace"]["Checksum"]
        base_ms = statistics.median(r["trace"]["Checksum"]["self_ns"] / 1e6
                                    for r in reps["base_traced"])
        spin_ms = statistics.median(r["trace"]["Checksum"]["self_ns"] / 1e6
                                    for r in reps["spin_traced"])
        expected_ms = traced["bytes"] * per_byte / 1e6
        print("%s: host_req_per_s %.1f -> %.1f (%.1f%% worse, %d+%d untraced reps); "
              "mem.checksum_self_ms %.1f -> %.1f (+%.1f, expected +%.1f = %d B x %.2f ns/B "
              "over %d calls)"
              % (workload, base, spin, 100 * slowdown[workload], len(reps["base"]),
                 len(reps["spin"]), base_ms, spin_ms, spin_ms - base_ms, expected_ms,
                 traced["bytes"], per_byte, traced["calls"]))
        # Entering and leaving the spin costs a few tens of ns per call on top
        # of the modeled delay, which matters only for small buffers.
        allowed_ms = 1.3 * expected_ms + traced["calls"] * SPIN_ENTRY_MS
        if not 0.7 * expected_ms <= spin_ms - base_ms <= allowed_ms:
            failures.append("%s: Checksum self time rose by %.1f ms, expected about %.1f"
                            % (workload, spin_ms - base_ms, expected_ms))
        reference = reps["base"][0]
        for rep in reps["spin"] + reps["base_traced"] + reps["spin_traced"]:
            diff = [k for k in run.DETERMINISTIC if rep[k] != reference[k]]
            if diff:
                failures.append("%s: modeled outputs changed (%s)" % (workload, ", ".join(diff)))
                break

    if slowdown[PAYLOAD_HEAVY] <= bound:
        failures.append("%s slowed by %.1f%%, not beyond the %.0f%% bound"
                        % (PAYLOAD_HEAVY, 100 * slowdown[PAYLOAD_HEAVY], 100 * bound))
    if slowdown[PAYLOAD_LIGHT] >= bound or slowdown[PAYLOAD_LIGHT] >= slowdown[PAYLOAD_HEAVY] / 2:
        failures.append("%s slowed by %.1f%%: not much less than %s, or beyond the bound"
                        % (PAYLOAD_LIGHT, 100 * slowdown[PAYLOAD_LIGHT], PAYLOAD_HEAVY))
    for failure in failures:
        print("FAILED: " + failure)
    print("sensitivity self-test %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
