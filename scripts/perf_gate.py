#!/usr/bin/env python3
"""Median-of-N wall-clock gate over repeated bench/simperf runs.

    scripts/perf_gate.py BASELINE THRESHOLD RUN.json [RUN.json ...]

Each RUN.json is the BENCH_simperf.json of one simperf run. The gate takes
the median of every metric over the runs and fails (exit 1) when the median
idle or fig13 events/sec is below the baseline's value / THRESHOLD. When the
median fig13 events/sec beats the baseline's, the fig13_* entries of BASELINE
are raised to the medians; the baseline never moves down. Prints one
TRAJECTORY_JSON record of the medians for scripts/check.sh's perf history.
Exit 2 on unreadable input or a baseline without the gated keys.
"""

import json
import statistics
import sys

GATED = ("idle_events_per_sec", "fig13_events_per_sec")
RATCHET_KEY = "fig13_events_per_sec"
# The baseline entries a win raises, with the decimals each is stored with.
RATCHETED = {"fig13_events_per_sec": 0, "fig13_wall_ms": 1, "fig13_sim_events": 0}


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, threshold, run_paths = argv[1], float(argv[2]), argv[3:]
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        runs = []
        for path in run_paths:
            with open(path) as f:
                runs.append(json.load(f))
    except (OSError, ValueError) as err:
        print("perf gate: %s" % err, file=sys.stderr)
        return 2
    medians = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    print("TRAJECTORY_JSON " + json.dumps(
        {"bench": "simperf", "runs": len(runs),
         **{key: round(value, 2) for key, value in medians.items()}}))

    status = 0
    for key in GATED:
        base = baseline.get(key, 0)
        if base <= 0:
            print("perf gate: baseline missing %s" % key, file=sys.stderr)
            return 2
        floor = base / threshold
        if medians[key] < floor:
            print("perf gate: REGRESSION %s median of %d = %.0f < floor %.0f "
                  "(baseline %.0f / %.1fx)" % (key, len(runs), medians[key], floor, base,
                                                threshold), file=sys.stderr)
            status = 1
        else:
            print("perf gate: %s median of %d ok (%.0f >= %.0f)"
                  % (key, len(runs), medians[key], floor))

    if status == 0 and medians[RATCHET_KEY] > baseline[RATCHET_KEY]:
        for key, digits in RATCHETED.items():
            baseline[key] = round(medians[key], digits) if digits else round(medians[key])
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print("perf gate: ratcheted %s fig13_* up to the medians (commit it to keep)"
              % baseline_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
