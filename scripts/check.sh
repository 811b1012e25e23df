#!/usr/bin/env bash
# Configure, build, and run the full test suite, optionally followed by the
# bench regression gate. One command for CI and for a pre-commit sanity pass.
#
# Usage:
#   scripts/check.sh                   # Release build, all tests
#   scripts/check.sh address           # AddressSanitizer build (Debug)
#   scripts/check.sh undefined         # UBSan build (Debug)
#   scripts/check.sh --bench-diff      # ...then run the golden bench set
#                                      # and diff their BENCH_<name>.json
#                                      # artifacts against bench/goldens/;
#                                      # any drift fails the check
#   scripts/check.sh --update-goldens  # rerun the benches and rewrite
#                                      # bench/goldens/ (after an intentional
#                                      # model change; review the diff!)
#   scripts/check.sh --perf            # ...then run bench/simperf 5 times
#                                      # and gate the median wall-clock
#                                      # events/sec against
#                                      # bench/perf_baseline.json (fails on a
#                                      # >2x regression, raises its fig13_*
#                                      # entries after a win; see DESIGN.md
#                                      # §3c), then gate 16-node sharded admission
#                                      # against the single heap (§3g) and
#                                      # append both runs' TRAJECTORY_JSON
#                                      # records to
#                                      # bench/BENCH_perf_trajectory.json
#
# The sanitizer can also be selected via the environment:
#   NADINO_SANITIZE=address scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${NADINO_SANITIZE:-}"
BENCH_DIFF=0
UPDATE_GOLDENS=0
PERF_GATE=0
for arg in "$@"; do
  case "${arg}" in
    address|undefined) SANITIZER="${arg}" ;;
    --bench-diff) BENCH_DIFF=1 ;;
    --update-goldens)
      BENCH_DIFF=1
      UPDATE_GOLDENS=1
      ;;
    --perf) PERF_GATE=1 ;;
    *)
      echo "usage: $0 [address|undefined] [--bench-diff|--update-goldens] [--perf]" >&2
      exit 2
      ;;
  esac
done

BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "${SANITIZER}" ]]; then
  case "${SANITIZER}" in
    address|undefined) ;;
    *)
      echo "NADINO_SANITIZE must be 'address' or 'undefined', got '${SANITIZER}'" >&2
      exit 2
      ;;
  esac
  BUILD_DIR="build-${SANITIZER}"
  CMAKE_ARGS+=("-DNADINO_SANITIZE=${SANITIZER}" "-DCMAKE_BUILD_TYPE=Debug")
fi

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure

# --- Wall-clock perf gate ----------------------------------------------------
# Unlike the golden diffs below, events/sec is machine-dependent, so the gate
# has a generous threshold and looks at the median of PERF_RUNS simperf runs:
# it fails only when the median drops below baseline/2 (a real hot-path
# regression, not scheduler jitter), and raises the baseline's fig13_*
# entries when the median beats them (scripts/perf_gate.py). Never lowered.
# BENCH_simperf.json is NOT golden-diffed.
if [[ "${PERF_GATE}" -eq 1 ]]; then
  ROOT_DIR="$(pwd)"
  PERF_LOG="$(mktemp)"
  PERF_RUNS=5
  PERF_SAMPLES="$(mktemp -d)"
  for run in $(seq "${PERF_RUNS}"); do
    echo "perf: bench/simperf run ${run}/${PERF_RUNS}..."
    PERF_RUN_DIR="$(mktemp -d)"
    (cd "${PERF_RUN_DIR}" && "${ROOT_DIR}/${BUILD_DIR}/bench/simperf")
    mv "${PERF_RUN_DIR}/BENCH_simperf.json" "${PERF_SAMPLES}/run${run}.json"
    rm -rf "${PERF_RUN_DIR}"
  done
  PERF_STATUS=0
  python3 scripts/perf_gate.py bench/perf_baseline.json 2.0 "${PERF_SAMPLES}"/run*.json \
    | tee -a "${PERF_LOG}" || PERF_STATUS=$?
  rm -rf "${PERF_SAMPLES}"
  if [[ "${PERF_STATUS}" -ne 0 ]]; then
    echo "perf: FAILED (see output above)" >&2
    exit "${PERF_STATUS}"
  fi
  # Sharded-admission gate (DESIGN.md §3g): 16-node bulk admission must beat
  # the single-heap baseline. Same wall-clock caveats as simperf above.
  PERF_RUN_DIR="$(mktemp -d)"
  echo "perf: running bench/openloop_scale --perf-compare..."
  PERF_STATUS=0
  (cd "${PERF_RUN_DIR}" &&
   "${ROOT_DIR}/${BUILD_DIR}/bench/openloop_scale" --perf-compare) \
    | tee -a "${PERF_LOG}" || PERF_STATUS=$?
  rm -rf "${PERF_RUN_DIR}"
  if [[ "${PERF_STATUS}" -ne 0 ]]; then
    echo "perf: FAILED (see output above)" >&2
    exit "${PERF_STATUS}"
  fi
  # Consolidate every TRAJECTORY_JSON record the benches printed into one
  # JSONL line per --perf run: bench/BENCH_perf_trajectory.json grows into
  # the machine-local perf history (wall-clock numbers; never golden-diffed).
  TRAJECTORY_FILE=bench/BENCH_perf_trajectory.json
  RECORDS="$(grep '^TRAJECTORY_JSON ' "${PERF_LOG}" | sed 's/^TRAJECTORY_JSON //' | paste -sd, -)"
  rm -f "${PERF_LOG}"
  if [[ -n "${RECORDS}" ]]; then
    printf '{"date": "%s", "git": "%s", "records": [%s]}\n' \
      "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
      "${RECORDS}" >> "${TRAJECTORY_FILE}"
    echo "perf: appended perf record line to ${TRAJECTORY_FILE}"
  fi
fi

if [[ "${BENCH_DIFF}" -eq 0 ]]; then
  exit 0
fi

# --- Bench regression gate ---------------------------------------------------
# The simulator is deterministic, so the metrics snapshots these benches emit
# are byte-stable across runs and machines. Goldens under bench/goldens/ pin
# them; unintended drift in calibrated costs, scheduling, or metric plumbing
# shows up here as a diff.
GOLDEN_DIR=bench/goldens
GOLDEN_BENCHES=(chain_offload fig06_isolation_cost fig09_comch fig11_offpath_onpath
                fig12_rdma_primitives fig13_ingress fig14_ingress_scaling fig15_multitenancy
                fig16_boutique node_scale openloop_scale tenant_churn)
GOLDEN_ARTIFACTS=(BENCH_chain_offload.json BENCH_fig06_dne_4096.json BENCH_fig09_comch_e6.json
                  BENCH_fig11_offpath_c8.json BENCH_fig12_twosided_4096.json
                  BENCH_fig13_nadino_c16.json BENCH_fig14_nadino_ramp.json BENCH_fig15_dwrr.json
                  BENCH_fig15_fcfs.json BENCH_fig16_dne_home.json BENCH_node_scale_16.json
                  BENCH_openloop_scale.json BENCH_tenant_churn.json)

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "${RUN_DIR}"' EXIT
ROOT_DIR="$(pwd)"
# Wall time per golden bench and for the whole suite: the suite total is the
# repo's end-to-end simulator-cost number (ROADMAP aim 1).
SUITE_START="${EPOCHREALTIME}"
for bench in "${GOLDEN_BENCHES[@]}"; do
  echo "bench-diff: running ${bench}..."
  BENCH_START="${EPOCHREALTIME}"
  (cd "${RUN_DIR}" && "${ROOT_DIR}/${BUILD_DIR}/bench/${bench}" > "${bench}.out")
  awk -v b="${bench}" -v s="${BENCH_START}" -v e="${EPOCHREALTIME}" \
    'BEGIN { printf "bench-diff: %s wall %.1f s\n", b, e - s }'
done
awk -v s="${SUITE_START}" -v e="${EPOCHREALTIME}" \
  'BEGIN { printf "bench-diff: golden suite wall %.1f s\n", e - s }'

if [[ "${UPDATE_GOLDENS}" -eq 1 ]]; then
  mkdir -p "${GOLDEN_DIR}"
  for artifact in "${GOLDEN_ARTIFACTS[@]}"; do
    cp "${RUN_DIR}/${artifact}" "${GOLDEN_DIR}/${artifact}"
    echo "bench-diff: updated ${GOLDEN_DIR}/${artifact}"
  done
  exit 0
fi

STATUS=0
for artifact in "${GOLDEN_ARTIFACTS[@]}"; do
  if [[ ! -f "${GOLDEN_DIR}/${artifact}" ]]; then
    echo "bench-diff: MISSING golden ${GOLDEN_DIR}/${artifact}" >&2
    echo "bench-diff: run scripts/check.sh --update-goldens to create it" >&2
    STATUS=1
    continue
  fi
  if ! diff -u "${GOLDEN_DIR}/${artifact}" "${RUN_DIR}/${artifact}"; then
    echo "bench-diff: DRIFT in ${artifact} (see diff above)" >&2
    echo "bench-diff: intentional? rerun with --update-goldens and commit" >&2
    STATUS=1
  else
    echo "bench-diff: ${artifact} matches golden"
  fi
done
exit "${STATUS}"
