#!/usr/bin/env bash
# Tier-1 CI: configure, build, and run the ctest suite under three
# presets — the default RelWithDebInfo build, the ASan+UBSan build, and
# the TSan build (CMakePresets.json). The sanitizer presets compile with
# -fno-sanitize-recover=all, so any memory/UB/data-race defect fails the
# run; the tsan preset's test filter is the `threads|ingest` label
# regex — the worker-pool and hybrid-pipeline coverage that actually
# runs multiple threads per rank, plus the ingest lane, whose Level-1
# window reads run two-phase collectives across rank threads that share
# one storage model.
#
# After the preset loop a bounded soak lane re-runs the `soak`-labeled
# tests (randomized fault schedules, tests/test_fault_soak.cpp) with a
# wider draw than the in-suite default — MVIO_SOAK_SCHEDULES/MVIO_SOAK_SEED
# override the width and the generator seed. The asan preset runs the
# unit-labeled durable-codec fuzz tests (tests/test_codec_fuzz.cpp) as
# part of its full suite — including the WKB ingest record-stream lane
# (exhaustive single-bit flips + truncations over the framed stream).
# The bench-smoke label covers bench_ingest_formats, which hard-fails
# if the binary fast path loses its >= 2x parse-CPU edge over WKT, and
# bench_partition, which hard-fails if the adaptive cell maps stop
# cutting the max-rank load / migration bytes on skewed input, if any
# scheme changes the join result, or if the pilot cost model's predicted
# winner drifts from the measured one outside its noise band.
#
# The default preset also runs the obs lane (DESIGN.md §14): bench_overlap
# and bench_fig08_l0_allobjects re-run with the flight recorder on
# (MVIO_TRACE_OUT/MVIO_REPORT_OUT), scripts/check_bench.py validates the
# Perfetto trace and run-report JSON, and the perf-regression comparator
# gates the reports against the committed bench/baselines/*.json.
#
# Usage: scripts/ci.sh [preset...]   (default: "default asan tsan")
# Useful subsets once built: ctest -L recovery (every test that touches
# recovery/ or injects failures through failSchedule: test_recovery,
# test_fault_soak, test_format_ingest, test_adaptive_partition, test_obs,
# test_parallel_pipeline, test_codec_fuzz, and smoke_bench_recovery's
# replay checks — the subset to run under the asan preset) / -L mpi / -L threads /
# -L soak / -L obs / -L ingest (partitioned reads and their Level-1
# window collectives, per-format record boundaries and parallel parse:
# test_partition, test_format_ingest, test_parallel_pipeline,
# test_wkt_wkb, test_io).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
presets=("${@:-default}" )
if [[ $# -eq 0 ]]; then presets=(default asan tsan); fi

for preset in "${presets[@]}"; do
  echo "==> preset: ${preset}"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"
done

for preset in "${presets[@]}"; do
  if [[ "${preset}" == "default" ]]; then
    echo "==> soak lane: randomized fault schedules (preset: default)"
    MVIO_SOAK_SCHEDULES="${MVIO_SOAK_SCHEDULES:-16}" \
      ctest --preset default -L soak --output-on-failure

    echo "==> obs lane: flight-recorder traces, run reports, perf gate (preset: default)"
    obs_dir="$(mktemp -d)"
    trap 'rm -rf "${obs_dir}"' EXIT
    MVIO_TRACE_OUT="${obs_dir}/trace_overlap.json" \
      MVIO_REPORT_OUT="${obs_dir}/BENCH_overlap.json" \
      ./build/bench_overlap > "${obs_dir}/overlap.log"
    MVIO_TRACE_OUT="${obs_dir}/trace_fig08.json" \
      MVIO_REPORT_OUT="${obs_dir}/BENCH_fig08.json" \
      ./build/bench_fig08_l0_allobjects > "${obs_dir}/fig08.log"
    # bench_overlap's instrumented row streams with threads + overlap but
    # no memory pressure, so every framework phase except spill appears;
    # fig08's addendum traces its read → parse → partition → comm cascade.
    python3 scripts/check_bench.py validate-trace "${obs_dir}/trace_overlap.json" \
      --min-spans 100 --expect-phases read,parse,partition,comm,compute,round
    python3 scripts/check_bench.py validate-trace "${obs_dir}/trace_fig08.json" \
      --min-spans 64 --expect-phases read,parse,partition,comm
    python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_overlap.json"
    python3 scripts/check_bench.py validate-report "${obs_dir}/BENCH_fig08.json"
    python3 scripts/check_bench.py compare "${obs_dir}/BENCH_overlap.json" bench/baselines/overlap.json
    python3 scripts/check_bench.py compare "${obs_dir}/BENCH_fig08.json" bench/baselines/fig08.json
  fi
done
echo "==> tier-1 green under: ${presets[*]}"
