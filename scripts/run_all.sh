#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# table/figure plus the extension studies.
#
#   scripts/run_all.sh [--full]
#
# --full runs the experiments at the paper's full scale (alps-sweep --full);
# outputs land in test_output.txt and bench_output.txt at the repo root, plus
# one BENCH_<name>.json per registry experiment.
#
# Registry experiments are enumerated from `alps-sweep --list` (the harness
# registry), not a hard-coded list, so a newly registered experiment can't be
# silently skipped. Table 1 (bench_table1_ops, real-host timings) runs last.
# The build reuses an existing build/ tree with whatever generator made it.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP_FLAGS=()
if [[ "${1:-}" == "--full" ]]; then
  SWEEP_FLAGS+=(--full)
fi

cmake -B build
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

SWEEP=build/tools/alps-sweep

{
  # Every experiment in the harness registry, via the sweep CLI (emits
  # BENCH_<name>.json next to the text output).
  "$SWEEP" --list | sed 's/ — .*//' | while read -r exp; do
    [[ -n "$exp" ]] || continue
    echo
    echo "=== registry experiment: $exp ==="
    "$SWEEP" --experiment "$exp" --out . "${SWEEP_FLAGS[@]}"
  done

  # Table 1 times the real host's operations; not a simulated experiment.
  echo
  echo "=== Table 1: bench_table1_ops ==="
  build/bench/bench_table1_ops
} 2>&1 | tee bench_output.txt

echo
echo "done: test_output.txt, bench_output.txt, BENCH_*.json"
