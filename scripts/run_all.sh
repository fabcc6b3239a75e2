#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# table/figure plus the extension studies.
#
#   scripts/run_all.sh [--full]
#
# --full runs the benches at the paper's full scale (ALPS_BENCH_FULL=1);
# outputs land in test_output.txt and bench_output.txt at the repo root, plus
# one BENCH_<name>.json per registry experiment.
#
# Registry experiments are enumerated from `alps-sweep --list` (the harness
# registry), not a hard-coded list, so a newly registered experiment can't be
# silently skipped. The standalone bench binaries (tables and extension
# studies not registered with the harness) then run directly.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
  FULL=1
fi

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

SWEEP=build/tools/alps-sweep
SWEEP_FLAGS=()
if [[ "$FULL" == "1" ]]; then
  SWEEP_FLAGS+=(--full)
fi

{
  # Every experiment in the harness registry, via the sweep CLI (emits
  # BENCH_<name>.json next to the text output).
  "$SWEEP" --list | sed 's/ — .*//' | while read -r exp; do
    [[ -n "$exp" ]] || continue
    echo
    echo "=== registry experiment: $exp ==="
    "$SWEEP" --experiment "$exp" --out . "${SWEEP_FLAGS[@]}"
  done

  # Standalone benches that are not registry-backed.
  for b in build/bench/*; do
    [[ -x "$b" && -f "$b" ]] || continue
    name=$(basename "$b")
    echo
    echo "=== standalone bench: $name ==="
    ALPS_BENCH_FULL=$FULL "$b"
  done
} 2>&1 | tee bench_output.txt

echo
echo "done: test_output.txt, bench_output.txt, BENCH_*.json"
