#!/usr/bin/env bash
# CI check: sanitizer builds + tier-1 tests.
#
#   scripts/check.sh [extra ctest args...]
#
# Two separate build trees (see the top-level CMakeLists' ALPS_SANITIZE):
#   build-tsan: ThreadSanitizer — the experiment harness's ThreadPool and
#     sweep runner must stay TSan-clean.
#   build-asan: AddressSanitizer + UndefinedBehaviorSanitizer — the fault-
#     injection and degradation paths do pointer-light but lifetime-heavy
#     work (entities dropped mid-tick, maps mutated during iteration bugs
#     would surface here), and the rest of the suite rides along.
# Pass extra ctest args to narrow the run, e.g.
# `scripts/check.sh -R 'ThreadPool|Sweep'` for just the concurrency tests.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# A wedged test (e.g. a scheduler that stops making progress under injected
# faults) should fail fast, not hang CI; sanitizers are slow, so be generous.
CTEST_TIMEOUT="${CTEST_TIMEOUT:-600}"

run_suite() { # <build-dir> <sanitize-value> [extra ctest args...]
  local dir="$1" san="$2"
  shift 2
  # Benches and examples are not test targets; skipping them keeps the
  # sanitizer builds (and CI) fast.
  cmake -B "$dir" -S . \
    -DALPS_SANITIZE="$san" \
    -DALPS_BUILD_BENCH=OFF \
    -DALPS_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
    --timeout "$CTEST_TIMEOUT" "$@"
}

# halt_on_error makes a data-race report fail the suite instead of only
# printing it; second_deadlock_stack improves lock-order reports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
run_suite build-tsan thread "$@"

# --- Many-core TSan smoke: per-CPU run queues under the race detector ---
# Runs the 64-core column of the many_core sweep (quick scale) in its own
# ThreadSanitizer tree (the main TSan tree builds with bench OFF): per-CPU
# domains, steal/rebalance migration, and the per-entity sample() reads all
# execute while the harness pool is genuinely parallel.
# ALPS_MANY_CORE_SKIP=1 skips the leg.
if [[ "${ALPS_MANY_CORE_SKIP:-0}" != "1" ]]; then
  cmake -B build-tsan-bench -S . \
    -DALPS_SANITIZE=thread \
    -DALPS_BUILD_BENCH=ON \
    -DALPS_BUILD_EXAMPLES=OFF
  cmake --build build-tsan-bench -j "$JOBS" --target alps-sweep
  build-tsan-bench/tools/alps-sweep --experiment many_core --ncpus 64 \
    --jobs 4 --quiet --no-json
fi

# --- web_scale smoke: the hosting sweep survives supervision + TSan ---
# The cell-scale web_scale grid (open-loop traffic, shared request table,
# one-global and one-per-core ALPS with pinned drivers) under --isolate:
# every point runs in a forked worker with a watchdog, exercising the
# supervisor on the newest experiment while TSan watches the harness pool.
# ALPS_WEB_SCALE_SKIP=1 skips the leg.
if [[ "${ALPS_WEB_SCALE_SKIP:-0}" != "1" ]]; then
  cmake -B build-tsan-bench -S . \
    -DALPS_SANITIZE=thread \
    -DALPS_BUILD_BENCH=ON \
    -DALPS_BUILD_EXAMPLES=OFF
  cmake --build build-tsan-bench -j "$JOBS" --target alps-sweep
  build-tsan-bench/tools/alps-sweep --experiment web_scale --sites 96 \
    --flash-crowd 8 --isolate --run-timeout 300 --jobs 4 --quiet --no-json
fi

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
run_suite build-asan address,undefined "$@"

# --- Release + LTO leg: the engine's tagged/devirtualized event dispatch and
# the arena's placement-new slabs are exactly the kind of code where
# link-time optimization licenses new assumptions (strict aliasing across
# TUs, devirtualization of the registered trampolines). Build the simulation
# tests with interprocedural optimization and run them, so LTO-only breakage
# fails CI instead of first appearing in a user's -flto build.
# ALPS_LTO_SKIP=1 skips the leg (e.g. toolchains without a working LTO
# plugin).
if [[ "${ALPS_LTO_SKIP:-0}" != "1" ]]; then
  cmake -B build-lto -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON \
    -DALPS_SANITIZE=OFF \
    -DALPS_BUILD_BENCH=OFF \
    -DALPS_BUILD_EXAMPLES=OFF
  cmake --build build-lto -j "$JOBS" --target test_sim test_os
  ctest --test-dir build-lto --output-on-failure -j "$JOBS" \
    --timeout "$CTEST_TIMEOUT" -R 'Engine|WheelDiff|Replay|Kernel'
fi

# --- Release perf smoke: the simulation substrate must not regress ---
# Runs the sim_perf experiment (engine schedule/cancel/fire churn, run-queue
# cycling, an end-to-end run) in a Release build and compares the engine's
# events/sec against the checked-in baseline BENCH_sim_perf.json. Best-of-N
# is compared (less scheduling-noise-prone than the mean); anything more than
# ALPS_PERF_TOLERANCE percent (default 20) below the baseline fails.
# ALPS_PERF_SKIP=1 skips the leg (e.g. on heavily loaded or throttled CI).
#
# The same leg also gates the telemetry subsystem:
#   - records a fig4 sweep to an .alpstrace and runs `alps-trace verify`
#     on it (the recorder, serializer, and semantic validator must agree
#     end-to-end on a real workload, every CI run);
#   - the sim_perf run above executes with tracing *disabled*, so its
#     events/sec doubles as the instrumentation-overhead probe: the
#     disabled-path cost of every telemetry::active() site must stay within
#     ALPS_TRACE_OVERHEAD_TOLERANCE percent (default 5) of the committed
#     baseline — much tighter than the general ALPS_PERF_TOLERANCE.
#
# The Release tree builds every target with -Werror: at -O3 GCC reports
# warnings (e.g. -Wrestrict) that the default build type does not, and a
# warning-clean Release build keeps real warnings from being buried.
if [[ "${ALPS_PERF_SKIP:-0}" != "1" ]]; then
  cmake -B build-perf -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DALPS_WERROR=ON \
    -DALPS_SANITIZE=OFF \
    -DALPS_BUILD_BENCH=ON \
    -DALPS_BUILD_EXAMPLES=ON
  cmake --build build-perf -j "$JOBS"
  build-perf/tools/alps-sweep --experiment sim_perf --jobs 1 --quiet \
    --out build-perf
  python3 - build-perf/BENCH_sim_perf.json BENCH_sim_perf.json \
    "${ALPS_PERF_TOLERANCE:-20}" "${ALPS_TRACE_OVERHEAD_TOLERANCE:-5}" <<'PY'
import json, sys

new_path, base_path = sys.argv[1], sys.argv[2]
tol_pct, trace_tol_pct = float(sys.argv[3]), float(sys.argv[4])

def best_metric(path, point_name, metric):
    doc = json.load(open(path))
    for point in doc["points"]:
        if point["point"] == point_name:
            return point["metrics"][metric]["max"]
    raise SystemExit(f"{path}: no '{point_name}' point")

failed = False
def gate(label, point, metric, pct):
    global failed
    new = best_metric(new_path, point, metric)
    base = best_metric(base_path, point, metric)
    floor = base * (1.0 - pct / 100.0)
    verdict = "OK" if new >= floor else "REGRESSION"
    print(f"{label}: {point} {new:,.0f}/s vs baseline {base:,.0f} "
          f"(floor {floor:,.0f}, tolerance {pct:.0f}%) -> {verdict}")
    failed = failed or new < floor

# Engine throughput (also the tracing-disabled overhead probe, at a tighter
# tolerance) and the timer-op mixes the timing wheel is accountable for.
gate("perf smoke", "engine", "engine_events_per_sec", tol_pct)
gate("tracing-disabled overhead", "engine", "engine_events_per_sec", trace_tol_pct)
gate("timer ops (cancel-heavy)", "timer_ops", "timer_cancel_heavy_ops_per_sec", tol_pct)
gate("timer ops (expire)", "timer_ops", "timer_expire_ops_per_sec", tol_pct)
gate("timer ops (far-future)", "timer_ops", "timer_far_future_ops_per_sec", tol_pct)
# The per-quantum proc-table scan (the simulated /proc read path): the
# per-pid sample() loop, the only way the ALPS tick reads a process, so a
# regression here means the measurement tick got slower machine-wide.
gate("kernel scan (per-pid)", "kernel_scan", "kernel_scan_samples_per_sec", tol_pct)
# The traffic subsystem's hot paths: thinning-sampled arrival draws and
# request-table churn. web_scale drives both millions of times per run.
gate("web arrivals (draws)", "web_arrivals", "web_arrival_draws_per_sec", tol_pct)
gate("web arrivals (table ops)", "web_arrivals", "web_table_ops_per_sec", tol_pct)
# The sharded engine's lockstep protocol: the serial-multiplexed aggregate at
# 8 shards is single-threaded and therefore stable on any host core count,
# yet runs the full epoch machinery (boundary pinning, channel drains, the
# degenerate barriers), so protocol overhead regressions land here.
gate("sharded engine (8-shard mux)", "sharded_engine", "sharded_mux_events_per_sec", tol_pct)
if failed:
    raise SystemExit(1)
PY

  # Record a real trace and validate it end-to-end.
  build-perf/tools/alps-sweep --experiment fig4 --quiet --no-json \
    --trace build-perf/fig4.alpstrace
  build-perf/tools/alps-trace verify build-perf/fig4.alpstrace
fi

# --- Policy-matrix leg: the ALPS invariants must hold on every kernel ---
# Runs the policy-matrix suite once per kernel scheduling policy (the same
# binary; ALPS_KERNEL_POLICY selects the kernel under the workload), then
# gates the committed payloads: policy_zoo (whose BSD row is the paper-
# baseline cross-check) and many_core must reproduce BENCH_policy_zoo.json
# and BENCH_many_core.json exactly at reduced scale (~1 s together), once the
# committed files' "run" block (host timings) is stripped. Their work counts
# and results are host-independent, so any difference is a behaviour change.
# Reuses the Release perf tree when it exists; ALPS_POLICY_MATRIX_SKIP=1
# skips the leg.
if [[ "${ALPS_POLICY_MATRIX_SKIP:-0}" != "1" ]]; then
  cmake -B build-perf -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DALPS_WERROR=ON \
    -DALPS_SANITIZE=OFF \
    -DALPS_BUILD_BENCH=ON \
    -DALPS_BUILD_EXAMPLES=ON
  cmake --build build-perf -j "$JOBS" --target test_policy_matrix alps-sweep
  build-perf/tools/alps-sweep --list-policies
  for policy in $(build-perf/tools/alps-sweep --list-policies | cut -d' ' -f1); do
    echo "--- policy matrix: $policy"
    ALPS_KERNEL_POLICY="$policy" build-perf/tests/test_policy_matrix
  done
  for exp in policy_zoo many_core; do
    build-perf/tools/alps-sweep --experiment "$exp" --quiet --json-payload-only \
      --out build-perf/payload > /dev/null
    python3 - "BENCH_$exp.json" "build-perf/payload/BENCH_$exp.json" <<'PY'
import difflib, json, sys

committed_path, fresh_path = sys.argv[1], sys.argv[2]
committed = json.load(open(committed_path))
committed.pop("run", None)
fresh = json.load(open(fresh_path))
if committed != fresh:
    a = json.dumps(committed, indent=2, sort_keys=True).splitlines()
    b = json.dumps(fresh, indent=2, sort_keys=True).splitlines()
    sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
        a, b, committed_path, fresh_path, lineterm="", n=2))
    raise SystemExit(f"payload gate: {fresh_path} differs from {committed_path}")
print(f"payload gate: {fresh_path} matches {committed_path}")
PY
  done
fi

# --- Chaos leg: the sweep harness must survive its own runs dying ---
# Exercises the supervision layer (DESIGN.md §10) end to end on real
# processes and a real kill -9:
#   1. A supervised chaos_campaign: crashing/stalling/throwing tasks must be
#      classified, retried, quarantined — and the forensics repro command it
#      prints must actually re-execute the dead run.
#   2. Crash/recovery determinism: kill -9 a journaled sweep mid-flight, then
#      --resume with a *different* --jobs; the payload-only JSON must be
#      byte-identical to an uninterrupted clean run's.
#   3. Journal corruption: a truncated tail and a flipped bit must both be
#      detected (warning on stderr), the bad suffix re-run, and the final
#      JSON still byte-identical.
#   4. CLI robustness: an unknown --kernel-policy fails with exit 2 and the
#      valid-policy list, not a crash mid-sweep.
# Reuses the Release perf tree; ALPS_CHAOS_SKIP=1 skips the leg.
if [[ "${ALPS_CHAOS_SKIP:-0}" != "1" ]]; then
  cmake -B build-perf -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DALPS_WERROR=ON \
    -DALPS_SANITIZE=OFF \
    -DALPS_BUILD_BENCH=ON \
    -DALPS_BUILD_EXAMPLES=ON
  cmake --build build-perf -j "$JOBS" --target alps-sweep
  SWEEP="$(pwd)/build-perf/tools/alps-sweep"
  CHAOS="build-perf/chaos"
  rm -rf "$CHAOS"
  mkdir -p "$CHAOS"

  echo "--- chaos: supervised campaign (isolation + watchdog + retry/quarantine)"
  "$SWEEP" --experiment chaos_campaign --isolate --run-timeout 10 \
    --max-attempts 3 --jobs 4 --seed 7 --quiet --out "$CHAOS/campaign" \
    2> "$CHAOS/campaign.stderr"
  grep -q "run death" "$CHAOS/campaign.stderr"
  grep -q "repro:" "$CHAOS/campaign.stderr"

  echo "--- chaos: forensics repro command re-executes the dead run"
  # Take the first repro line the campaign printed and run it verbatim
  # (swapping in this build's binary); a crash_loop task must die the same
  # way in its single-task replay.
  REPRO="$(grep -m1 'repro:  alps-sweep --experiment chaos_campaign' \
    "$CHAOS/campaign.stderr" | sed 's/.*repro:  alps-sweep//')"
  # shellcheck disable=SC2086  # the repro line is intentionally word-split
  "$SWEEP" $REPRO --quiet --no-json > "$CHAOS/repro.out" 2> "$CHAOS/repro.err" || true
  grep -Eq "crashed|failed|timeout" "$CHAOS/repro.out"

  echo "--- chaos: kill -9 mid-sweep, resume with different --jobs, byte-compare"
  "$SWEEP" --experiment chaos_campaign --seed 11 --jobs 2 --quiet \
    --json-payload-only --out "$CHAOS/clean" > /dev/null
  "$SWEEP" --experiment chaos_campaign --seed 11 --jobs 3 --quiet \
    --journal --json-payload-only --out "$CHAOS/resumed" > /dev/null &
  SWEEP_PID=$!
  sleep 1
  kill -9 "$SWEEP_PID" 2>/dev/null || true
  wait "$SWEEP_PID" 2>/dev/null || true
  if [[ ! -s "$CHAOS/resumed/BENCH_chaos_campaign.journal" ]]; then
    echo "chaos: sweep finished before kill -9; leg still validates resume" >&2
  fi
  "$SWEEP" --experiment chaos_campaign --seed 11 --jobs 5 --quiet \
    --resume --json-payload-only --out "$CHAOS/resumed" > /dev/null
  cmp "$CHAOS/clean/BENCH_chaos_campaign.json" \
      "$CHAOS/resumed/BENCH_chaos_campaign.json"

  echo "--- chaos: corrupted journals are detected and the payload still matches"
  truncate -s -7 "$CHAOS/resumed/BENCH_chaos_campaign.journal"
  "$SWEEP" --experiment chaos_campaign --seed 11 --jobs 2 --quiet \
    --resume --json-payload-only --out "$CHAOS/resumed" \
    2> "$CHAOS/trunc.stderr" > /dev/null
  grep -q "journal: discarded" "$CHAOS/trunc.stderr"
  cmp "$CHAOS/clean/BENCH_chaos_campaign.json" \
      "$CHAOS/resumed/BENCH_chaos_campaign.json"
  python3 - "$CHAOS/resumed/BENCH_chaos_campaign.journal" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x10  # flip one bit mid-file
open(path, "wb").write(data)
PY
  "$SWEEP" --experiment chaos_campaign --seed 11 --jobs 2 --quiet \
    --resume --json-payload-only --out "$CHAOS/resumed" \
    2> "$CHAOS/flip.stderr" > /dev/null
  grep -Eq "journal: (discarded|.* is unreadable)" "$CHAOS/flip.stderr"
  cmp "$CHAOS/clean/BENCH_chaos_campaign.json" \
      "$CHAOS/resumed/BENCH_chaos_campaign.json"

  echo "--- chaos: unknown kernel policy fails cleanly with the valid list"
  if "$SWEEP" --experiment fig4 --kernel-policy nosuchpolicy --quiet --no-json \
      2> "$CHAOS/policy.stderr"; then
    echo "chaos: unknown policy should have failed" >&2
    exit 1
  else
    rc=$?
    [[ "$rc" == "2" ]]
  fi
  grep -q "valid policies:" "$CHAOS/policy.stderr"
fi

echo "check.sh: TSan (+many-core/web smoke) + ASan/UBSan + LTO builds + ctest + perf/timer-ops/kernel-scan/sharded smoke + trace verify + policy matrix + payload gate + chaos leg passed"
