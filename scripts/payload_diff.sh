#!/usr/bin/env bash
# Proves a change replays bit-identically: builds BASE (any git revision) and
# the working tree in Release, runs every deterministic registry experiment on
# both, and byte-compares the JSON payloads, the printed reports and the exit
# codes.
#
#   scripts/payload_diff.sh BASE [--full] [EXPERIMENT...]
#
# Without EXPERIMENT arguments it runs every experiment that both sides'
# `alps-sweep --list` name, except sim_perf, whose payload holds host
# timings; experiments registered on one side only are listed as
# "only in BASE" / "only in HEAD". Each runs as
#   alps-sweep --experiment X --quiet --json-payload-only --jobs 1
# at reduced scale; --full adds a second run of each at the paper's full
# scale (web_scale --full alone takes ~10 s; 60-70 s on a BASE whose kernel
# still scanned the process table on every wakeup).
#
# A differing payload is followed by its moved numbers, one
# "point / metric: base → head" line each (the first 20), then the one with
# the largest relative change, "point / metric: base → head (±x %)"; a
# differing report by its first differing stdout line.
#
# BASE is exported with `git archive` into a temporary directory under
# $TMPDIR (default /tmp) and built there; the directory is removed on exit.
# scripts/build_ab.sh holds this export and both builds.
# The working tree builds into build-payload/. Exits 0 when every run
# matches, 1 on any difference, 2 on a usage or build error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/payload_diff.sh BASE [--full] [EXPERIMENT...]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
BASE=$1
shift
SCALES=(reduced)
EXPERIMENTS=()
for arg in "$@"; do
  case "$arg" in
    --full) SCALES+=(full) ;;
    -*) usage ;;
    *) EXPERIMENTS+=("$arg") ;;
  esac
done

source scripts/build_ab.sh
build_ab payload_diff "$BASE"

registered() { "$1" --list | sed 's/ — .*//' | grep -vx sim_perf | sort; }
registered "$base_sweep" >"$tmp/base.list"
registered "$head_sweep" >"$tmp/head.list"
only_base=$(comm -23 "$tmp/base.list" "$tmp/head.list" | paste -sd' ')
only_head=$(comm -13 "$tmp/base.list" "$tmp/head.list" | paste -sd' ')
[[ -z $only_base ]] || echo "only in BASE: $only_base"
[[ -z $only_head ]] || echo "only in HEAD: $only_head"
if [[ ${#EXPERIMENTS[@]} -eq 0 ]]; then
  mapfile -t EXPERIMENTS < <(comm -12 "$tmp/base.list" "$tmp/head.list")
fi

# run SWEEP OUT_DIR EXPERIMENT SCALE -> prints the exit code. Both sides
# write to the same --out path (the report prints it), then move to OUT_DIR.
run() {
  local flags=(--experiment "$3" --quiet --json-payload-only --jobs 1 --out "$tmp/run")
  [[ $4 == full ]] && flags+=(--full)
  mkdir -p "$tmp/run" "$(dirname "$2")"
  local rc=0
  "$1" "${flags[@]}" >"$tmp/run/stdout.txt" 2>"$tmp/run/stderr.txt" || rc=$?
  mv "$tmp/run" "$2"
  echo "$rc"
}

# moved_metrics BASE_JSON HEAD_JSON: the payload numbers that moved, the
# first 20 (a metric's mean, or the statistic that moved when the mean did
# not), then any other top-level field that differs, then the number with the
# largest relative change.
moved_metrics() {
  python3 - "$1" "$2" <<'PY'
import json, math, sys
base, head = (json.load(open(path)) for path in sys.argv[1:3])
def points(doc):
    return {p["point"]: p.get("metrics", {}) for p in doc.get("points", [])}
bp, hp = points(base), points(head)
lines = []
relative = []  # (|change| in %, line) per moved number
for point in list(bp) + [p for p in hp if p not in bp]:
    if point not in bp or point not in hp:
        lines.append(f"{point}: only in {'head' if point in hp else 'base'}")
        continue
    bm, hm = bp[point], hp[point]
    for metric in list(bm) + [m for m in hm if m not in bm]:
        b, h = bm.get(metric, {}), hm.get(metric, {})
        if b == h:
            continue
        stat = next((k for k in ("mean", "stdev", "min", "max", "n") if b.get(k) != h.get(k)), "mean")
        name = metric if stat == "mean" else f"{metric}.{stat}"
        line = f"{point} / {name}: {b.get(stat)} → {h.get(stat)}"
        lines.append(line)
        bv, hv = b.get(stat), h.get(stat)
        if isinstance(bv, (int, float)) and isinstance(hv, (int, float)):
            pct = 100 * (hv - bv) / abs(bv) if bv else math.copysign(math.inf, hv - bv)
            relative.append((abs(pct), f"{line} ({pct:+.3g} %)"))
for key in sorted(set(base) | set(head)):
    if key not in ("points", "run") and base.get(key) != head.get(key):
        lines.append(f"{key}: {json.dumps(base.get(key))} → {json.dumps(head.get(key))}")
for line in lines[:20]:
    print(f"    {line}")
if len(lines) > 20:
    print(f"    ... and {len(lines) - 20} more")
if relative:
    print(f"    largest relative change: {max(relative)[1]}")
PY
}

# first_report_diff BASE_STDOUT HEAD_STDOUT: the first line that differs.
first_report_diff() {
  python3 - "$1" "$2" <<'PY'
import itertools, sys
base, head = (open(path).read().splitlines() for path in sys.argv[1:3])
for n, (b, h) in enumerate(itertools.zip_longest(base, head, fillvalue="<end of report>"), 1):
    if b != h:
        print(f"    line {n} base: {b}")
        print(f"    line {n} head: {h}")
        break
PY
}

failures=0
for scale in "${SCALES[@]}"; do
  for exp in "${EXPERIMENTS[@]}"; do
    start=$SECONDS
    base_rc=$(run "$base_sweep" "$tmp/out/base/$scale/$exp" "$exp" "$scale")
    head_rc=$(run "$head_sweep" "$tmp/out/head/$scale/$exp" "$exp" "$scale")
    base_json=$tmp/out/base/$scale/$exp/BENCH_$exp.json
    head_json=$tmp/out/head/$scale/$exp/BENCH_$exp.json
    base_out=$tmp/out/base/$scale/$exp/stdout.txt
    head_out=$tmp/out/head/$scale/$exp/stdout.txt
    verdict=identical
    detail=()
    if [[ ! -f $base_json || ! -f $head_json ]]; then
      verdict="MISSING payload"
    elif ! cmp -s "$base_json" "$head_json"; then
      verdict="DIFFERS ($(cmp "$base_json" "$head_json" | sed 's/.*: //' || true))"
      detail=(moved_metrics "$base_json" "$head_json")
    elif ! cmp -s "$base_out" "$head_out"; then
      verdict="report (stdout) differs"
      detail=(first_report_diff "$base_out" "$head_out")
    elif [[ $base_rc != "$head_rc" ]]; then
      verdict="exit code $base_rc -> $head_rc"
    fi
    [[ $verdict == identical ]] || failures=$((failures + 1))
    printf '%-8s %-18s %-40s exit %s  %ds\n' "$scale" "$exp" "$verdict" "$head_rc" \
      $((SECONDS - start))
    [[ ${#detail[@]} -eq 0 ]] || "${detail[@]}"
  done
done

if [[ $failures -gt 0 ]]; then
  echo "payload_diff: $failures run(s) differ from ${base_sha:0:12}" >&2
  exit 1
fi
echo "payload_diff: every run byte-identical to ${base_sha:0:12}"
