#!/usr/bin/env bash
# Same-machine speed A/B: builds BASE (any git revision) and the working tree
# in Release, then times both sides' alps-sweep on the same experiments,
# interleaved run by run so drifting host load hits both sides alike.
#
#   scripts/perf_ab.sh BASE [--full] [--runs N] [--only-task I] [EXPERIMENT...]
#
# Each run is
#   alps-sweep --experiment X --quiet --no-json --jobs 1 [--full] [--only-task I]
# and N runs per side (default 10) alternate BASE, HEAD, BASE, HEAD, ...
# --only-task I times only task I (its sweep index, as in alps-sweep) of each
# experiment on both sides: with `--full web_scale`, task 9 is the 1000-site
# kernel arm and task 12 the percore_q10 arm (the point order of
# BENCH_web_scale.json).
# For each experiment it prints the median and quartiles of the wall time
# and of the child's CPU time (user + system, from getrusage(RUSAGE_CHILDREN)),
# and HEAD's median as a fraction of BASE's. CPU time is less exposed than
# wall time to other load on the host. Without EXPERIMENT arguments it times
# web_scale.
#
# BASE is exported with `git archive` into a temporary directory under
# $TMPDIR (default /tmp) and built there; the directory is removed on exit.
# scripts/build_ab.sh holds this export and both builds.
# The working tree builds into build-payload/ (the tree payload_diff.sh
# uses). Exits 0 after printing the table, 2 on a usage or build error, 1 if
# a run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/perf_ab.sh BASE [--full] [--runs N] [--only-task I] [EXPERIMENT...]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
BASE=$1
shift
FLAGS=()
RUNS=10
EXPERIMENTS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) FLAGS+=(--full) ;;
    --only-task)
      [[ $# -ge 2 && $2 =~ ^[0-9]+$ ]] || usage
      FLAGS+=(--only-task "$2")
      shift
      ;;
    --runs)
      [[ $# -ge 2 && $2 =~ ^[1-9][0-9]*$ ]] || usage
      RUNS=$2
      shift
      ;;
    -*) usage ;;
    *) EXPERIMENTS+=("$1") ;;
  esac
  shift
done
[[ ${#EXPERIMENTS[@]} -gt 0 ]] || EXPERIMENTS=(web_scale)

source scripts/build_ab.sh
build_ab perf_ab "$BASE"

python3 - "$base_sweep" "$head_sweep" \
  "${base_sha:0:12}" "$RUNS" "$tmp/run" "${FLAGS[@]}" -- "${EXPERIMENTS[@]}" <<'PY'
import os, resource, statistics, subprocess, sys, time

base_sweep, head_sweep, base_name, runs, out = sys.argv[1:6]
rest = sys.argv[6:]
sep = rest.index("--")
extra, experiments = rest[:sep], rest[sep + 1:]
runs = int(runs)

def child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime

def run(sweep, exp):
    cmd = [sweep, "--experiment", exp, "--quiet", "--no-json", "--jobs", "1",
           "--out", out, *extra]
    cpu0, t0 = child_cpu(), time.monotonic()
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    wall, cpu = time.monotonic() - t0, child_cpu() - cpu0
    if rc not in (0, 1):  # 1 = a paper-claim criterion failed; still timed
        sys.exit(f"perf_ab: {' '.join(cmd)} exited {rc}")
    return wall, cpu

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 \
        else (xs[0], xs[0], xs[0])
    return med, q1, q3

print(f"{runs} interleaved runs per side; median [q1-q3] in seconds; "
      f"HEAD/BASE is the ratio of medians")
print(f"{'experiment':<18} {'metric':<5} {'BASE ' + base_name:>28} "
      f"{'HEAD':>24} {'HEAD/BASE':>10}")
for exp in experiments:
    samples = {"base": [], "head": []}
    for _ in range(runs):
        samples["base"].append(run(base_sweep, exp))
        samples["head"].append(run(head_sweep, exp))
    for i, metric in enumerate(("wall", "cpu")):
        b = summary([s[i] for s in samples["base"]])
        h = summary([s[i] for s in samples["head"]])
        fmt = lambda m: f"{m[0]:.3f} [{m[1]:.3f}-{m[2]:.3f}]"
        print(f"{exp:<18} {metric:<5} {fmt(b):>28} {fmt(h):>24} "
              f"{h[0] / b[0]:>10.3f}")
PY
