#!/usr/bin/env python3
"""Build and run the ALPS benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of web_flash_percore, web_flash_kernel, many_core_percore,
posix_measure, or "all". The first run configures and builds the benchmark
and the libraries it links (a Release build under .bench_build/perfbench);
later runs only check that the build is current. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs (--trace 1) write their spans to .bench_build/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "alps_perfbench")


def build():
    """Configures (once) and builds; returns True on success."""
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    os.makedirs(TRACES, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process with the benchmark, so signals reach it directly
    # and no wrapper outlives it.
    os.execv(BINARY, [BINARY] + sys.argv[1:] + ["--trace-dir", TRACES])


if __name__ == "__main__":
    sys.exit(main())
