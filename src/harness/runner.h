// The sweep runner: fans an experiment's tasks out over a ThreadPool,
// reports progress/ETA to stderr, aggregates results in task-index order,
// and (optionally) writes BENCH_<name>.json.
//
// Determinism guarantee: each task computes from its TaskContext alone and
// writes into its own pre-allocated slot, so the report — and the JSON metric
// payload — is byte-identical for every --jobs value. Only the "run" section
// (jobs, wall-clock, git sha) differs between runs.
#pragma once

#include <iosfwd>

#include "harness/registry.h"
#include "harness/sink.h"

namespace alps::harness {

/// Runs one experiment under `options`. Progress/ETA goes to `progress`
/// (pass nullptr or set options.quiet to silence it).
[[nodiscard]] SweepReport run_sweep(const Experiment& experiment,
                                    const SweepOptions& options,
                                    std::ostream* progress);

/// alps-sweep's driver: runs `name` from the registry with `options`, prints
/// the experiment's paper-style presentation and evaluation to stdout, and
/// writes the JSON report when options.out_dir is set. Returns the process exit code
/// (0 = success; 1 = failed criteria or task errors; 2 = unknown experiment).
int run_and_report(std::string_view name, const SweepOptions& options);

/// Applies the sweep flags in argv (--jobs N, --seed S, --full, --out DIR,
/// --no-json, --quiet, --trace FILE, ...) on top of `options`. Returns false
/// (and prints usage to stderr) on a bad flag.
bool parse_sweep_args(int argc, char** argv, SweepOptions& options);

/// Short git commit hash of the working tree, or "unknown" outside a repo.
std::string current_git_sha();

}  // namespace alps::harness
