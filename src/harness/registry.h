// Declarative registry of sweep experiments.
//
// An Experiment names a parameter grid (built lazily so --full can change the
// grid), an optional paper-style text presentation, and an optional
// evaluation that judges the experiment's claims across its points. The
// alps-sweep CLI and the tests pull experiments from here; registration is
// explicit (register_* functions called from bench/experiments.h's
// register_all) to avoid relying on static initializers surviving
// static-library linking.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/result.h"
#include "harness/sink.h"

namespace alps::harness {

struct SweepOptions {
    unsigned jobs = 0;            ///< worker threads; 0 = hardware concurrency
    std::uint64_t seed = 0xa155;  ///< sweep seed (per-task seeds derive from it)
    bool full_scale = false;      ///< paper-scale grid / cycle counts
    std::string out_dir;          ///< where BENCH_<name>.json lands; "" = skip
    bool quiet = false;           ///< suppress progress/ETA on stderr
    /// Record an .alpstrace of the whole sweep here ("" = tracing off).
    /// Tracing forces jobs = 1 so two same-seed runs produce byte-identical
    /// traces (`alps-trace diff` reports zero differences).
    std::string trace_path;
    /// Kernel scheduling policy for experiments that honor it (fig4,
    /// policy_zoo); "" keeps each experiment's own default. Validated by the
    /// kernel policy factory at task run time (alps-sweep pre-checks it
    /// against --list-policies for a friendlier error).
    std::string kernel_policy;
    /// Simulated core count for experiments that sweep machine sizes
    /// (many_core, web_scale): restricts the grid to this one size. 0 = the
    /// full grid.
    int ncpus = 0;
    /// Site count for experiments that sweep hosting scale (web_scale):
    /// restricts the grid to this one cluster size. 0 = the full grid.
    int sites = 0;
    /// Flash-crowd intensity override for web_scale: restricts the grid to
    /// points with this arrival multiplier. < 0 = the full grid.
    double flash_crowd = -1.0;
    // ---- supervision (harness::RunSupervisor) --------------------------
    /// Fork one worker process per task execution so crashes and hangs are
    /// classified per task instead of killing the sweep.
    bool isolate = false;
    /// Per-execution watchdog deadline, seconds; 0 = none. > 0 implies
    /// isolate (the watchdog needs a killable process).
    double run_timeout_s = 0.0;
    /// Executions per task before a crash/timeout quarantines it.
    int max_attempts = 3;
    /// Keep a crash-consistent BENCH_<name>.journal of finished tasks.
    bool journal = false;
    /// Skip tasks already completed in a matching journal (implies journal).
    bool resume = false;
    /// Run exactly one task by sweep index (repro mode): < 0 = all. The task
    /// keeps its original index/seed; journaling and evaluate are skipped.
    long only_task = -1;
    /// Omit the non-deterministic "run" section from BENCH_<name>.json so
    /// resumed and uninterrupted sweeps can be byte-compared.
    bool json_payload_only = false;
};

struct Experiment {
    std::string name;         ///< CLI key and JSON file stem ("fig4")
    std::string description;  ///< one line for --list
    /// Builds the task list for this run's options (full_scale may change it).
    std::function<std::vector<Task>(const SweepOptions&)> make_tasks;
    /// Optional: prints the paper-style tables from the finished sweep.
    std::function<void(const SweepReport&, std::ostream&)> present{};
    /// Optional: the experiment's claims, judged over the finished sweep.
    /// Appends one verdict per criterion to report.checks (the JSON's
    /// `checks` and `failed_checks`) and may print a verdict table.
    std::function<void(SweepReport&, std::ostream&)> evaluate{};
    /// Task errors are expected (fault-injection experiments like
    /// chaos_campaign): they don't fail the sweep's exit code; only failed
    /// checks do.
    bool tolerate_task_errors = false;
};

class ExperimentRegistry {
public:
    static ExperimentRegistry& instance();

    /// Registers an experiment. Contract: name non-empty and unique.
    void add(Experiment experiment);

    /// Looks up by name; nullptr when unknown.
    [[nodiscard]] const Experiment* find(std::string_view name) const;

    /// All experiments, sorted by name (stable CLI listing).
    [[nodiscard]] std::vector<const Experiment*> list() const;

private:
    std::vector<Experiment> experiments_;
};

}  // namespace alps::harness
