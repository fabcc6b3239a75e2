// Result aggregation and deterministic JSON emission.
//
// The sink consumes task outcomes in task-index order (the runner stores them
// into a pre-sized vector, so worker scheduling cannot reorder anything),
// groups repetitions of the same grid point, and computes mean/stdev/min/max
// per metric. to_json() splits the document into a deterministic results
// payload and a non-deterministic "run" section (wall-clock, jobs, git sha) so
// that runs with different --jobs values can be diffed byte-for-byte on
// everything above "run".
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/result.h"
#include "util/json.h"

namespace alps::harness {

/// One finished task: its declaration echo plus its Result (or an error).
struct TaskOutcome {
    std::string point;
    int rep = 0;
    std::vector<std::pair<std::string, std::string>> params;
    Result result;
    bool ok = true;       ///< false when the task threw (or its worker died)
    std::string error;    ///< exception / crash classification text when !ok
    /// Supervision record (harness::RunSupervisor). Everything here is a pure
    /// function of the task's deterministic behaviour — attempt counts and
    /// dispositions never encode wall-clock — so it lives in the
    /// jobs-independent JSON payload and round-trips through the journal.
    int attempts = 1;                 ///< executions including retries
    std::string disposition = "ok";   ///< "ok" | "failed" | "crashed" | "timeout"
};

/// Mean/stdev of one metric across a point's repetitions.
struct MetricAggregate {
    std::string name;
    double mean = 0.0;
    double stdev = 0.0;  ///< sample stdev; 0 for a single repetition
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

/// One grid point with its repetitions folded together.
struct PointAggregate {
    std::string point;
    std::vector<std::pair<std::string, std::string>> params;
    int reps = 0;
    std::vector<MetricAggregate> metrics;  ///< first-appearance order
};

/// One criterion verdict from an experiment's evaluate hook: what the paper
/// reports, what this run measured, and whether the claim holds. Any failed
/// check fails the sweep (exit code).
struct Check {
    std::string criterion;
    std::string paper;
    std::string measured;
    bool passed = true;
};

/// The finished sweep.
struct SweepReport {
    std::string experiment;
    std::uint64_t seed = 0;
    bool full_scale = false;
    std::vector<TaskOutcome> tasks;      ///< task-index order
    std::vector<PointAggregate> points;  ///< first-appearance order
    /// Criteria appended by the experiment's evaluate hook.
    std::vector<Check> checks;
    int task_errors = 0;                 ///< tasks that threw
    // Non-deterministic run facts (excluded from the metric payload):
    unsigned jobs = 0;
    double wall_seconds = 0.0;
    std::string git_sha;
    /// Serialized sweep MetricsRegistry (telemetry::MetricsRegistry::to_json);
    /// null when no metrics were registered. Emitted inside "run" — counter
    /// totals are jobs-independent, but wall-time histograms are not, so the
    /// whole block stays out of the determinism-compared payload.
    util::Json telemetry;

    /// The point named `point`; nullptr when absent.
    [[nodiscard]] const PointAggregate* find_point(const std::string& point) const;

    /// Mean of `metric` at `point`; `fallback` when either is absent.
    [[nodiscard]] double metric_mean(const std::string& point, const std::string& metric,
                                     double fallback = 0.0) const;

    /// The checks that did not pass.
    [[nodiscard]] int failed_checks() const;
};

/// Builds report.points and report.task_errors from report.tasks in order.
void aggregate_points(SweepReport& report);

/// Serializes the report. The "run" object (jobs, wall-clock, git sha) is
/// emitted last; everything before it is a pure function of (experiment,
/// seed, full_scale, task results). `include_run=false` drops it entirely,
/// which is what the determinism tests compare.
[[nodiscard]] util::Json report_to_json(const SweepReport& report,
                                        bool include_run = true);

/// Writes `BENCH_<experiment>.json` under `dir` (created if missing).
/// Returns the path written, or "" on I/O failure (warned on stderr).
/// `include_run=false` omits the non-deterministic "run" section entirely so
/// that files from interrupted-and-resumed sweeps can be byte-compared
/// against clean baselines (alps-sweep --json-payload-only).
std::string write_json_report(const SweepReport& report, const std::string& dir,
                              bool include_run = true);

}  // namespace alps::harness
