// Structured results and task declarations for the experiment harness.
//
// A sweep is a flat list of Tasks (one per parameter-grid point × repetition).
// Each task runs a pure function of its TaskContext — the task's global index,
// a seed derived deterministically from (sweep seed, index), and the scale
// flag — and returns a Result of named scalar metrics plus string metadata.
// Because nothing else flows in, results are bit-identical for any worker
// count (the --jobs determinism guarantee).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::harness {

/// Everything a task may depend on. Tasks must not read globals, the clock,
/// or any other task's output.
struct TaskContext {
    std::size_t index = 0;       ///< position in the sweep's task list
    std::uint64_t seed = 0;      ///< derive_task_seed(sweep seed, index)
    bool full_scale = false;     ///< paper-scale parameters (--full)
    /// The sweep's metrics registry (never null during a sweep). Tasks
    /// export cumulative counters/histograms here; counter adds commute, so
    /// the totals are --jobs-independent. Serialized into the report's
    /// non-deterministic "run" section.
    telemetry::MetricsRegistry* metrics = nullptr;
};

/// One task's output: ordered named metrics. Verdicts are not a task's
/// business: an experiment's evaluate hook judges the finished sweep.
class Result {
public:
    struct Metric {
        std::string name;
        double value = 0.0;
    };

    Result& metric(std::string name, double value) {
        metrics_.push_back({std::move(name), value});
        return *this;
    }

    [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

    /// Value of a named metric; `fallback` when absent.
    [[nodiscard]] double value_of(const std::string& name, double fallback = 0.0) const {
        for (const Metric& m : metrics_) {
            if (m.name == name) return m.value;
        }
        return fallback;
    }

private:
    std::vector<Metric> metrics_;
};

/// One unit of parallel work in a sweep.
struct Task {
    /// Grouping key: repetitions of the same grid point share a `point` (and
    /// differ only in `rep`); the sink aggregates mean/stdev across them.
    std::string point;
    int rep = 0;
    /// Ordered parameter echo for the JSON output, e.g. {{"model","linear"},
    /// {"n","5"}}. Repetitions of a point should carry identical params.
    std::vector<std::pair<std::string, std::string>> params;
    std::function<Result(const TaskContext&)> fn;
};

/// splitmix64 step — the same mixer util::Rng seeds from, so per-task streams
/// are decorrelated even for adjacent indices.
[[nodiscard]] constexpr std::uint64_t derive_task_seed(std::uint64_t sweep_seed,
                                                       std::size_t task_index) {
    std::uint64_t z = sweep_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace alps::harness
