// Run supervision: isolation, watchdog, retry/quarantine, crash forensics.
//
// The RunSupervisor sits between the sweep runner and a task's fn. In its
// default (inline) mode it is a thin try/catch — same behaviour the runner
// always had. With isolation on (--isolate, implied by --run-timeout), each
// execution happens in a forked worker process that sends its finished
// TaskOutcome back over a pipe as one checksummed wire frame; the parent can
// then classify anything the child does — clean result, thrown exception,
// SIGSEGV, abort()ed invariant guard, or a wedged loop the watchdog SIGKILLs
// at the deadline — without the sweep process ever being at risk.
//
// Classification drives the retry policy:
//
//   result frame, ok          -> done ("ok")
//   result frame, !ok         -> deterministic failure: quarantine at once
//                                ("failed"); retrying a pure function cannot
//                                help and would just repeat the work
//   crash / watchdog kill     -> possibly environmental: retry with bounded
//                                exponential backoff up to max_attempts, then
//                                quarantine ("crashed" / "timeout")
//
// A quarantined task becomes a normal task-error record — siblings keep
// running, the sweep completes, and the JSON carries a "supervision" trail.
// Every crash/timeout also emits a forensics bundle on the forensics stream:
// exit status, a copy-pasteable single-run repro command (deterministic by
// construction: tasks are pure functions of (seed, index)), and — when the
// child managed to dump one — the path of a flight-recorder .alpstrace tail
// holding the worker's final telemetry records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "harness/result.h"
#include "harness/sink.h"

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::harness {

struct SupervisorConfig {
    /// Fork a worker per execution. Off = run in-thread (fast path; crashes
    /// take down the sweep, exactly as before supervision existed).
    bool isolate = false;
    /// Watchdog deadline per execution, seconds; 0 = none. Measured on the
    /// monotonic clock; expiry SIGKILLs the worker. Requires isolate.
    double run_timeout_s = 0.0;
    /// Executions per task before a crash/timeout quarantines it.
    int max_attempts = 3;
    /// Where flight-recorder dumps land (created on demand); "" disables
    /// the crash-dump half of forensics.
    std::string forensics_dir;
};

/// Sweep identity needed to render a single-run repro command
/// (`alps-sweep --experiment X --seed S --only-task I --isolate ...`).
struct ReproInfo {
    std::string experiment;
    std::uint64_t seed = 0;
    bool full_scale = false;
    std::string kernel_policy;  ///< "" = experiment default (flag omitted)
};

class RunSupervisor {
public:
    /// `metrics` may be null (counters skipped). `forensics_out` receives
    /// the human-readable crash bundles; defaults to stderr.
    RunSupervisor(SupervisorConfig cfg, ReproInfo repro,
                  telemetry::MetricsRegistry* metrics,
                  std::ostream* forensics_out = nullptr);

    /// Executes `task` under the configured policy and returns its outcome
    /// with `attempts`/`disposition` filled in. Thread-safe: sweep workers
    /// call this concurrently. Never throws on task failure — every way a
    /// run can die becomes a classified TaskOutcome.
    [[nodiscard]] TaskOutcome run(const Task& task, const TaskContext& ctx) const;

    /// The copy-pasteable command that re-executes exactly one task of this
    /// sweep (used in forensics bundles; exposed for tests).
    [[nodiscard]] std::string repro_command(std::size_t task_index) const;

private:
    struct Attempt;  // one execution's classified result (supervisor.cpp)

    Attempt run_isolated(const Task& task, const TaskContext& ctx, int attempt) const;
    Attempt run_inline(const Task& task, const TaskContext& ctx) const;
    void emit_forensics(const Attempt& attempt, const Task& task, std::size_t index,
                        int attempt_no, bool quarantined) const;
    void bump(const char* counter) const;
    [[nodiscard]] std::string trace_path_for(std::size_t index, int attempt) const;

    SupervisorConfig cfg_;
    ReproInfo repro_;
    telemetry::MetricsRegistry* metrics_;
    std::ostream* forensics_out_;
};

}  // namespace alps::harness
