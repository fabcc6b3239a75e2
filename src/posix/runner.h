// The real-OS ALPS driver loop: sleep to each quantum boundary on the
// monotonic clock (absolute, so late ticks do not drift the schedule), run
// one tick of the algorithm, repeat.
//
// Two deployments, matching the paper:
//   * PosixAlpsRunner       — one entity per pid (Sections 2-4);
//   * PosixGroupAlpsRunner  — resource principals spanning a user's
//     processes, with periodic membership refresh (Section 5).
#pragma once

#include <atomic>
#include <functional>

#include "alps/group_control.h"
#include "alps/host.h"
#include "alps/scheduler.h"
#include "posix/host.h"

namespace alps::posix {

struct RunTotals {
    std::uint64_t ticks = 0;
    util::Duration wall{0};
    util::Duration cpu_self{0};  ///< CPU consumed by the ALPS loop itself
    /// cpu_self / wall — the paper's §3.2 overhead metric.
    double overhead_fraction = 0.0;
};

/// The quantum loop shared by both runners: ticks `scheduler` at absolute
/// boundaries of its quantum for `wall` of real time (or until `*stop`),
/// invoking `pre_tick` (if given) before each tick. On return all managed
/// entities have been resumed. Returns timing and self-CPU totals.
RunTotals run_alps_loop(core::Scheduler& scheduler, util::Duration wall,
                        const std::atomic<bool>* stop = nullptr,
                        const std::function<void()>& pre_tick = nullptr);

/// Per-process ALPS on the real OS (EntityId == pid).
class PosixAlpsRunner {
public:
    explicit PosixAlpsRunner(core::SchedulerConfig cfg = {});

    /// The scheduler to register pids with (EntityId == pid).
    [[nodiscard]] core::Scheduler& scheduler() { return scheduler_; }
    /// The host the scheduler reads and signals through. Reading a pid here
    /// shares the scheduler's handle instead of opening a second set of fds.
    [[nodiscard]] PosixProcessHost& host() { return host_; }

    /// Blocks and schedules for `wall` (or until request_stop() from another
    /// thread or a signal handler).
    RunTotals run_for(util::Duration wall);

    /// Asynchronously ends the run_for in progress, or makes the next one
    /// resume everything and return at once (signal-safe).
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

private:
    PosixProcessHost host_;
    core::PidProcessControl control_;
    core::Scheduler scheduler_;
    std::atomic<bool> stop_{false};
};

/// Group-principal ALPS on the real OS: entities are principals, one per
/// user account; membership is refreshed from /proc every `refresh_period`
/// (the paper uses one second).
class PosixGroupAlpsRunner {
public:
    explicit PosixGroupAlpsRunner(core::SchedulerConfig cfg = {},
                                  util::Duration refresh_period = util::sec(1));

    /// Creates a principal tracking all of `uid`'s processes and registers
    /// it with the given share. Returns its EntityId.
    core::EntityId manage_user(std::string name, core::HostUid uid, util::Share share);

    [[nodiscard]] core::Scheduler& scheduler() { return scheduler_; }
    [[nodiscard]] core::GroupProcessControl& groups() { return control_; }

    /// Same contract as PosixAlpsRunner::run_for/request_stop.
    RunTotals run_for(util::Duration wall);
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

private:
    PosixProcessHost host_;
    core::GroupProcessControl control_;
    core::Scheduler scheduler_;
    util::Duration refresh_period_;
    std::atomic<bool> stop_{false};
};

/// CPU time consumed by the calling process (getrusage(RUSAGE_SELF)).
[[nodiscard]] util::Duration self_cpu_time();

/// Monotonic clock, as a TimePoint.
[[nodiscard]] util::TimePoint monotonic_now();

}  // namespace alps::posix
