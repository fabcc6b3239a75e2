// The backend interface between the ALPS algorithm and the host system.
//
// ALPS (the paper, Section 2) needs exactly three capabilities, all available
// to an unprivileged UNIX process:
//   * READ-PROGRESS: a scheduled entity's cumulative CPU time and whether it
//     is currently blocked (getrusage / kvm wait-channel);
//   * suspend: make it ineligible to run (SIGSTOP);
//   * resume: make it eligible again (SIGCONT).
//
// A scheduled entity is identified by an EntityId. It is usually one process,
// but the Section-5 web-server deployment schedules *resource principals* —
// all processes of a user — as one entity (see group_control.h).
#pragma once

#include <cstdint>

#include "util/time.h"

namespace alps::core {

/// Identifies one scheduled entity (process or resource principal).
using EntityId = std::int64_t;

/// Outcome of a suspend/resume request. ALPS is an *unprivileged* controller
/// driving processes it does not own through fallible channels (kill(2) can
/// fail with ESRCH or EPERM, signals can race with exits), so the control
/// surface reports what happened instead of pretending it cannot fail.
enum class ControlResult {
    kOk,         ///< the request was accepted by the host
    kTransient,  ///< temporary failure (e.g. EINTR/EAGAIN); worth retrying
    kDenied,     ///< the host refused (EPERM) — retrying may or may not help
    kGone,       ///< the entity no longer exists (ESRCH)
};

[[nodiscard]] constexpr const char* to_string(ControlResult r) {
    switch (r) {
        case ControlResult::kOk: return "ok";
        case ControlResult::kTransient: return "transient";
        case ControlResult::kDenied: return "denied";
        case ControlResult::kGone: return "gone";
    }
    return "?";
}

/// One progress observation.
struct Sample {
    /// Cumulative CPU time consumed by the entity since it was first seen.
    /// Monotone non-decreasing while the same process holds the id; a
    /// backwards jump means the id was reused (the scheduler rebaselines).
    util::Duration cpu_time{0};
    /// True if the entity is currently blocked (sleeping on a wait channel).
    bool blocked = false;
    /// True if the entity is currently job-control stopped (SIGSTOP). The
    /// scheduler compares this against the state it *wanted* to detect lost
    /// or undelivered signals and re-issue them (self-healing).
    bool stopped = false;
    /// False once the entity no longer exists; the scheduler then drops it.
    bool alive = true;
    /// False when the read itself failed transiently (e.g. a /proc read
    /// raced a context switch); all other fields are then meaningless and
    /// the scheduler retries with backoff instead of charging garbage.
    bool ok = true;
};

/// Host-system backend. Implementations exist for the simulated kernel
/// (alps/sim_adapter.h) and for a real POSIX system (posix/).
class ProcessControl {
public:
    virtual ~ProcessControl() = default;

    /// Reads the entity's progress. This is the expensive operation the
    /// lazy-measurement optimization (paper §2.3) minimizes. A transient
    /// failure is reported via Sample::ok, not by throwing.
    virtual Sample read_progress(EntityId id) = 0;

    /// Makes the entity ineligible to run (moves it to the ineligible group).
    virtual ControlResult suspend(EntityId id) = 0;

    /// Makes the entity eligible to run again.
    virtual ControlResult resume(EntityId id) = 0;
};

}  // namespace alps::core
