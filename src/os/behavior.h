// Process behaviours: what a simulated process *does*.
//
// A behaviour is a phase machine. Whenever a process finishes its current
// phase the kernel asks the behaviour for the next Action. Run phases may be
// *lazy*: their CPU demand is computed at the moment the process is actually
// dispatched. The ALPS driver uses this so that its sampling work happens —
// and is costed — when the kernel really gives it the CPU, which is exactly
// the mechanism behind the paper's Section-4.2 breakdown analysis.
#pragma once

#include <memory>
#include <variant>

#include "os/types.h"
#include "util/time.h"

namespace alps::os {

class Kernel;

/// Sentinel for "run forever" (a compute-bound process).
inline constexpr util::Duration kRunForever = util::Duration::max();

/// Consume `duration` of CPU time. If `lazy`, the duration is obtained from
/// Behavior::lazy_run_duration() when the process is first dispatched into
/// this phase (and `duration` is ignored).
struct RunAction {
    util::Duration duration{};
    bool lazy = false;
};

/// Sleep for `duration` of real time (models blocking I/O with known latency).
struct SleepAction {
    util::Duration duration{};
};

/// Sleep until an absolute instant (models an absolute interval timer; the
/// ALPS driver sleeps until the next quantum boundary).
struct SleepUntilAction {
    util::TimePoint deadline{};
};

/// Sleep with no timer until another party calls Kernel::wakeup with this
/// process's pid (models queue waits: an idle web worker records its pid
/// with its site before blocking).
struct BlockAction {};

/// Terminate the process.
struct ExitAction {};

using Action = std::variant<RunAction, SleepAction, SleepUntilAction, BlockAction, ExitAction>;

/// Context handed to behaviour hooks.
struct ProcContext {
    Kernel& kernel;
    Pid pid;
};

/// Interface implemented by every simulated process body.
///
/// Hooks are invoked synchronously from inside the kernel's scheduling path.
/// They may call kernel services (signals, wakeups, spawns); the kernel
/// defers the resulting rescheduling until the hook returns.
class Behavior {
public:
    virtual ~Behavior() = default;

    /// Returns the process's next phase. Called once at spawn for the first
    /// phase and thereafter each time the current phase completes.
    virtual Action next_action(ProcContext ctx) = 0;

    /// For lazy RunActions: called at first dispatch into the phase; returns
    /// the CPU demand of the phase. Must be >= 0 (0 completes immediately).
    virtual util::Duration lazy_run_duration(ProcContext ctx);
};

}  // namespace alps::os
