// Basic identifiers and state enums for the simulated UNIX kernel.
#pragma once

#include <cstdint>
#include <string_view>

namespace alps::os {

/// Process identifier. Pid 0 is never issued (reserved, like the real swapper).
using Pid = std::int32_t;
constexpr Pid kNoPid = 0;

/// User identifier; the Section-5 web server experiment schedules per-uid
/// resource principals.
using Uid = std::int32_t;

/// Signals: the subset ALPS and the experiments need.
enum class Signal {
    kStop,  ///< SIGSTOP: make the process ineligible to run.
    kCont,  ///< SIGCONT: make a stopped process eligible again.
    kKill,  ///< SIGKILL: terminate.
};

/// Base run state; `Proc::stopped` is an orthogonal flag (a process stopped
/// while sleeping stays asleep, exactly as under UNIX job control).
enum class RunState {
    kRunnable,  ///< wants the CPU (on a run queue unless stopped)
    kRunning,   ///< currently on the CPU
    kSleeping,  ///< blocked until a timer or Kernel::wakeup
    kZombie,    ///< exited, awaiting reap
};

[[nodiscard]] constexpr std::string_view to_string(RunState s) {
    switch (s) {
        case RunState::kRunnable: return "runnable";
        case RunState::kRunning: return "running";
        case RunState::kSleeping: return "sleeping";
        case RunState::kZombie: return "zombie";
    }
    return "?";
}

}  // namespace alps::os
