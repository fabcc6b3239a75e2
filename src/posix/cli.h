// Argument parsing for the alpsctl command-line tool (separated from the
// binary so it is unit-testable).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alps/host.h"
#include "util/shares.h"
#include "util/time.h"

namespace alps::posix::cli {

struct Target {
    std::string name;
    core::HostPid pid = 0;   ///< pid mode
    core::HostUid uid = -1;  ///< user mode (>= 0)
    util::Share share = 1;
};

struct Options {
    util::Duration quantum = util::msec(10);
    util::Duration duration = util::sec(10);
    bool lazy = true;
    bool quiet = false;
    std::vector<Target> pid_targets;
    std::vector<Target> user_targets;
};

/// Parses "name=share" (share a positive integer).
[[nodiscard]] std::optional<std::pair<std::string, util::Share>> parse_assignment(
    std::string_view s);

/// Parses a duration argument: "<N>", "<N>ms" or "<N>s" (N > 0). Bare
/// numbers mean the given default unit. N times its unit must fit in int64
/// nanoseconds.
[[nodiscard]] std::optional<util::Duration> parse_duration(std::string_view s,
                                                           util::Duration unit);

/// Resolves a user name or numeric uid string. `lookup` maps a name to a
/// uid (production: getpwnam); injectable for tests.
using UserLookup = std::optional<core::HostUid> (*)(const std::string&);
[[nodiscard]] std::optional<core::HostUid> resolve_user(const std::string& name,
                                                        UserLookup lookup);

/// Full argv parse. Returns nullopt (with a message on stderr for semantic
/// errors) when the command line is invalid, including a pid or uid given
/// twice and shares whose total S·Q does not fit in int64 nanoseconds — all
/// of it before any target is touched.
[[nodiscard]] std::optional<Options> parse_args(int argc, const char* const* argv,
                                                UserLookup lookup);

}  // namespace alps::posix::cli
