// /proc/<pid>/stat and /proc/<pid>/schedstat readers.
//
// On the paper's FreeBSD host, ALPS reads per-process CPU time and the wait
// channel through kvm. The Linux equivalents:
//   * /proc/<pid>/schedstat field 1: exact on-CPU time in nanoseconds;
//   * /proc/<pid>/stat field 3: the state letter ('R' runnable, 'S'/'D'
//     sleeping — the paper's "blocked" test) and fields 14/15 (utime+stime
//     in clock ticks, the coarse fallback when schedstat is unavailable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "util/time.h"

namespace alps::posix {

struct ProcStat {
    std::int64_t pid = 0;
    char state = '?';
    std::uint64_t utime_ticks = 0;
    std::uint64_t stime_ticks = 0;
    /// Stat field 22: the time the process started after boot, in clock
    /// ticks.
    std::uint64_t starttime_ticks = 0;
};

/// Parses the contents of /proc/<pid>/stat. Skips the comm field, which may
/// contain spaces and parentheses, by splitting at the *last* ')'. Returns
/// nullopt on malformed input.
[[nodiscard]] std::optional<ProcStat> parse_proc_stat(std::string_view content);

/// Parses /proc/<pid>/schedstat ("<oncpu_ns> <wait_ns> <slices>"); returns
/// the on-CPU time.
[[nodiscard]] std::optional<util::Duration> parse_schedstat(std::string_view content);

/// Buffer size for one read of a stat or schedstat file. A stat line is
/// 52 numeric fields and a comm of at most 64 bytes, about 1.2 KB at most.
inline constexpr std::size_t kProcBufBytes = 4096;

/// Opens /proc/<pid>/<name> read-only and close-on-exec; -1 with errno set
/// on failure.
[[nodiscard]] int open_proc_file(std::int64_t pid, const char* name);

/// Reads a whole /proc file from offset 0 into `buf` with one pread and
/// returns the bytes read. nullopt, with errno set, if the pread failed —
/// or if it filled the buffer (errno EOVERFLOW): the content may go on, and
/// a cut line must never be parsed.
[[nodiscard]] std::optional<std::string_view> pread_file(int fd, std::span<char> buf);

/// Opens, reads and parses the files for a pid (one-off reads; the host
/// keeps its fds open instead). nullopt if the process is gone.
[[nodiscard]] std::optional<ProcStat> read_proc_stat(std::int64_t pid);
[[nodiscard]] std::optional<util::Duration> read_schedstat(std::int64_t pid);

/// Converts clock ticks (USER_HZ) to a duration.
[[nodiscard]] util::Duration ticks_to_duration(std::uint64_t ticks);

/// The paper's §2.4 blocked test on a state letter: sleeping (interruptible
/// or not). 'T' (job-control stop) is not "blocked" — ALPS put it there.
[[nodiscard]] constexpr bool state_is_blocked(char state) {
    return state == 'S' || state == 'D';
}

/// True for states that mean the process no longer runs (zombie/dead).
[[nodiscard]] constexpr bool state_is_dead(char state) {
    return state == 'Z' || state == 'X';
}

}  // namespace alps::posix
