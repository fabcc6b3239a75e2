#include "posix/proc_stat.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>

namespace alps::posix {

namespace {

template <typename T>
bool parse_number(std::string_view token, T& out) {
    const auto* begin = token.data();
    const auto* end = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(begin, end, out);
    return ec == std::errc{} && ptr == end;
}

/// Walks the whitespace-separated fields of a /proc line in place.
class Fields {
public:
    explicit Fields(std::string_view s) : s_(s) {}

    /// The next field; empty once the input is exhausted.
    std::string_view next() {
        while (i_ < s_.size() && is_space(s_[i_])) ++i_;
        const std::size_t begin = i_;
        while (i_ < s_.size() && !is_space(s_[i_])) ++i_;
        return s_.substr(begin, i_ - begin);
    }

    void skip(int n) {
        for (int k = 0; k < n; ++k) (void)next();
    }

private:
    static bool is_space(char c) { return c == ' ' || c == '\n'; }

    std::string_view s_;
    std::size_t i_ = 0;
};

/// Reads a whole /proc/<pid>/<name> into `buf`; nullopt if it cannot be
/// opened or read.
std::optional<std::string_view> read_proc_file(std::int64_t pid, const char* name,
                                               std::span<char> buf) {
    const int fd = open_proc_file(pid, name);
    if (fd < 0) return std::nullopt;
    const auto content = pread_file(fd, buf);
    ::close(fd);
    return content;
}

}  // namespace

std::optional<ProcStat> parse_proc_stat(std::string_view content) {
    // Layout: "<pid> (<comm>) <state> <ppid> ... "; comm may contain spaces
    // and ')' so split at the last ')'.
    const std::size_t open = content.find('(');
    const std::size_t close = content.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
        return std::nullopt;
    }

    ProcStat st;
    if (!parse_number(
            std::string_view(content.substr(0, open > 0 ? open - 1 : 0)), st.pid)) {
        // pid is the first token before " ("
        if (!parse_number(Fields(content.substr(0, open)).next(), st.pid)) return std::nullopt;
    }

    // After the comm: field 3 (state), then utime/stime at fields 14/15 and
    // starttime at field 22. A real stat line has 52 fields — anything
    // shorter than starttime is truncated and rejected (an exhausted line
    // yields empty fields, which do not parse).
    Fields rest(content.substr(close + 1));
    const std::string_view state = rest.next();
    if (state.size() != 1) return std::nullopt;
    st.state = state[0];
    rest.skip(10);
    if (!parse_number(rest.next(), st.utime_ticks)) return std::nullopt;
    if (!parse_number(rest.next(), st.stime_ticks)) return std::nullopt;
    rest.skip(6);
    if (!parse_number(rest.next(), st.starttime_ticks)) return std::nullopt;
    return st;
}

std::optional<util::Duration> parse_schedstat(std::string_view content) {
    std::uint64_t ns = 0;
    if (!parse_number(Fields(content).next(), ns)) return std::nullopt;
    return util::Duration{static_cast<std::int64_t>(ns)};
}

int open_proc_file(std::int64_t pid, const char* name) {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%lld/%s", static_cast<long long>(pid), name);
    return ::open(path, O_RDONLY | O_CLOEXEC);
}

std::optional<std::string_view> pread_file(int fd, std::span<char> buf) {
    const ssize_t n = ::pread(fd, buf.data(), buf.size(), 0);
    if (n < 0) return std::nullopt;
    if (static_cast<std::size_t>(n) == buf.size()) {
        // The content may go on past the buffer: never parse a cut line.
        errno = EOVERFLOW;
        return std::nullopt;
    }
    return std::string_view(buf.data(), static_cast<std::size_t>(n));
}

std::optional<ProcStat> read_proc_stat(std::int64_t pid) {
    char buf[kProcBufBytes];
    const auto content = read_proc_file(pid, "stat", buf);
    if (!content) return std::nullopt;
    return parse_proc_stat(*content);
}

std::optional<util::Duration> read_schedstat(std::int64_t pid) {
    char buf[kProcBufBytes];
    const auto content = read_proc_file(pid, "schedstat", buf);
    if (!content) return std::nullopt;
    return parse_schedstat(*content);
}

util::Duration ticks_to_duration(std::uint64_t ticks) {
    static const long hz = ::sysconf(_SC_CLK_TCK);
    const double sec = static_cast<double>(ticks) / static_cast<double>(hz > 0 ? hz : 100);
    return util::Duration{static_cast<std::int64_t>(sec * 1e9)};
}

}  // namespace alps::posix
