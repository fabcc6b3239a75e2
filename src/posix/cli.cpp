#include "posix/cli.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <limits>

namespace alps::posix::cli {

namespace {

std::optional<std::int64_t> parse_int(std::string_view s) {
    std::int64_t v = 0;
    const auto* end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || p != end) return std::nullopt;
    return v;
}

}  // namespace

std::optional<std::pair<std::string, util::Share>> parse_assignment(std::string_view s) {
    const auto eq = s.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    const auto share = parse_int(s.substr(eq + 1));
    if (!share || *share <= 0) return std::nullopt;
    return std::pair{std::string(s.substr(0, eq)), *share};
}

std::optional<util::Duration> parse_duration(std::string_view s, util::Duration unit) {
    if (s.size() > 2 && s.substr(s.size() - 2) == "ms") {
        s.remove_suffix(2);
        unit = util::msec(1);
    } else if (!s.empty() && s.back() == 's') {
        s.remove_suffix(1);
        unit = util::sec(1);
    }
    const auto n = parse_int(s);
    if (!n || *n <= 0) return std::nullopt;
    if (*n > std::numeric_limits<std::int64_t>::max() / unit.count()) return std::nullopt;
    return util::Duration{unit.count() * *n};
}

std::optional<core::HostUid> resolve_user(const std::string& name, UserLookup lookup) {
    if (const auto numeric = parse_int(name)) {
        return *numeric >= 0 ? std::optional<core::HostUid>(*numeric) : std::nullopt;
    }
    return lookup != nullptr ? lookup(name) : std::nullopt;
}

std::optional<Options> parse_args(int argc, const char* const* argv, UserLookup lookup) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--eager") {
            opt.lazy = false;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--quantum") {
            if (++i >= argc) return std::nullopt;
            const auto d = parse_duration(argv[i], util::msec(1));
            if (!d) return std::nullopt;
            opt.quantum = *d;
        } else if (arg == "--duration") {
            if (++i >= argc) return std::nullopt;
            const auto d = parse_duration(argv[i], util::sec(1));
            if (!d) return std::nullopt;
            opt.duration = *d;
        } else if (arg == "--user") {
            if (++i >= argc) return std::nullopt;
            const auto a = parse_assignment(argv[i]);
            if (!a) return std::nullopt;
            Target t;
            t.name = a->first;
            const auto uid = resolve_user(t.name, lookup);
            if (!uid) {
                std::cerr << "alpsctl: unknown user '" << t.name << "'\n";
                return std::nullopt;
            }
            t.uid = *uid;
            t.share = a->second;
            if (std::any_of(opt.user_targets.begin(), opt.user_targets.end(),
                            [&](const Target& u) { return u.uid == t.uid; })) {
                std::cerr << "alpsctl: uid " << t.uid << " given twice\n";
                return std::nullopt;
            }
            opt.user_targets.push_back(std::move(t));
        } else {
            const auto a = parse_assignment(arg);
            if (!a) return std::nullopt;
            const auto pid = parse_int(a->first);
            if (!pid || *pid <= 0) return std::nullopt;
            Target t;
            t.name = a->first;
            t.pid = *pid;
            t.share = a->second;
            if (std::any_of(opt.pid_targets.begin(), opt.pid_targets.end(),
                            [&](const Target& p) { return p.pid == t.pid; })) {
                std::cerr << "alpsctl: pid " << t.pid << " given twice\n";
                return std::nullopt;
            }
            opt.pid_targets.push_back(std::move(t));
        }
    }
    if (opt.pid_targets.empty() && opt.user_targets.empty()) return std::nullopt;
    if (!opt.pid_targets.empty() && !opt.user_targets.empty()) {
        std::cerr << "alpsctl: mixing PID= and --user targets is not supported\n";
        return std::nullopt;
    }
    // ALPS keeps every allowance and the cycle S·Q in int64 nanoseconds.
    util::Share room = util::max_total_shares(opt.quantum);
    for (const auto* targets : {&opt.pid_targets, &opt.user_targets}) {
        for (const Target& t : *targets) {
            if (t.share > room) {
                std::cerr << "alpsctl: the shares times the quantum overflow "
                             "int64 nanoseconds\n";
                return std::nullopt;
            }
            room -= t.share;
        }
    }
    return opt;
}

}  // namespace alps::posix::cli
