// alpsctl — command-line ALPS for real processes.
//
// Give existing pids (or whole user accounts) proportional CPU shares from a
// terminal, no privileges required beyond the right to signal the targets:
//
//   alpsctl --duration 30 1234=3 5678=1
//       schedule pid 1234 and pid 5678 at shares 3:1 for 30 seconds
//
//   alpsctl --quantum 20ms --duration 60 --user alice=1 --user bob=3
//       group-principal mode: all of alice's processes vs all of bob's
//       (memberships refresh once per second, as in the paper's Section 5)
//
// Options:
//   --quantum <N>[ms]   ALPS quantum (default 10 ms)
//   --duration <N>[s]   run time (default 10 s); Ctrl-C, SIGTERM or SIGHUP
//                       stops early and resumes every managed process
//   --user NAME=SHARE   schedule a user's whole process set (repeatable;
//                       NAME may be a numeric uid)
//   PID=SHARE           schedule one process (repeatable)
//   --eager             disable the lazy-measurement optimization
//   --quiet             suppress the end-of-run report
#include <pwd.h>
#include <signal.h>
#include <sys/resource.h>

#include <iostream>

#include "posix/cli.h"
#include "posix/host.h"
#include "posix/runner.h"
#include "util/table.h"

namespace {

using namespace alps;
using posix::cli::Options;
using posix::cli::Target;

std::optional<core::HostUid> getpwnam_lookup(const std::string& name) {
    if (const passwd* pw = ::getpwnam(name.c_str())) {
        return static_cast<core::HostUid>(pw->pw_uid);
    }
    return std::nullopt;
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--quantum <N>ms] [--duration <N>] [--eager] [--quiet]\n"
                 "       [--user NAME=SHARE]... [PID=SHARE]...\n";
    return 2;
}

void (*g_request_stop)() = nullptr;
void on_stop_signal(int) {
    if (g_request_stop != nullptr) g_request_stop();
}

/// Routes SIGINT, SIGTERM and SIGHUP to runner.request_stop(), so every way
/// of ending alpsctl short of SIGKILL returns through run_for(), which
/// resumes every managed process before it returns.
template <class Runner>
void stop_on_signals(Runner& runner) {
    static Runner* target = nullptr;
    target = &runner;
    g_request_stop = [] { target->request_stop(); };
    struct sigaction sa {};
    sa.sa_handler = on_stop_signal;
    ::sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

int run_pid_mode(const Options& opt) {
    core::SchedulerConfig cfg;
    cfg.quantum = opt.quantum;
    cfg.lazy_measurement = opt.lazy;
    posix::PosixAlpsRunner runner(cfg);
    posix::PosixProcessHost& host = runner.host();

    std::vector<util::Duration> before;
    for (const Target& t : opt.pid_targets) {
        const core::Sample s = host.read_pid(t.pid);
        if (!s.alive) {
            std::cerr << "alpsctl: no such process: " << t.pid << "\n";
            return 1;
        }
        before.push_back(s.cpu_time);
    }
    // Admission suspends each target, so from the first add() on every
    // signal must end in run_for()'s release.
    stop_on_signals(runner);
    for (const Target& t : opt.pid_targets) runner.scheduler().add(t.pid, t.share);

    const posix::RunTotals totals = runner.run_for(opt.duration);
    if (opt.quiet) return 0;

    util::TextTable table({"pid", "share", "target %", "received %", "cpu (s)"});
    util::Share total_share = 0;
    double total_cpu = 0.0;
    std::vector<double> consumed;
    for (std::size_t i = 0; i < opt.pid_targets.size(); ++i) {
        total_share += opt.pid_targets[i].share;
        const core::Sample s = host.read_pid(opt.pid_targets[i].pid);
        consumed.push_back(s.alive ? util::to_sec(s.cpu_time - before[i]) : 0.0);
        total_cpu += consumed.back();
    }
    for (std::size_t i = 0; i < opt.pid_targets.size(); ++i) {
        const Target& t = opt.pid_targets[i];
        table.add_row(
            {t.name, std::to_string(t.share),
             util::fmt(100.0 * static_cast<double>(t.share) /
                           static_cast<double>(total_share),
                       1),
             util::fmt(total_cpu > 0 ? 100.0 * consumed[i] / total_cpu : 0.0, 1),
             util::fmt(consumed[i], 2)});
    }
    table.print(std::cout);
    std::cout << "ticks " << totals.ticks << ", alpsctl overhead "
              << util::fmt(100.0 * totals.overhead_fraction, 3) << "% of one CPU\n";
    return 0;
}

int run_user_mode(const Options& opt) {
    core::SchedulerConfig cfg;
    cfg.quantum = opt.quantum;
    cfg.lazy_measurement = opt.lazy;
    posix::PosixGroupAlpsRunner runner(cfg);
    stop_on_signals(runner);
    for (const Target& t : opt.user_targets) {
        runner.manage_user(t.name, t.uid, t.share);
    }

    const posix::RunTotals totals = runner.run_for(opt.duration);
    if (!opt.quiet) {
        std::cout << "scheduled " << opt.user_targets.size() << " user principals for "
                  << util::fmt(util::to_sec(totals.wall), 1) << " s; overhead "
                  << util::fmt(100.0 * totals.overhead_fraction, 3)
                  << "% of one CPU\n";
    }
    return 0;
}

/// Each managed pid holds 3 fds (posix/host.h), so a --user principal over
/// a large account can pass the usual 1024 soft limit: lift it to the hard
/// limit.
void raise_fd_limit() {
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
        lim.rlim_cur = lim.rlim_max;
        (void)::setrlimit(RLIMIT_NOFILE, &lim);
    }
}

}  // namespace

int main(int argc, char** argv) {
    raise_fd_limit();
    const auto opt = posix::cli::parse_args(argc, argv, getpwnam_lookup);
    if (!opt) return usage(argv[0]);
    return opt->user_targets.empty() ? run_pid_mode(*opt) : run_user_mode(*opt);
}
