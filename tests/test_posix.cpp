// POSIX backend tests. Parser tests are pure; the process-control tests fork
// real children and exercise /proc + signals; the end-to-end test runs the
// real ALPS loop briefly, and the alpsctl case drives the real binary.
// Tolerances are generous: the host is shared.
#include <gtest/gtest.h>

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <grp.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "alps/group_control.h"
#include "posix/host.h"
#include "posix/proc_stat.h"
#include "posix/runner.h"
#include "posix/spawn.h"

namespace alps::posix {
namespace {

using util::msec;
using util::sec;

// ----------------------------------------------------------------------------
// /proc parsing (pure)

TEST(ProcStatParse, TypicalLine) {
    const auto st = parse_proc_stat(
        "1234 (myproc) R 1 1234 1234 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 "
        "12345 1000000 100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->pid, 1234);
    EXPECT_EQ(st->state, 'R');
    EXPECT_EQ(st->utime_ticks, 250u);
    EXPECT_EQ(st->stime_ticks, 50u);
    EXPECT_EQ(st->starttime_ticks, 12345u);  // field 22
}

TEST(ProcStatParse, CommWithSpacesAndParens) {
    const auto st = parse_proc_stat(
        "77 (weird (name) here) S 1 1 1 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 0 0 0 0 "
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    ASSERT_TRUE(st.has_value());
    // Split at the last ')': the fields after comm parse, not the ones
    // inside it.
    EXPECT_EQ(st->pid, 77);
    EXPECT_EQ(st->state, 'S');
    EXPECT_EQ(st->utime_ticks, 7u);
    EXPECT_EQ(st->stime_ticks, 3u);
    EXPECT_EQ(st->starttime_ticks, 0u);
}

TEST(ProcStatParse, MalformedInputsRejected) {
    EXPECT_FALSE(parse_proc_stat("").has_value());
    EXPECT_FALSE(parse_proc_stat("1234").has_value());
    EXPECT_FALSE(parse_proc_stat("1234 (x)").has_value());
    EXPECT_FALSE(parse_proc_stat("1234 (x) R 1 2").has_value());  // too few fields
    EXPECT_FALSE(parse_proc_stat("x (y) R 1 2 3 4 5 6 7 8 9 10 11 12 13").has_value());
}

TEST(ProcStatParse, TruncatedBeforeStarttimeRejected) {
    // 19 fields after the comm: utime/stime are present but starttime (the
    // 20th) is not — a torn read must not yield a half-valid ProcStat.
    EXPECT_FALSE(parse_proc_stat(
                     "9 (x) R 1 9 9 0 -1 0 100 0 0 0 250 50 0 0 20 0 1 0")
                     .has_value());
    // One more field (starttime) and the same line parses.
    const auto st = parse_proc_stat(
        "9 (x) R 1 9 9 0 -1 0 100 0 0 0 250 50 0 0 20 0 1 0 777");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->starttime_ticks, 777u);
}

TEST(ProcStatParse, StateClassification) {
    EXPECT_TRUE(state_is_blocked('S'));
    EXPECT_TRUE(state_is_blocked('D'));
    EXPECT_FALSE(state_is_blocked('R'));
    EXPECT_FALSE(state_is_blocked('T'));  // stopped by ALPS, not "blocked"
    EXPECT_TRUE(state_is_dead('Z'));
    EXPECT_TRUE(state_is_dead('X'));
    EXPECT_FALSE(state_is_dead('R'));
}

TEST(SchedstatParse, FirstFieldIsOnCpuNanoseconds) {
    const auto d = parse_schedstat("123456789 55 42\n");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->count(), 123456789);
    EXPECT_FALSE(parse_schedstat("").has_value());
    EXPECT_FALSE(parse_schedstat("abc def").has_value());
}

TEST(ProcStatParse, FullBufferIsAFailedRead) {
    // The host reads each /proc file with one pread into a fixed buffer. A
    // pread that fills it may have cut the line short, so it must come back
    // as a failed read, never as a parse of the truncated prefix.
    const std::string line =
        "9 (x) R 1 9 9 0 -1 0 100 0 0 0 250 50 0 0 20 0 1 0 777 1000000 100";
    const int fd = ::memfd_create("stat", MFD_CLOEXEC);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, line.data(), line.size()), static_cast<ssize_t>(line.size()));

    std::vector<char> exact(line.size());
    errno = 0;
    EXPECT_FALSE(pread_file(fd, exact).has_value());
    EXPECT_EQ(errno, EOVERFLOW);
    // A prefix that happens to parse must not be what the buffer returns.
    ASSERT_TRUE(parse_proc_stat(line.substr(0, line.size() - 8)).has_value());

    std::vector<char> roomy(line.size() + 1);
    const auto whole = pread_file(fd, roomy);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(*whole, line);
    ::close(fd);
}

TEST(TicksToDuration, UsesUserHz) {
    // USER_HZ is virtually always 100 on Linux.
    const auto d = ticks_to_duration(100);
    EXPECT_NEAR(util::to_sec(d), 1.0, 0.5);
}

// ----------------------------------------------------------------------------
// Real-process host

TEST(PosixHost, ReadsOwnProcess) {
    PosixProcessHost host;
    const core::Sample s = host.read_pid(::getpid());
    EXPECT_TRUE(s.alive);
    EXPECT_GT(s.cpu_time.count(), 0);
}

/// Children that sleep in pause(), so they take no CPU. Each is SIGKILLed
/// and reaped on destruction unless the test reaped it already.
class IdleChildren {
public:
    IdleChildren() = default;
    ~IdleChildren() {
        for (const pid_t pid : pids_) {
            if (pid > 0) reap(pid);
        }
    }
    IdleChildren(const IdleChildren&) = delete;
    IdleChildren& operator=(const IdleChildren&) = delete;

    pid_t add() {
        const pid_t pid = ::fork();
        if (pid == 0) {
            for (;;) ::pause();
        }
        pids_.push_back(pid);
        return pid;
    }
    /// SIGKILLs the child and waits for it, so its pid is released.
    void kill_and_reap(pid_t pid) {
        for (pid_t& p : pids_) {
            if (p != pid) continue;
            reap(p);
            p = 0;
        }
    }

private:
    static void reap(pid_t pid) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
        }
    }

    std::vector<pid_t> pids_;
};

/// Blocks until `pid` has exited, leaving it a zombie (not reaped).
bool wait_for_zombie(pid_t pid) {
    siginfo_t info{};
    return ::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) == 0;
}

/// This process's open fds, without the one the listing itself uses.
std::vector<int> open_fds() {
    std::vector<int> fds;
    DIR* dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) return fds;
    const int own = ::dirfd(dir);
    while (const dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        const int fd = std::atoi(entry->d_name);
        if (fd != own) fds.push_back(fd);
    }
    ::closedir(dir);
    return fds;
}

TEST(PosixHost, MissingPidReportsDead) {
    // A child the host has read, then SIGKILLed and reaped: its pid no
    // longer names a process, so reads and signals must all say gone.
    PosixProcessHost host;
    IdleChildren children;
    const pid_t pid = children.add();
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(host.read_pid(pid).alive);
    children.kill_and_reap(pid);
    const core::Sample s = host.read_pid(pid);
    EXPECT_TRUE(s.ok);
    EXPECT_FALSE(s.alive);
    EXPECT_EQ(host.stop_pid(pid), core::ControlResult::kGone);
    EXPECT_EQ(host.cont_pid(pid), core::ControlResult::kGone);
}

TEST(PosixHost, ZombieReadsDead) {
    // An exited but unreaped child is a zombie: its /proc entry is still
    // there, but it reads dead — whether the host knew it alive or first
    // sees it as a zombie.
    PosixProcessHost host;
    IdleChildren children;
    const pid_t known = children.add();
    const pid_t fresh = children.add();
    ASSERT_GT(known, 0);
    ASSERT_GT(fresh, 0);
    ASSERT_TRUE(host.read_pid(known).alive);
    for (const pid_t pid : {known, fresh}) {
        ::kill(pid, SIGKILL);
        ASSERT_TRUE(wait_for_zombie(pid));
        const core::Sample s = host.read_pid(pid);
        EXPECT_TRUE(s.ok);
        EXPECT_FALSE(s.alive) << "zombie " << pid << " read alive";
    }
}

TEST(PosixHost, HandlesHoldCloexecFdsUntilTheProcessGoes) {
    // Each pid read costs 3 fds (pidfd, stat, schedstat), all close-on-exec,
    // and they are given back when the process is seen gone — by a read, or
    // by a membership scan once it is reaped — or when the host goes.
    const std::vector<int> baseline = open_fds();
    constexpr std::size_t kChildren = 16;
    IdleChildren children;
    std::vector<pid_t> pids;
    for (std::size_t i = 0; i < kChildren; ++i) {
        pids.push_back(children.add());
        ASSERT_GT(pids.back(), 0);
    }
    {
        PosixProcessHost host;
        for (const pid_t pid : pids) ASSERT_TRUE(host.read_pid(pid).alive);
        const std::vector<int> open = open_fds();
        EXPECT_EQ(open.size(), baseline.size() + 3 * kChildren);
        for (const int fd : open) {
            if (std::find(baseline.begin(), baseline.end(), fd) != baseline.end()) continue;
            EXPECT_TRUE(::fcntl(fd, F_GETFD) & FD_CLOEXEC) << "fd " << fd;
        }
    }
    EXPECT_EQ(open_fds().size(), baseline.size()) << "host destroyed";

    PosixProcessHost host;
    for (const pid_t pid : pids) ASSERT_TRUE(host.read_pid(pid).alive);
    for (const pid_t pid : pids) children.kill_and_reap(pid);
    // Half are seen gone by a read, the other half by a membership scan.
    for (std::size_t i = 0; i < kChildren / 2; ++i) EXPECT_FALSE(host.read_pid(pids[i]).alive);
    EXPECT_EQ(open_fds().size(), baseline.size() + 3 * (kChildren / 2)) << "half read dead";
    (void)host.pids_of_user(static_cast<core::HostUid>(::getuid()));
    EXPECT_EQ(open_fds().size(), baseline.size()) << "children reaped";
    for (std::size_t i = kChildren / 2; i < kChildren; ++i) EXPECT_FALSE(host.read_pid(pids[i]).alive);
}

/// The fd-exhaustion scenario, run in a child process that lowers its own
/// RLIMIT_NOFILE. Returns 0, or the number of the first check that failed.
int fd_exhaustion_scenario(pid_t target) {
    const int probe = ::dup(STDERR_FILENO);
    if (probe < 0) return 1;
    ::close(probe);
    const auto lowest_free = static_cast<rlim_t>(probe);
    rlimit full{};
    if (::getrlimit(RLIMIT_NOFILE, &full) != 0) return 2;
    const auto set_soft = [&](rlim_t soft) {
        rlimit lim = full;
        lim.rlim_cur = soft;
        return ::setrlimit(RLIMIT_NOFILE, &lim) == 0;
    };
    const auto not_stopped = [&] {
        const auto st = read_proc_stat(target);
        return st && st->state != 'T' && st->state != 't';
    };
    // Room for no fd, for the pidfd only, and for the pidfd and stat fd: a
    // handle cannot be opened, and nothing may be signalled.
    for (rlim_t room = 0; room < 3; ++room) {
        const int step = 10 * static_cast<int>(room + 1);
        PosixProcessHost host;
        if (!set_soft(lowest_free + room)) return step;
        const core::Sample s = host.read_pid(target);
        const core::ControlResult stop = host.stop_pid(target);
        const core::ControlResult cont = host.cont_pid(target);
        if (!set_soft(full.rlim_cur)) return step + 1;
        if (s.ok || !s.alive) return step + 2;
        if (stop != core::ControlResult::kTransient) return step + 3;
        if (cont != core::ControlResult::kTransient) return step + 4;
        if (!not_stopped()) return step + 5;
        const int again = ::dup(STDERR_FILENO);  // no half-open handle leaked
        ::close(again);
        if (again != probe) return step + 6;
    }
    // A tenant stopped through a handle can be resumed, and read, with no
    // fd to spare.
    PosixProcessHost host;
    if (host.stop_pid(target) != core::ControlResult::kOk) return 50;
    if (!set_soft(lowest_free)) return 51;
    const core::ControlResult cont = host.cont_pid(target);
    const core::Sample s = host.read_pid(target);
    if (!set_soft(full.rlim_cur)) return 52;
    if (cont != core::ControlResult::kOk) return 53;
    if (!s.ok || !s.alive) return 54;
    if (!not_stopped()) return 55;
    // A /proc scan with no fd to spare reports a failure, not an account
    // with no processes.
    const auto uid = static_cast<core::HostUid>(::getuid());
    std::vector<core::HostPid> pids;
    pids.reserve(4096);
    if (!set_soft(lowest_free)) return 60;
    const bool scanned = host.scan_user(uid, pids);
    if (!set_soft(full.rlim_cur)) return 61;
    if (scanned) return 62;
    if (!host.scan_user(uid, pids) || pids.empty()) return 63;
    return 0;
}

TEST(PosixHost, FdExhaustionFailsClosed) {
    IdleChildren children;
    const pid_t target = children.add();
    ASSERT_GT(target, 0);
    const pid_t tester = ::fork();
    ASSERT_GE(tester, 0);
    if (tester == 0) ::_exit(fd_exhaustion_scenario(target));
    int status = 0;
    ASSERT_EQ(::waitpid(tester, &status, 0), tester);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "first failed check";
    const auto st = read_proc_stat(target);
    ASSERT_TRUE(st.has_value());
    EXPECT_NE(st->state, 'T');
}

TEST(PosixHost, BusyChildAccumulatesCpu) {
    PosixProcessHost host;
    ChildSet children;
    const pid_t pid = children.add_busy();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s1 = host.read_pid(pid);
    ASSERT_TRUE(s1.alive);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s2 = host.read_pid(pid);
    EXPECT_GT(s2.cpu_time.count(), s1.cpu_time.count());
}

TEST(PosixHost, StopFreezesConsumption) {
    PosixProcessHost host;
    ChildSet children;
    const pid_t pid = children.add_busy();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    host.stop_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const core::Sample s1 = host.read_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s2 = host.read_pid(pid);
    ASSERT_TRUE(s2.alive);
    // Stopped: no meaningful progress (allow scheduler-tick slop).
    EXPECT_LT((s2.cpu_time - s1.cpu_time).count(), msec(20).count());
    host.cont_pid(pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const core::Sample s3 = host.read_pid(pid);
    EXPECT_GT((s3.cpu_time - s2.cpu_time).count(), msec(20).count());
}

TEST(PosixHost, PidsOfUserIncludesSelf) {
    PosixProcessHost host;
    const auto pids = host.pids_of_user(static_cast<core::HostUid>(::getuid()));
    const auto me = static_cast<core::HostPid>(::getpid());
    EXPECT_NE(std::find(pids.begin(), pids.end(), me), pids.end());
}

// ----------------------------------------------------------------------------
// End-to-end on the real OS

TEST(PosixRunner, EnforcesProportionsOnRealChildren) {
    // Pin everything to one CPU so two busy loops actually contend, as on
    // the paper's uniprocessor host.
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    pin_to_cpu(a, 0);
    pin_to_cpu(b, 0);

    core::SchedulerConfig cfg;
    cfg.quantum = msec(10);
    PosixAlpsRunner runner(cfg);
    PosixProcessHost host;
    const auto cpu0_a = host.read_pid(a).cpu_time;
    const auto cpu0_b = host.read_pid(b).cpu_time;
    runner.scheduler().add(a, 1);
    runner.scheduler().add(b, 3);

    const RunTotals totals = runner.run_for(sec(3));
    EXPECT_GT(totals.ticks, 100u);

    const double da = util::to_sec(host.read_pid(a).cpu_time - cpu0_a);
    const double db = util::to_sec(host.read_pid(b).cpu_time - cpu0_b);
    ASSERT_GT(da + db, 1.0);  // they did run
    // 1:3 within generous tolerance (shared CI host).
    EXPECT_NEAR(db / (da + db), 0.75, 0.12);
    // Neither child may be left SIGSTOPped after release_all().
    EXPECT_FALSE(host.read_pid(a).blocked);
}

TEST(PosixRunner, OverheadIsSmall) {
    ChildSet children;
    const pid_t a = children.add_busy();
    pin_to_cpu(a, 0);
    core::SchedulerConfig cfg;
    cfg.quantum = msec(20);
    PosixAlpsRunner runner(cfg);
    runner.scheduler().add(a, 1);
    const RunTotals totals = runner.run_for(sec(2));
    // The paper's bound: well under 1% of CPU for small workloads.
    EXPECT_LT(totals.overhead_fraction, 0.02);
}

TEST(PosixRunner, StopRequestEndsRunEarly) {
    PosixAlpsRunner runner{core::SchedulerConfig{}};
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        runner.request_stop();
    });
    const auto t0 = monotonic_now();
    runner.run_for(sec(30));
    stopper.join();
    EXPECT_LT((monotonic_now() - t0).count(), sec(5).count());
}

/// Busy children that each drop to a given uid (and the same gid) before
/// spinning, so a group principal can own a uid no other process uses.
/// Needs root; the destructor kills and reaps them.
class UidChildren {
public:
    UidChildren() = default;
    ~UidChildren() { kill_children(pids_); }
    UidChildren(const UidChildren&) = delete;
    UidChildren& operator=(const UidChildren&) = delete;

    /// Returns once the child runs as `uid`.
    pid_t add_busy(uid_t uid) {
        int ready[2];
        if (::pipe(ready) != 0) return -1;
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::close(ready[0]);
            if (::setgroups(0, nullptr) != 0 || ::setresgid(uid, uid, uid) != 0 ||
                ::setresuid(uid, uid, uid) != 0) {
                ::_exit(127);
            }
            // Changing credentials clears the dumpable flag, which may make
            // /proc/<pid> read as root's; restore it so the uid scan sees
            // the child as the uid's.
            ::prctl(PR_SET_DUMPABLE, 1, 0, 0, 0);
            const char byte = 1;
            if (::write(ready[1], &byte, 1) != 1) ::_exit(127);
            volatile std::uint64_t counter = 0;
            for (;;) counter = counter + 1;
        }
        ::close(ready[1]);
        char byte = 0;
        const bool ok = pid > 0 && ::read(ready[0], &byte, 1) == 1;
        ::close(ready[0]);
        if (pid > 0) pids_.push_back(pid);
        return ok ? pid : -1;
    }

private:
    std::vector<pid_t> pids_;
};

/// True if no process on the host runs as `uid`.
bool uid_unused(core::HostUid uid) {
    PosixProcessHost host;
    return host.pids_of_user(uid).empty();
}

TEST(PosixGroupRunner, EnforcesSharesAcrossGroups) {
    // Two user principals, each over a uid no other process uses: {a} with
    // 1 share vs {b, c} with 3 shares. The pair's *combined* consumption
    // must approach 75%. Dropping children to other uids needs root.
    if (::geteuid() != 0) GTEST_SKIP() << "needs root to run children as other uids";
    constexpr uid_t kSolo = 61'017;
    constexpr uid_t kPair = 61'018;
    if (!uid_unused(kSolo) || !uid_unused(kPair)) GTEST_SKIP() << "test uids in use";
    UidChildren children;
    const pid_t a = children.add_busy(kSolo);
    const pid_t b = children.add_busy(kPair);
    const pid_t c = children.add_busy(kPair);
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    ASSERT_GT(c, 0);
    for (const pid_t p : {a, b, c}) pin_to_cpu(p, 0);

    core::SchedulerConfig cfg;
    cfg.quantum = msec(20);
    PosixGroupAlpsRunner runner(cfg);
    const core::EntityId g1 = runner.manage_user("solo", kSolo, 1);
    const core::EntityId g2 = runner.manage_user("pair", kPair, 3);
    EXPECT_EQ(runner.groups().members(g1), (std::vector<core::HostPid>{a}));
    std::vector<core::HostPid> pair = runner.groups().members(g2);
    std::sort(pair.begin(), pair.end());
    EXPECT_EQ(pair, (std::vector<core::HostPid>{std::min(b, c), std::max(b, c)}));

    PosixProcessHost host;
    const auto a0 = host.read_pid(a).cpu_time;
    const auto b0 = host.read_pid(b).cpu_time;
    const auto c0 = host.read_pid(c).cpu_time;
    runner.run_for(sec(3));

    const double da = util::to_sec(host.read_pid(a).cpu_time - a0);
    const double dbc = util::to_sec(host.read_pid(b).cpu_time - b0) +
                       util::to_sec(host.read_pid(c).cpu_time - c0);
    ASSERT_GT(da + dbc, 1.0);
    EXPECT_NEAR(dbc / (da + dbc), 0.75, 0.12);
}

TEST(GroupControlOnPosix, TracksRealChildrenOfUser) {
    // A principal over a uid no other process uses: admission finds the
    // uid's children, a child forked later joins at the next refresh and is
    // charged from birth, and suspending the principal freezes them all.
    if (::geteuid() != 0) GTEST_SKIP() << "needs root to run children as other uids";
    constexpr uid_t kUid = 61'019;
    if (!uid_unused(kUid)) GTEST_SKIP() << "test uid in use";
    PosixProcessHost host;
    core::GroupProcessControl groups(host);
    UidChildren children;
    const pid_t a = children.add_busy(kUid);
    const pid_t b = children.add_busy(kUid);
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    const core::EntityId g = groups.add_principal("u", kUid);
    EXPECT_EQ(groups.members(g).size(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const auto admitted = groups.read_progress(g).cpu_time;
    EXPECT_GT(admitted.count(), 0);

    const pid_t late = children.add_busy(kUid);
    ASSERT_GT(late, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto before = groups.read_progress(g).cpu_time;
    const auto late_cpu = host.read_pid(late).cpu_time;
    EXPECT_EQ(groups.refresh(g), 3);
    EXPECT_GE((groups.read_progress(g).cpu_time - before).count(), late_cpu.count());

    groups.suspend(g);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto frozen = groups.read_progress(g).cpu_time;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT((groups.read_progress(g).cpu_time - frozen).count(), msec(30).count());
    groups.resume(g);
}

// ----------------------------------------------------------------------------
// The alpsctl binary

char proc_state(pid_t pid) {
    const auto st = read_proc_stat(pid);
    return st ? st->state : '?';
}

TEST(Alpsctl, SigtermResumesEveryTenant) {
    // A plain `kill` of the driver must end it through release_all(), not
    // leave its ineligible tenant SIGSTOPped. Shares 1:9 at a 50 ms quantum
    // keep the low-share child stopped for most of each 500 ms cycle; the
    // signal goes out mid-run (admission stops both children, the first
    // tick resumes the high-share one) while ALPS holds the low one stopped.
    ChildSet children;
    const pid_t low = children.add_busy();
    const pid_t high = children.add_busy();
    pin_to_cpu(low, 0);
    pin_to_cpu(high, 0);

    const std::string low_arg = std::to_string(low) + "=1";
    const std::string high_arg = std::to_string(high) + "=9";
    const pid_t ctl = ::fork();
    ASSERT_GE(ctl, 0);
    if (ctl == 0) {
        ::execl(ALPS_ALPSCTL_PATH, "alpsctl", "--quantum", "50ms", "--duration", "20",
                "--quiet", low_arg.c_str(), high_arg.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }

    bool saw_stop = false;
    for (int i = 0; i < 2500 && !saw_stop; ++i) {  // up to ~5 s
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        saw_stop = proc_state(low) == 'T' && proc_state(high) == 'R';
    }
    ::kill(ctl, SIGTERM);
    int status = 0;
    ASSERT_EQ(::waitpid(ctl, &status, 0), ctl);
    ASSERT_TRUE(saw_stop) << "alpsctl never stopped the low-share child";

    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "alpsctl did not exit normally on SIGTERM (status " << status << ")";
    EXPECT_NE(proc_state(low), 'T');
    EXPECT_NE(proc_state(high), 'T');
}

/// Where each of `pid`'s open fds points (readlink of /proc/<pid>/fd/*).
std::vector<std::string> fd_links(pid_t pid) {
    std::vector<std::string> links;
    const std::string dir_path = "/proc/" + std::to_string(pid) + "/fd";
    DIR* dir = ::opendir(dir_path.c_str());
    if (dir == nullptr) return links;
    while (const dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.') continue;
        const std::string path = dir_path + "/" + entry->d_name;
        char buf[256];
        const ssize_t n = ::readlink(path.c_str(), buf, sizeof buf);
        if (n > 0) links.emplace_back(buf, static_cast<std::size_t>(n));
    }
    ::closedir(dir);
    return links;
}

TEST(Alpsctl, PidModeHoldsThreeFdsPerTarget) {
    // alpsctl reads its before/after report through the scheduler's own
    // host, so each target costs one handle: a pidfd plus its stat and
    // schedstat fds, not a second set for the report.
    IdleChildren children;
    const pid_t a = children.add();
    const pid_t b = children.add();
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    const std::string a_arg = std::to_string(a) + "=1";
    const std::string b_arg = std::to_string(b) + "=1";
    const pid_t ctl = ::fork();
    ASSERT_GE(ctl, 0);
    if (ctl == 0) {
        ::execl(ALPS_ALPSCTL_PATH, "alpsctl", "--quantum", "10ms", "--duration", "20",
                "--quiet", a_arg.c_str(), b_arg.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }

    const auto path_of = [](pid_t pid, const char* name) {
        return "/proc/" + std::to_string(pid) + "/" + name;
    };
    std::vector<std::string> links;
    const auto count = [&](const std::string& link) {
        return std::count(links.begin(), links.end(), link);
    };
    bool admitted = false;
    for (int i = 0; i < 2500 && !admitted; ++i) {  // up to ~5 s
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        links = fd_links(ctl);
        admitted = count(path_of(a, "schedstat")) > 0 && count(path_of(b, "schedstat")) > 0;
    }
    // Let it tick for a while (20 quanta) before the count that matters.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    links = fd_links(ctl);
    ::kill(ctl, SIGTERM);
    int status = 0;
    ASSERT_EQ(::waitpid(ctl, &status, 0), ctl);
    ASSERT_TRUE(admitted) << "alpsctl never opened handles for its targets";

    for (const pid_t pid : {a, b}) {
        EXPECT_EQ(count(path_of(pid, "stat")), 1) << "pid " << pid;
        EXPECT_EQ(count(path_of(pid, "schedstat")), 1) << "pid " << pid;
    }
    EXPECT_EQ(count("anon_inode:[pidfd]"), 2);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status;
}

TEST(Alpsctl, RejectsBadInputWithoutFreezingTenant) {
    // Command lines that parse token by token but cannot be run — a pid
    // given twice, a duration past int64 nanoseconds — must be refused with
    // the usage exit before any target is admitted (admission SIGSTOPs it).
    ChildSet children;
    const pid_t child = children.add_busy();
    const std::string once = std::to_string(child) + "=1";
    const std::string twice = std::to_string(child) + "=2";
    const auto run_alpsctl = [](const char* flag, const char* value, const char* a,
                                const char* b) {
        const pid_t ctl = ::fork();
        if (ctl == 0) {
            ::execl(ALPS_ALPSCTL_PATH, "alpsctl", flag, value, "--quiet", a, b,
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
        int status = 0;
        if (ctl < 0 || ::waitpid(ctl, &status, 0) != ctl) return -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    };

    EXPECT_EQ(run_alpsctl("--duration", "1", once.c_str(), twice.c_str()), 2);
    EXPECT_NE(proc_state(child), 'T');
    EXPECT_EQ(run_alpsctl("--duration", "9300000000s", once.c_str(), nullptr), 2);
    EXPECT_NE(proc_state(child), 'T');
}

}  // namespace
}  // namespace alps::posix
