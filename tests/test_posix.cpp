// POSIX backend tests. Parser tests are pure; the process-control tests fork
// real children and exercise /proc + signals; the end-to-end test runs the
// real ALPS loop briefly, and the alpsctl case drives the real binary.
// Tolerances are generous: the host is shared.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <thread>

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
    EXPECT_EQ(st->comm, "myproc");
    EXPECT_EQ(st->state, 'R');
    EXPECT_EQ(st->utime_ticks, 250u);
    EXPECT_EQ(st->stime_ticks, 50u);
    EXPECT_EQ(st->starttime_ticks, 12345u);  // field 22, the pid-reuse guard
}

TEST(ProcStatParse, CommWithSpacesAndParens) {
    const auto st = parse_proc_stat(
        "77 (weird (name) here) S 1 1 1 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 0 0 0 0 "
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->comm, "weird (name) here");
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

TEST(PosixHost, MissingPidReportsDead) {
    PosixProcessHost host;
    // Pid 4194300 is near pid_max and almost certainly absent; even if it
    // exists the test only requires a well-formed answer.
    const core::Sample s = host.read_pid(4194300);
    if (!s.alive) SUCCEED();
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

TEST(PosixGroupRunner, EnforcesSharesAcrossGroups) {
    // Two explicit-membership principals (group mode does not require extra
    // user accounts): {a} with 1 share vs {b, c} with 3 shares. The pair's
    // *combined* consumption must approach 75%.
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    const pid_t c = children.add_busy();
    for (const pid_t p : {a, b, c}) pin_to_cpu(p, 0);

    core::SchedulerConfig cfg;
    cfg.quantum = msec(20);
    PosixGroupAlpsRunner runner(cfg);
    const core::EntityId g1 = runner.manage_group("solo", 1);
    const core::EntityId g2 = runner.manage_group("pair", 3);
    runner.groups().add_member(g1, a);
    runner.groups().add_member(g2, b);
    runner.groups().add_member(g2, c);

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
    // Group principal over this uid: membership must include our children.
    PosixProcessHost host;
    core::GroupProcessControl groups(host);
    ChildSet children;
    const pid_t a = children.add_busy();
    const pid_t b = children.add_busy();
    const core::EntityId g = groups.add_principal("me");
    groups.add_member(g, a);
    groups.add_member(g, b);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const core::Sample s = groups.read_progress(g);
    EXPECT_GT(s.cpu_time.count(), 0);
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
