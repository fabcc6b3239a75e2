// posix_measure. The benchmark forks 256 children into one process group;
// each sleeps in pause() and so takes no core. The real scheduler manages
// them at q = 10 ms, ticked at every quantum boundary the way
// posix::run_alps_loop ticks it: every tick reads /proc/<pid>/{stat,schedstat}
// for the due children and SIGSTOPs/SIGCONTs them as their allowances run
// out and refill (§2.4 charges a blocked child one quantum per measurement,
// so idle children still cycle).
//
// Idle children keep the work per tick steady: a read almost always sees a
// blocked process with no new CPU, so N ticks cost about the same reads and
// signals whatever the seed. After every tick a model scheduler replays
// what the real one observed (see ReplayHost) and must read and signal
// exactly as it did; each run also checks that no child is left stopped.
// The host CPU per tick is timed on the process CPU clock, without the
// model's share; the children's own CPU is not on it.
#include "posix_workload.h"

#include <errno.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <utility>
#include <string>
#include <vector>

#include "alps/host.h"
#include "alps/scheduler.h"
#include "layers.h"
#include "posix/host.h"
#include "posix/proc_stat.h"
#include "spans.h"
#include "util/rng.h"

namespace alps::perfbench {

namespace {

using util::Duration;

constexpr int kChildren = 256;
constexpr Duration kQuantum = util::msec(10);
constexpr int kSetupSamples = 9;
/// Length of the held-out seed's check loop.
constexpr double kHeldOutSeconds = 1.0;

/// Process group of the live children (0 when none), for the signal path.
std::atomic<pid_t> g_group{0};
static_assert(std::atomic<pid_t>::is_always_lock_free);

/// SIGKILLs a process group and reaps it. Async-signal-safe.
void kill_and_reap_group(pid_t pgid) {
    ::kill(-pgid, SIGKILL);
    for (;;) {
        const pid_t r = ::waitpid(-pgid, nullptr, 0);
        if (r > 0 || (r < 0 && errno == EINTR)) continue;
        break;
    }
}

extern "C" void on_fatal_signal(int sig) {
    const pid_t pgid = g_group.load();
    if (pgid > 0) kill_and_reap_group(pgid);
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

/// The benchmark's children: one process group, killed and reaped on
/// destruction (and by the SIGINT/SIGTERM handlers while alive). A child
/// also dies with the benchmark itself (PR_SET_PDEATHSIG), so not even a
/// SIGKILLed benchmark leaves them behind.
class ChildGroup {
public:
    ChildGroup(int n, std::uint64_t& failed_forks) {
        sigset_t block, old;
        sigemptyset(&block);
        sigaddset(&block, SIGINT);
        sigaddset(&block, SIGTERM);
        const pid_t parent = ::getpid();
        for (int i = 0; i < n; ++i) {
            ::sigprocmask(SIG_BLOCK, &block, &old);
            const pid_t pid = ::fork();
            if (pid == 0) {
                ::signal(SIGINT, SIG_DFL);
                ::signal(SIGTERM, SIG_DFL);
                ::sigprocmask(SIG_SETMASK, &old, nullptr);
                ::setpgid(0, pgid_);
                ::prctl(PR_SET_PDEATHSIG, SIGKILL);
                if (::getppid() != parent) ::_exit(0);
                for (;;) ::pause();
            }
            if (pid > 0) {
                // Both sides set the group, so it holds whichever runs first.
                ::setpgid(pid, pgid_ == 0 ? pid : pgid_);
                if (pgid_ == 0) {
                    pgid_ = pid;
                    g_group.store(pid);
                }
                pids_.push_back(pid);
            } else {
                ++failed_forks;
            }
            ::sigprocmask(SIG_SETMASK, &old, nullptr);
        }
    }
    ~ChildGroup() { kill_all(); }
    ChildGroup(const ChildGroup&) = delete;
    ChildGroup& operator=(const ChildGroup&) = delete;

    [[nodiscard]] const std::vector<pid_t>& pids() const { return pids_; }

    /// Children whose /proc state reads stopped.
    [[nodiscard]] int stopped() const {
        int n = 0;
        for (const pid_t pid : pids_) {
            const auto st = posix::read_proc_stat(pid);
            if (st && (st->state == 'T' || st->state == 't')) ++n;
        }
        return n;
    }

    void kill_all() {
        if (pgid_ == 0) return;
        ::kill(-pgid_, SIGKILL);
        for (const pid_t pid : pids_) {
            while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
            }
        }
        g_group.store(0);
        pgid_ = 0;
        pids_.clear();
    }

private:
    pid_t pgid_ = 0;
    std::vector<pid_t> pids_;
};

/// One read the real scheduler made, as the real host answered it.
using Observation = std::pair<core::HostPid, core::Sample>;

/// Records, in order, every sample the real host returns until the replay
/// drains them: what the scheduler observed. An idle child reads blocked
/// with no new CPU; vCPU steal occasionally shows one still runnable after
/// a SIGCONT, or charges it a stolen slice, and the scheduler rightly
/// reacts to that.
class RecordingHost final : public core::ProcessHost {
public:
    explicit RecordingHost(core::ProcessHost& inner) : inner_(inner) {}

    core::Sample read_pid(core::HostPid pid) override {
        const core::Sample s = inner_.read_pid(pid);
        pending_.emplace_back(pid, s);
        if (s.ok && s.alive && (s.stopped || !s.blocked)) ++nonidle_;
        return s;
    }
    core::ControlResult stop_pid(core::HostPid pid) override { return inner_.stop_pid(pid); }
    core::ControlResult cont_pid(core::HostPid pid) override { return inner_.cont_pid(pid); }
    std::vector<core::HostPid> pids_of_user(core::HostUid uid) override {
        return inner_.pids_of_user(uid);
    }
    using core::ProcessHost::pids_of_user;

    [[nodiscard]] std::vector<Observation>& pending() { return pending_; }
    /// Reads that did not see an idle child (runnable or stopped).
    [[nodiscard]] std::uint64_t nonidle() const { return nonidle_; }

private:
    core::ProcessHost& inner_;
    std::vector<Observation> pending_;
    std::uint64_t nonidle_ = 0;
};

/// The model the real run must match, step by step: answers each read with
/// the next recorded observation and lets every signal succeed. Reading
/// another pid than recorded, or more or fewer reads than recorded in a
/// step, is a mismatch.
class ReplayHost final : public core::ProcessHost {
public:
    explicit ReplayHost(std::vector<Observation>& pending) : pending_(pending) {}

    core::Sample read_pid(core::HostPid pid) override {
        if (next_ < pending_.size() && pending_[next_].first == pid) {
            return pending_[next_++].second;
        }
        matched_ = false;
        core::Sample s;
        s.blocked = true;
        return s;
    }
    core::ControlResult stop_pid(core::HostPid) override { return core::ControlResult::kOk; }
    core::ControlResult cont_pid(core::HostPid) override { return core::ControlResult::kOk; }
    std::vector<core::HostPid> pids_of_user(core::HostUid) override { return {}; }
    using core::ProcessHost::pids_of_user;

    /// Ends a step: every recorded observation must have been replayed.
    void drain() {
        if (next_ != pending_.size()) matched_ = false;
        pending_.clear();
        next_ = 0;
    }
    [[nodiscard]] bool matched() const { return matched_; }

private:
    std::vector<Observation>& pending_;
    std::size_t next_ = 0;
    bool matched_ = true;
};

core::SchedulerConfig scheduler_config() {
    core::SchedulerConfig cfg;
    cfg.quantum = kQuantum;
    return cfg;
}

/// Per-child shares: 1, 2 and 3 in equal measure (as many_core cycles
/// them), in an order drawn from the seed. The multiset is fixed, so every
/// seed has the same idle schedule; the seed decides which child gets which.
std::vector<util::Share> shares_for(std::uint64_t seed, std::size_t n) {
    std::vector<util::Share> shares(n);
    for (std::size_t i = 0; i < n; ++i) shares[i] = static_cast<util::Share>(i % 3 + 1);
    util::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shares[i - 1], shares[j]);
    }
    return shares;
}

/// One scheduler over the children (or over the model), its host stack
/// counting every read and signal.
struct Deployment {
    Deployment(core::ProcessHost& backend, SpanLog* log)
        : host(backend, log, Layer::kPosixRead, Layer::kPosixSignal),
          control(host),
          scheduler(control, scheduler_config()) {}

    TimedHost host;
    core::PidProcessControl control;
    core::Scheduler scheduler;
};

void register_all(core::Scheduler& sched, const std::vector<pid_t>& pids,
                  const std::vector<util::Share>& shares) {
    for (std::size_t i = 0; i < pids.size(); ++i) sched.add(pids[i], shares[i]);
}

struct LoopResult {
    std::uint64_t ticks = 0;
    std::uint64_t missed = 0;  ///< quantum boundaries without a tick
    std::uint64_t nonidle_reads = 0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
};

/// Boundaries a loop of `wall` would tick if none were late.
std::uint64_t boundaries_in(Duration wall) {
    return static_cast<std::uint64_t>((wall.count() - 1) / kQuantum.count());
}

void sleep_until_ns(std::int64_t ns) {
    timespec ts{};
    ts.tv_sec = ns / 1'000'000'000;
    ts.tv_nsec = ns % 1'000'000'000;
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
}

/// Forks the children, registers them, and ticks the scheduler at every
/// quantum boundary for `seconds` (late ticks skip boundaries, as in
/// posix::run_alps_loop), then releases every child. After each tick the
/// model replays it, outside the timed CPU. `log` traces the ticks.
LoopResult measured_loop(std::uint64_t seed, double seconds, SpanLog* log,
                         WorkloadReport& out, Counters* counters) {
    std::uint64_t failed_forks = 0;
    ChildGroup children(kChildren, failed_forks);
    out.attempted += kChildren;
    out.failed += failed_forks;
    const std::vector<pid_t> pids = children.pids();
    const std::vector<util::Share> shares = shares_for(seed, pids.size());
    posix::PosixProcessHost backend;
    RecordingHost recorder(backend);
    Deployment real(recorder, log);
    ReplayHost replay(recorder.pending());
    Deployment model(replay, nullptr);
    register_all(real.scheduler, pids, shares);
    register_all(model.scheduler, pids, shares);
    replay.drain();
    if (log != nullptr) log->clear();

    const auto wall = Duration{static_cast<std::int64_t>(seconds * 1e9)};
    const auto q = kQuantum.count();
    LoopResult r;
    double model_cpu = 0.0;
    const double c0 = process_cpu_s();
    const double w0 = wall_s();
    const auto start = static_cast<std::int64_t>(w0 * 1e9);
    for (std::int64_t boundary = 1; q * boundary < wall.count();) {
        sleep_until_ns(start + q * boundary);
        {
            ScopedSpan span(log, Layer::kTick);
            real.scheduler.tick();
        }
        ++r.ticks;
        const double m0 = process_cpu_s();
        model.scheduler.tick();
        replay.drain();
        model_cpu += process_cpu_s() - m0;
        boundary = (static_cast<std::int64_t>(wall_s() * 1e9) - start) / q + 1;
    }
    real.scheduler.release_all();
    r.cpu_s = process_cpu_s() - c0 - model_cpu;
    r.wall_s = wall_s() - w0;
    model.scheduler.release_all();
    replay.drain();
    const std::uint64_t expected = boundaries_in(wall);
    r.missed = expected > r.ticks ? expected - r.ticks : 0;

    const std::string tag = " (seed " + std::to_string(seed) + ")";
    out.gate(children.stopped() == 0, "no child left stopped after the run" + tag);
    children.kill_all();

    // ALPS's decisions are a function of its observations: the model, fed
    // what the real scheduler observed, must have read and signalled exactly
    // as often, so no operation at the host seam went missing or was added.
    // When every read saw an idle child (nonidle 0), this is exactly the
    // always-blocked idle schedule.
    const HostCounts& got = real.host.counts();
    const HostCounts& want = model.host.counts();
    out.gate(replay.matched() && got.reads == want.reads && got.signals == want.signals &&
                 real.scheduler.cycles_completed() == model.scheduler.cycles_completed(),
             "reads " + std::to_string(got.reads) + "/" + std::to_string(want.reads) +
                 ", signals " + std::to_string(got.signals) + "/" +
                 std::to_string(want.signals) + " match the schedule of the observed states" +
                 tag);
    r.nonidle_reads = recorder.nonidle();
    out.attempted += got.reads + got.signals;
    out.failed += got.read_failures + got.signal_failures;

    if (counters != nullptr) {
        const core::HealthReport h = real.scheduler.health();
        (*counters)["alps.ticks"] = static_cast<double>(r.ticks);
        (*counters)["alps.measurements"] =
            static_cast<double>(real.scheduler.total_measurements());
        (*counters)["alps.read_failures"] = static_cast<double>(h.read_failures);
        (*counters)["alps.retries"] = static_cast<double>(h.retries);
        (*counters)["alps.boundaries_missed"] = static_cast<double>(r.missed);
        (*counters)["posix.reads"] = static_cast<double>(got.reads);
        (*counters)["posix.signals"] = static_cast<double>(got.signals);
        (*counters)["posix.read_failures"] = static_cast<double>(got.read_failures);
    }
    return r;
}

/// CPU time of forking and registering the children.
double setup_sample(std::uint64_t seed, WorkloadReport& out) {
    std::uint64_t failed_forks = 0;
    posix::PosixProcessHost backend;
    Deployment real(backend, nullptr);
    const double c0 = process_cpu_s();
    ChildGroup children(kChildren, failed_forks);
    register_all(real.scheduler, children.pids(),
                 shares_for(seed, children.pids().size()));
    const double cpu = process_cpu_s() - c0;
    real.scheduler.release_all();
    out.attempted += kChildren + real.host.counts().reads + real.host.counts().signals;
    out.failed += failed_forks + real.host.counts().read_failures +
                  real.host.counts().signal_failures;
    return cpu;
}

void add_outcomes(const LoopResult& r, const Counters& c, WorkloadReport& out) {
    const double ticks = static_cast<double>(r.ticks);
    out.outcomes.push_back({"tick_us", 1e6 * r.cpu_s / ticks, "us"});
    out.outcomes.push_back({"alps_overhead_pct", 100.0 * r.cpu_s / r.wall_s, "%"});
    out.outcomes.push_back({"boundaries_missed", static_cast<double>(r.missed), "count"});
    out.outcomes.push_back({"ticks", ticks, "count"});
    const auto per_tick = [&](const char* name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second / ticks;
    };
    out.outcomes.push_back({"reads_per_tick", per_tick("posix.reads"), "count"});
    out.outcomes.push_back({"signals_per_tick", per_tick("posix.signals"), "count"});
    out.outcomes.push_back(
        {"nonidle_reads", static_cast<double>(r.nonidle_reads), "count"});
}

}  // namespace

void install_child_cleanup_handlers() {
    struct sigaction sa{};
    sa.sa_handler = on_fatal_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void run_posix_workload(const RunOptions& opts, WorkloadReport& out) {
    Counters counters;
    if (!opts.trace) {
        std::vector<double> setups;
        for (int i = 0; i < kSetupSamples; ++i) setups.push_back(setup_sample(opts.seed, out));
        const double loop_s =
            std::max(1.0, opts.seconds - kHeldOutSeconds - 0.5);
        const LoopResult r = measured_loop(opts.seed, loop_s, nullptr, out, &counters);
        measured_loop(held_out_seed(opts.seed), kHeldOutSeconds, nullptr, out, nullptr);
        // Scheduled quantum time driven per host CPU second: the real-host
        // counterpart of simulated seconds per host second.
        out.metrics.push_back({"sim_speed",
                               static_cast<double>(r.ticks) * util::to_sec(kQuantum) / r.cpu_s,
                               "s/s"});
        out.metrics.push_back({"setup_s", median(setups), "s"});
        out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
        add_outcomes(r, counters, out);
        for (const auto& [name, value] : counters) out.counters.push_back({name, value, "count"});
        return;
    }
    const double half = std::max(1.0, 0.5 * (opts.seconds - kHeldOutSeconds));
    const LoopResult plain = measured_loop(opts.seed, half, nullptr, out, &counters);
    SpanLog log;
    const LoopResult traced = measured_loop(opts.seed, half, &log, out, nullptr);
    measured_loop(held_out_seed(opts.seed), kHeldOutSeconds, nullptr, out, nullptr);
    const double plain_tick = plain.cpu_s / static_cast<double>(plain.ticks);
    const double traced_tick = traced.cpu_s / static_cast<double>(traced.ticks);
    append_layer_metrics(counters, log, 100.0 * (traced_tick - plain_tick) / plain_tick,
                         out.metrics);
    add_outcomes(plain, counters, out);
    if (!opts.trace_dir.empty()) {
        const std::string path = opts.trace_dir + "/posix_measure.spans.tsv.gz";
        out.gate(log.write(path), "span file written to " + path);
    }
}

}  // namespace alps::perfbench
