#include "os/kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "os/behaviors.h"
#include "os/bsd_policy.h"
#include "sim/engine.h"
#include "util/assert.h"

namespace alps::os {
namespace {

using util::Duration;
using util::msec;
using util::sec;
using util::TimePoint;
using util::to_sec;

/// "p3" for ("p", 3). Built by appending: at -O3, GCC 12 raises a false
/// -Wrestrict on `"p" + std::to_string(i)`.
std::string numbered(const char* prefix, int i) {
    std::string name = prefix;
    name += std::to_string(i);
    return name;
}

struct Machine {
    sim::Engine engine;
    Kernel kernel{engine};

    Pid cpu_hog(const std::string& name = "hog", Uid uid = 0) {
        return kernel.spawn(name, uid, std::make_unique<CpuBoundBehavior>());
    }
    void run_for(Duration d) { engine.run_until(engine.now() + d); }
};

TEST(Kernel, SingleProcessGetsAllCpu) {
    Machine m;
    const Pid p = m.cpu_hog();
    m.run_for(sec(10));
    EXPECT_EQ(m.kernel.cpu_time(p), sec(10));
    EXPECT_EQ(m.kernel.busy_time(), sec(10));
}

TEST(Kernel, IdleMachineAccumulatesNoBusyTime) {
    Machine m;
    m.run_for(sec(5));
    EXPECT_EQ(m.kernel.busy_time(), Duration::zero());
}

TEST(Kernel, TwoEqualProcessesSplitEvenly) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    const Pid b = m.cpu_hog("b");
    m.run_for(sec(10));
    const double fa = to_sec(m.kernel.cpu_time(a));
    const double fb = to_sec(m.kernel.cpu_time(b));
    EXPECT_NEAR(fa, 5.0, 0.3);
    EXPECT_NEAR(fb, 5.0, 0.3);
    EXPECT_NEAR(fa + fb, 10.0, 1e-6);
}

TEST(Kernel, FiveEqualProcessesSplitEvenly) {
    Machine m;
    std::vector<Pid> pids;
    for (int i = 0; i < 5; ++i) pids.push_back(m.cpu_hog(numbered("p", i)));
    m.run_for(sec(20));
    for (Pid p : pids) {
        EXPECT_NEAR(to_sec(m.kernel.cpu_time(p)), 4.0, 0.4) << "pid " << p;
    }
}

TEST(Kernel, RoundRobinContextSwitches) {
    Machine m;
    m.cpu_hog("a");
    m.cpu_hog("b");
    m.run_for(sec(2));
    // 100 ms round-robin between two equal hogs: ~20 switches in 2 s.
    EXPECT_GE(m.kernel.context_switches(), 15u);
    EXPECT_LE(m.kernel.context_switches(), 30u);
}

TEST(Kernel, CpuTimeIncludesInProgressStretch) {
    Machine m;
    const Pid p = m.cpu_hog();
    m.run_for(msec(37));  // mid-slice
    EXPECT_EQ(m.kernel.cpu_time(p), msec(37));
}

TEST(Kernel, FiniteWorkExitsAndBecomesZombie) {
    Machine m;
    const Pid p = m.kernel.spawn("finite", 0, std::make_unique<FiniteCpuBehavior>(msec(250)));
    m.run_for(sec(1));
    EXPECT_FALSE(m.kernel.alive(p));
    EXPECT_TRUE(m.kernel.exists(p));
    EXPECT_EQ(m.kernel.proc(p).state, RunState::kZombie);
    EXPECT_EQ(m.kernel.cpu_time(p), msec(250));
}

TEST(Kernel, ReapRemovesZombie) {
    Machine m;
    const Pid p = m.kernel.spawn("finite", 0, std::make_unique<FiniteCpuBehavior>(msec(10)));
    m.run_for(sec(1));
    m.kernel.reap(p);
    EXPECT_FALSE(m.kernel.exists(p));
}

/// Forwards to BsdPolicy and records what every second_tick receives and
/// how often the kernel asks for the queue length (only steal and
/// rebalance do).
class RecordingPolicy final : public SchedPolicy {
public:
    struct Tick {
        std::vector<Pid> pids;
        double loadavg = 0.0;
    };
    std::vector<Tick> ticks;
    mutable std::size_t runnable_calls = 0;

    void add(Proc& p) override { inner_.add(p); }
    void remove(Proc& p) override { inner_.remove(p); }
    void enqueue(Proc& p) override { inner_.enqueue(p); }
    void dequeue(Proc& p) override { inner_.dequeue(p); }
    Proc* peek() override { return inner_.peek(); }
    Proc* pop() override { return inner_.pop(); }
    [[nodiscard]] bool preempts(const Proc& cand, const Proc& running) const override {
        return inner_.preempts(cand, running);
    }
    [[nodiscard]] bool yields_to(const Proc& running, const Proc& cand) const override {
        return inner_.yields_to(running, cand);
    }
    void charge(Proc& p, Duration ran) override { inner_.charge(p, ran); }
    void on_wakeup(Proc& p, Duration slept) override { inner_.on_wakeup(p, slept); }
    void second_tick(std::span<Proc* const> procs, double loadavg,
                     TimePoint now) override {
        Tick tick;
        for (const Proc* p : procs) tick.pids.push_back(p->pid);
        tick.loadavg = loadavg;
        ticks.push_back(std::move(tick));
        inner_.second_tick(procs, loadavg, now);
    }
    [[nodiscard]] Duration slice() const override { return inner_.slice(); }
    [[nodiscard]] std::size_t runnable() const override {
        ++runnable_calls;
        return inner_.runnable();
    }
    void on_migrate_in(Proc& p) override { inner_.on_migrate_in(p); }

private:
    BsdPolicy inner_;
};

TEST(Kernel, SecondTickWalksTheTableInCreationOrder) {
    // The schedcpu pass walks the pid-indexed table: a reaped pid leaves a
    // hole that is skipped, the rest arrive in creation order, and the load
    // average counts only eligible processes (a stopped one is handed to
    // the policy but not counted).
    sim::Engine engine;
    auto owned = std::make_unique<RecordingPolicy>();
    RecordingPolicy& policy = *owned;
    Kernel kernel(engine, std::move(owned));
    const Pid a = kernel.spawn("a", 0, std::make_unique<CpuBoundBehavior>());
    const Pid b = kernel.spawn("b", 0, std::make_unique<CpuBoundBehavior>());
    const Pid c = kernel.spawn("c", 0, std::make_unique<CpuBoundBehavior>());
    engine.run_until(TimePoint{} + msec(100));
    kernel.send_signal(b, Signal::kKill);
    kernel.reap(b);
    kernel.send_signal(c, Signal::kStop);
    engine.run_until(TimePoint{} + msec(1500));

    ASSERT_EQ(policy.ticks.size(), 1u);
    EXPECT_EQ(policy.ticks[0].pids, (std::vector<Pid>{a, c}));
    // One eligible process (a) folded into an empty 60 s EWMA over 1 s.
    const double expected = 1.0 - std::exp(-1.0 / 60.0);
    EXPECT_NEAR(policy.ticks[0].loadavg, expected, 1e-12);
    EXPECT_DOUBLE_EQ(kernel.loadavg(), policy.ticks[0].loadavg);
}

/// A 4-CPU per-CPU kernel whose domains are RecordingPolicy instances.
struct RecordingPercpuMachine {
    sim::Engine engine;
    std::vector<RecordingPolicy*> domains;
    std::unique_ptr<Kernel> kernel;

    RecordingPercpuMachine() {
        std::vector<std::unique_ptr<SchedPolicy>> owned;
        for (int d = 0; d < 4; ++d) {
            auto policy = std::make_unique<RecordingPolicy>();
            domains.push_back(policy.get());
            owned.push_back(std::move(policy));
        }
        kernel = std::make_unique<Kernel>(engine, std::move(owned),
                                          KernelConfig{.ncpus = 4, .percpu_queues = true});
    }
    Pid hog(int home_cpu, bool pinned) {
        return kernel->spawn("hog", 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0,
                             home_cpu, pinned);
    }
    std::size_t runnable_calls() const {
        std::size_t n = 0;
        for (const RecordingPolicy* d : domains) n += d->runnable_calls;
        return n;
    }
};

TEST(Kernel, StealAndRebalanceSkipTheirSearchWhenEveryProcessIsPinned) {
    // Two pinned hogs share CPU 0, so CPUs 1-3 sit idle and every pass
    // would look for work to steal, and every schedcpu tick would look for
    // an imbalance. Neither can move a pinned head, so neither reads a
    // queue length.
    RecordingPercpuMachine m;
    m.hog(0, /*pinned=*/true);
    m.hog(0, /*pinned=*/true);
    m.engine.run_until(TimePoint{} + msec(2500));
    EXPECT_EQ(m.runnable_calls(), 0u);
    EXPECT_EQ(m.kernel->migrations(), 0u);

    // One unpinned process makes both searches real again...
    const Pid free_hog = m.hog(0, /*pinned=*/false);
    m.engine.run_until(TimePoint{} + msec(5000));
    EXPECT_GT(m.runnable_calls(), 0u);
    EXPECT_EQ(m.kernel->steals(), 1u);  // the free hog moved to an idle CPU
    EXPECT_NE(m.kernel->proc(free_hog).home_cpu, 0);

    // ...and its exit makes them skippable once more.
    m.kernel->send_signal(free_hog, Signal::kKill);
    for (RecordingPolicy* d : m.domains) d->runnable_calls = 0;
    m.engine.run_until(TimePoint{} + msec(7500));
    EXPECT_EQ(m.runnable_calls(), 0u);
}

TEST(Kernel, PerDomainConstructorRequiresOnePolicyPerCpu) {
    sim::Engine engine;
    std::vector<std::unique_ptr<SchedPolicy>> two;
    two.push_back(std::make_unique<BsdPolicy>());
    two.push_back(std::make_unique<BsdPolicy>());
    EXPECT_THROW(Kernel(engine, std::move(two), KernelConfig{.ncpus = 4, .percpu_queues = true}),
                 util::ContractViolation);
}

TEST(Kernel, OneDecisionEventWhateverTheCpuCount) {
    // Every pass serves every CPU, so the kernel keeps one pending decision
    // event (plus the schedcpu tick), not one per busy CPU, and none once
    // every CPU is idle.
    sim::Engine engine;
    Kernel kernel(engine, nullptr, KernelConfig{.ncpus = 4});
    std::vector<Pid> hogs;
    for (int i = 0; i < 4; ++i) {
        hogs.push_back(kernel.spawn(numbered("h", i), 0, std::make_unique<CpuBoundBehavior>()));
    }
    engine.run_until(TimePoint{} + msec(30));
    EXPECT_EQ(engine.live_events(), 2u);
    kernel.send_signal(hogs[0], Signal::kStop);
    EXPECT_EQ(engine.live_events(), 2u);
    for (std::size_t i = 1; i < hogs.size(); ++i) kernel.send_signal(hogs[i], Signal::kStop);
    EXPECT_EQ(engine.live_events(), 1u);  // idle machine: the tick only
    kernel.send_signal(hogs[2], Signal::kCont);
    EXPECT_EQ(engine.live_events(), 2u);
}

TEST(Kernel, DecisionFiresForANewOccupantWithTheSameDeadline) {
    // The hog's slice ends at 100 ms. Stopping it at 50 ms hands the CPU to
    // a job with exactly 50 ms of work left: a new process, same deadline.
    // The decision at 100 ms must still run and see the job finish.
    Machine m;
    const Pid hog = m.cpu_hog();
    const Pid job = m.kernel.spawn("job", 0, std::make_unique<FiniteCpuBehavior>(msec(50)));
    m.run_for(msec(50));
    m.kernel.send_signal(hog, Signal::kStop);
    ASSERT_EQ(m.kernel.running_pid(), job);
    m.engine.run_until(TimePoint{} + msec(100) - Duration{1});
    EXPECT_EQ(m.kernel.proc(job).state, RunState::kRunning);
    m.engine.run_until(TimePoint{} + msec(100));
    EXPECT_EQ(m.kernel.proc(job).state, RunState::kZombie);
    EXPECT_EQ(m.kernel.cpu_time(job), msec(50));
    EXPECT_EQ(m.kernel.cpu_time(hog), msec(50));
    EXPECT_EQ(m.engine.live_events(), 1u);  // nothing left to decide
}

TEST(Kernel, ReapLiveProcessViolatesContract) {
    Machine m;
    const Pid p = m.cpu_hog();
    EXPECT_THROW(m.kernel.reap(p), util::ContractViolation);
}

TEST(Kernel, PhasedIoConsumesDutyCycle) {
    Machine m;
    // 10 ms CPU then 90 ms sleep, alone on the machine: 10% duty cycle.
    const Pid p = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(90)));
    m.run_for(sec(10));
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(p)), 1.0, 0.05);
}

TEST(Kernel, SleeperIsBlockedRunnableIsNot) {
    Machine m;
    const Pid hog = m.cpu_hog();
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(5), msec(500)));
    // The io process waits behind the hog's first 100 ms round-robin slice,
    // runs its 5 ms burst at ~100 ms, then sleeps until ~605 ms.
    m.run_for(msec(150));
    EXPECT_TRUE(m.kernel.is_blocked(io));
    EXPECT_FALSE(m.kernel.is_blocked(hog));
}

TEST(Kernel, SleeperPreemptsPromptlyDespiteCompetition) {
    Machine m;
    m.cpu_hog("hog");
    // Interactive-like process: tiny bursts, long sleeps. The BSD policy
    // keeps its estcpu low, so it should receive nearly its full demand.
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(200)));
    m.run_for(sec(20));
    // Demand is 10/210 of the CPU ~= 0.95 s over 20 s.
    EXPECT_GT(to_sec(m.kernel.cpu_time(io)), 0.75);
}

TEST(Kernel, SigStopHaltsConsumption) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    const Pid b = m.cpu_hog("b");
    m.run_for(sec(2));
    const Duration a_before = m.kernel.cpu_time(a);
    m.kernel.send_signal(a, Signal::kStop);
    m.run_for(sec(2));
    EXPECT_EQ(m.kernel.cpu_time(a), a_before);  // no progress while stopped
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(b)), 3.0, 0.3);  // b got the freed CPU
    EXPECT_TRUE(m.kernel.proc(a).stopped);
}

TEST(Kernel, SigContResumesConsumption) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    m.kernel.send_signal(a, Signal::kStop);
    m.run_for(sec(1));
    EXPECT_EQ(m.kernel.cpu_time(a), Duration::zero());
    m.kernel.send_signal(a, Signal::kCont);
    m.run_for(sec(1));
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(a)), 1.0, 1e-6);
}

TEST(Kernel, RedundantStopAndContAreIdempotent) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    m.kernel.send_signal(a, Signal::kStop);
    m.kernel.send_signal(a, Signal::kStop);
    m.kernel.send_signal(a, Signal::kCont);
    m.kernel.send_signal(a, Signal::kCont);
    m.run_for(sec(1));
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(a)), 1.0, 1e-6);
}

TEST(Kernel, StopWhileSleepingKeepsSleeping) {
    Machine m;
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(300)));
    m.run_for(msec(50));  // now sleeping until 310 ms
    EXPECT_TRUE(m.kernel.is_blocked(io));
    m.kernel.send_signal(io, Signal::kStop);
    EXPECT_TRUE(m.kernel.is_blocked(io));  // still asleep (job control)
    // Sleep expires at 310 ms while stopped: becomes runnable-but-stopped.
    m.run_for(msec(500));
    EXPECT_FALSE(m.kernel.is_blocked(io));
    const Duration before = m.kernel.cpu_time(io);
    m.run_for(msec(500));
    EXPECT_EQ(m.kernel.cpu_time(io), before);  // no CPU while stopped
    m.kernel.send_signal(io, Signal::kCont);
    m.run_for(msec(50));
    EXPECT_GT(m.kernel.cpu_time(io), before);  // resumed its burst
}

TEST(Kernel, KillTerminates) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    m.run_for(sec(1));
    m.kernel.send_signal(a, Signal::kKill);
    EXPECT_FALSE(m.kernel.alive(a));
    EXPECT_EQ(m.kernel.cpu_time(a), sec(1));  // rusage survives as zombie
}

TEST(Kernel, KillStoppedProcess) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    m.kernel.send_signal(a, Signal::kStop);
    m.kernel.send_signal(a, Signal::kKill);
    EXPECT_FALSE(m.kernel.alive(a));
}

TEST(Kernel, SignalToZombieIsIgnored) {
    Machine m;
    const Pid a = m.cpu_hog("a");
    m.kernel.send_signal(a, Signal::kKill);
    m.kernel.send_signal(a, Signal::kStop);  // no effect, no throw
    m.kernel.send_signal(a, Signal::kCont);
    EXPECT_FALSE(m.kernel.alive(a));
}

TEST(Kernel, WakeupChannelWakesBlockedProcess) {
    Machine m;
    std::vector<Action> script{BlockAction{}, RunAction{msec(50)}};
    const Pid p = m.kernel.spawn("blocker", 0,
                                 std::make_unique<ScriptedBehavior>(script));
    m.run_for(sec(1));
    EXPECT_TRUE(m.kernel.is_blocked(p));
    EXPECT_EQ(m.kernel.cpu_time(p), Duration::zero());
    m.kernel.wakeup(p);
    m.run_for(sec(1));
    EXPECT_EQ(m.kernel.cpu_time(p), msec(50));
    EXPECT_FALSE(m.kernel.alive(p));  // script exhausted -> exit
}

TEST(Kernel, WakeupChannelWakesAllWaiters) {
    Machine m;
    std::vector<Pid> pids;
    for (int i = 0; i < 3; ++i) {
        std::vector<Action> script{BlockAction{}, RunAction{msec(10)}};
        std::string name = "b";
        name += std::to_string(i);
        pids.push_back(m.kernel.spawn(name, 0, std::make_unique<ScriptedBehavior>(script)));
    }
    m.run_for(msec(10));
    for (Pid p : pids) m.kernel.wakeup(p);  // all at the same instant
    m.run_for(sec(1));
    for (Pid p : pids) EXPECT_EQ(m.kernel.cpu_time(p), msec(10));
}

TEST(Kernel, WakeupRejectsPidsNotInAnUntimedSleep) {
    Machine m;
    const Pid first = m.cpu_hog("first");
    const Pid second = m.cpu_hog("second");
    std::vector<Action> nap{SleepAction{sec(10)}, RunAction{msec(1)}};
    const Pid napper = m.kernel.spawn("napper", 0, std::make_unique<ScriptedBehavior>(nap));
    const Pid zombie = m.cpu_hog("zombie");
    const Pid reaped = m.cpu_hog("reaped");
    m.run_for(msec(5));
    m.kernel.send_signal(zombie, Signal::kKill);
    m.kernel.send_signal(reaped, Signal::kKill);
    m.kernel.reap(reaped);

    const Pid running = m.kernel.running_pid();
    const Pid runnable = running == first ? second : first;
    ASSERT_EQ(m.kernel.proc(running).state, RunState::kRunning);
    ASSERT_EQ(m.kernel.proc(runnable).state, RunState::kRunnable);
    ASSERT_EQ(m.kernel.proc(napper).state, RunState::kSleeping);
    ASSERT_EQ(m.kernel.proc(zombie).state, RunState::kZombie);
    ASSERT_FALSE(m.kernel.exists(reaped));
    for (const Pid p : {running, runnable, napper, zombie, reaped}) {
        EXPECT_THROW(m.kernel.wakeup(p), util::ContractViolation) << p;
    }
    // The rejected calls changed nothing: the timed sleeper still wakes on
    // its own timer, and the CPU never idles.
    m.run_for(sec(11));
    EXPECT_EQ(m.kernel.cpu_time(napper), msec(1));
    EXPECT_FALSE(m.kernel.alive(napper));
    EXPECT_EQ(m.kernel.busy_time(), m.engine.now().since_epoch);
}

TEST(Kernel, PidsOfUidFiltersAndOrders) {
    Machine m;
    const Pid a = m.cpu_hog("a", 100);
    const Pid b = m.cpu_hog("b", 200);
    const Pid c = m.cpu_hog("c", 100);
    EXPECT_EQ(m.kernel.pids_of_uid(100), (std::vector<Pid>{a, c}));
    EXPECT_EQ(m.kernel.pids_of_uid(200), (std::vector<Pid>{b}));
    EXPECT_TRUE(m.kernel.pids_of_uid(300).empty());
    m.kernel.send_signal(c, Signal::kKill);
    EXPECT_EQ(m.kernel.pids_of_uid(100), (std::vector<Pid>{a}));
}

TEST(Kernel, SpawnMidRunGetsScheduled) {
    Machine m;
    m.cpu_hog("a");
    m.run_for(sec(2));
    const Pid late = m.cpu_hog("late");
    m.run_for(sec(2));
    // The newcomer has estcpu 0 (better priority) and must catch up
    // substantially; at minimum it runs a large fraction of the split.
    EXPECT_GT(to_sec(m.kernel.cpu_time(late)), 0.8);
}

TEST(Kernel, LoadAverageConvergesTowardRunnableCount) {
    Machine m;
    for (int i = 0; i < 4; ++i) m.cpu_hog(numbered("p", i));
    m.run_for(sec(120));  // two time constants of the 1-minute EWMA
    EXPECT_GT(m.kernel.loadavg(), 2.5);
    EXPECT_LT(m.kernel.loadavg(), 4.1);
}

TEST(Kernel, DeterministicAcrossRuns) {
    auto run = [] {
        Machine m;
        const Pid a = m.cpu_hog("a");
        const Pid b = m.kernel.spawn(
            "io", 0, std::make_unique<PhasedIoBehavior>(util::msec(7), util::msec(23)));
        m.run_for(sec(5));
        return std::pair{m.kernel.cpu_time(a), m.kernel.cpu_time(b)};
    };
    EXPECT_EQ(run(), run());
}

TEST(Kernel, RunningPidReflectsDispatch) {
    Machine m;
    EXPECT_EQ(m.kernel.running_pid(), kNoPid);
    const Pid a = m.cpu_hog("a");
    m.run_for(msec(1));
    EXPECT_EQ(m.kernel.running_pid(), a);
}

TEST(Kernel, QueriesOnUnknownPidViolateContract) {
    Machine m;
    EXPECT_THROW((void)m.kernel.cpu_time(99), util::ContractViolation);
    EXPECT_THROW(m.kernel.send_signal(99, Signal::kStop), util::ContractViolation);
    EXPECT_FALSE(m.kernel.exists(99));
    EXPECT_FALSE(m.kernel.alive(99));
}

TEST(Kernel, SampleAgreesWithTheSplitQueriesInEveryState) {
    // sample() is the one read the ALPS tick makes per process; it must say
    // exactly what cpu_time(), is_blocked(), proc().stopped and alive() say.
    Machine m;
    const Pid hog = m.cpu_hog();
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(30), msec(100)));
    const Proc& p = m.kernel.proc(io);  // valid until the reap below

    const auto expect_live_agrees = [&](Pid pid) {
        const Kernel::SampleView s = m.kernel.sample(pid);
        EXPECT_TRUE(s.alive);
        EXPECT_TRUE(m.kernel.alive(pid));
        EXPECT_EQ(s.cpu_time, m.kernel.cpu_time(pid));
        EXPECT_EQ(s.blocked, m.kernel.is_blocked(pid));
        EXPECT_EQ(s.stopped, m.kernel.proc(pid).stopped);
    };
    const auto expect_dead = [&](Pid pid) {
        const Kernel::SampleView s = m.kernel.sample(pid);
        EXPECT_FALSE(s.alive);
        EXPECT_FALSE(m.kernel.alive(pid));
        EXPECT_EQ(s.cpu_time, Duration::zero());
        EXPECT_FALSE(s.blocked);
        EXPECT_FALSE(s.stopped);
    };
    const auto step_until = [&](auto reached) {
        for (int i = 0; i < 2000 && !reached(); ++i) m.run_for(msec(1));
        return reached();
    };

    // Queued behind the hog's first slice.
    m.run_for(msec(10));
    ASSERT_TRUE(p.state == RunState::kRunnable && p.on_cpu < 0 && !p.stopped);
    expect_live_agrees(io);
    expect_live_agrees(hog);  // running, mid-stretch

    // Running, mid-stretch: the reading includes the uncharged tail.
    ASSERT_TRUE(step_until([&] {
        return p.state == RunState::kRunning && p.last_charge < m.kernel.now();
    }));
    expect_live_agrees(io);
    expect_live_agrees(hog);  // queued

    // Sleeping on its I/O.
    ASSERT_TRUE(step_until([&] { return p.state == RunState::kSleeping; }));
    expect_live_agrees(io);

    // Stopped while sleeping (job control keeps it asleep).
    m.kernel.send_signal(io, Signal::kStop);
    ASSERT_TRUE(p.state == RunState::kSleeping && p.stopped);
    expect_live_agrees(io);

    // The sleep expires while stopped: runnable but stopped.
    ASSERT_TRUE(step_until([&] { return p.state == RunState::kRunnable; }));
    ASSERT_TRUE(p.stopped);
    expect_live_agrees(io);

    // Zombie, then reaped: never sampled as alive again.
    m.kernel.send_signal(io, Signal::kKill);
    ASSERT_TRUE(m.kernel.exists(io));
    expect_dead(io);
    m.kernel.reap(io);
    ASSERT_FALSE(m.kernel.exists(io));
    expect_dead(io);

    // Never issued, and the reserved kNoPid.
    expect_dead(io + 100);
    expect_dead(kNoPid);
    expect_live_agrees(hog);
}

TEST(Kernel, ZeroLengthSleepScriptProgresses) {
    Machine m;
    std::vector<Action> script{RunAction{msec(5)}, SleepAction{Duration::zero()},
                               RunAction{msec(5)}};
    const Pid p = m.kernel.spawn("z", 0, std::make_unique<ScriptedBehavior>(script));
    m.run_for(sec(1));
    EXPECT_EQ(m.kernel.cpu_time(p), msec(10));
    EXPECT_FALSE(m.kernel.alive(p));
}

TEST(Kernel, ManyProcessesConserveTotalCpu) {
    Machine m;
    std::vector<Pid> pids;
    for (int i = 0; i < 30; ++i) pids.push_back(m.cpu_hog(numbered("p", i)));
    m.run_for(sec(30));
    Duration total{0};
    for (Pid p : pids) total += m.kernel.cpu_time(p);
    EXPECT_EQ(total, sec(30));  // work-conserving, no lost time
}

}  // namespace
}  // namespace alps::os
