// Multi-CPU kernel tests (the SMP extension; the paper's host has one CPU).
// FreeBSD 4.x SMP semantics: one global run queue feeding all CPUs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "os/policies/cfs.h"
#include "os/policies/factory.h"
#include "os/policies/lottery.h"
#include "os/policies/stride.h"
#include "sim/engine.h"

namespace alps::os {
namespace {

using util::Duration;
using util::msec;
using util::sec;
using util::to_sec;

/// "p3" for ("p", 3). Built by appending: at -O3, GCC 12 raises a false
/// -Wrestrict on `"p" + std::to_string(i)`.
std::string numbered(const char* prefix, int i) {
    std::string name = prefix;
    name += std::to_string(i);
    return name;
}

struct SmpMachine {
    sim::Engine engine;
    Kernel kernel;

    explicit SmpMachine(int ncpus)
        : kernel(engine, nullptr, KernelConfig{.ncpus = ncpus}) {}

    Pid hog(const std::string& name = "hog") {
        return kernel.spawn(name, 0, std::make_unique<CpuBoundBehavior>());
    }
    void run_for(Duration d) { engine.run_until(engine.now() + d); }
};

TEST(SmpKernel, TwoHogsOnTwoCpusBothRunFlatOut) {
    SmpMachine m(2);
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.run_for(sec(5));
    EXPECT_EQ(m.kernel.cpu_time(a), sec(5));
    EXPECT_EQ(m.kernel.cpu_time(b), sec(5));
    EXPECT_EQ(m.kernel.busy_time(), sec(10));  // summed over CPUs
}

TEST(SmpKernel, SingleHogUsesOneCpuOnly) {
    SmpMachine m(4);
    const Pid a = m.hog("a");
    m.run_for(sec(3));
    EXPECT_EQ(m.kernel.cpu_time(a), sec(3));  // one process <= one CPU
    EXPECT_EQ(m.kernel.busy_time(), sec(3));
}

TEST(SmpKernel, FourHogsOnTwoCpusSplitEvenly) {
    SmpMachine m(2);
    std::vector<Pid> pids;
    for (int i = 0; i < 4; ++i) pids.push_back(m.hog(numbered("p", i)));
    m.run_for(sec(10));
    Duration total{0};
    for (const Pid p : pids) {
        EXPECT_NEAR(to_sec(m.kernel.cpu_time(p)), 5.0, 0.5) << p;
        total += m.kernel.cpu_time(p);
    }
    EXPECT_EQ(total, sec(20));  // work conservation across CPUs
}

TEST(SmpKernel, RunningPidsPerCpuAreDistinct) {
    SmpMachine m(2);
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.run_for(msec(5));
    const Pid r0 = m.kernel.running_pid_on(0);
    const Pid r1 = m.kernel.running_pid_on(1);
    EXPECT_NE(r0, kNoPid);
    EXPECT_NE(r1, kNoPid);
    EXPECT_NE(r0, r1);
    EXPECT_TRUE((r0 == a && r1 == b) || (r0 == b && r1 == a));
}

TEST(SmpKernel, StopFreesACpuForTheQueue) {
    SmpMachine m(2);
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    const Pid c = m.hog("c");  // queued: 3 procs on 2 CPUs
    m.run_for(sec(6));
    // Roughly 4 s each (2 CPUs x 6 s over 3 procs).
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(c)), 4.0, 0.5);
    m.kernel.send_signal(a, Signal::kStop);
    const Duration b0 = m.kernel.cpu_time(b);
    const Duration c0 = m.kernel.cpu_time(c);
    m.run_for(sec(4));
    // b and c now own a CPU each.
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(b) - b0), 4.0, 0.1);
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(c) - c0), 4.0, 0.1);
}

TEST(SmpKernel, SleeperWakesOntoIdleCpu) {
    SmpMachine m(2);
    m.hog("a");
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(90)));
    m.run_for(sec(10));
    // One CPU is otherwise idle, so the 10% duty cycle is fully served.
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(io)), 1.0, 0.05);
}

TEST(SmpKernel, WakeBoostPreemptsOnBusyMachine) {
    SmpMachine m(2);
    m.hog("a");
    m.hog("b");
    m.hog("c");  // all CPUs busy, one queued
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(5), msec(45)));
    m.run_for(sec(10));
    // Demand is 10% of one CPU; the boost must deliver nearly all of it even
    // though every CPU is contended.
    EXPECT_GT(to_sec(m.kernel.cpu_time(io)), 0.8);
}

TEST(SmpKernel, DeterministicAcrossRuns) {
    auto run = [] {
        SmpMachine m(3);
        std::vector<Pid> pids;
        for (int i = 0; i < 7; ++i) pids.push_back(m.hog(numbered("p", i)));
        m.run_for(sec(7));
        std::vector<Duration> out;
        for (const Pid p : pids) out.push_back(m.kernel.cpu_time(p));
        return out;
    };
    EXPECT_EQ(run(), run());
}

// ----- per-CPU scheduling domains (KernelConfig::percpu_queues) -----

struct PercpuMachine {
    sim::Engine engine;
    Kernel kernel;

    explicit PercpuMachine(int ncpus, std::string policy = "bsd")
        : kernel(engine, nullptr,
                 KernelConfig{.ncpus = ncpus,
                              .policy = std::move(policy),
                              .percpu_queues = true}) {}

    Pid hog(const std::string& name, int home_cpu = -1) {
        return kernel.spawn(name, 0, std::make_unique<CpuBoundBehavior>(),
                            /*nice=*/0, home_cpu);
    }
    void run_for(Duration d) { engine.run_until(engine.now() + d); }
};

TEST(PercpuKernel, IdleCpuStealsFromLoadedPeer) {
    PercpuMachine m(2);
    // Both hogs pinned to CPU 0: CPU 1 starts idle and must steal one.
    const Pid a = m.hog("a", 0);
    const Pid b = m.hog("b", 0);
    m.run_for(sec(5));
    EXPECT_GT(m.kernel.steals(), 0u);
    EXPECT_EQ(m.kernel.cpu_time(a) + m.kernel.cpu_time(b), sec(10));
    EXPECT_EQ(m.kernel.cpu_time(a), sec(5));
    EXPECT_EQ(m.kernel.cpu_time(b), sec(5));
}

TEST(PercpuKernel, RebalanceSpreadsSkewedLoad) {
    PercpuMachine m(4);
    // Six hogs all pinned to CPU 0; steal seeds the idle CPUs and the
    // schedcpu rebalance keeps the queues level afterwards.
    std::vector<Pid> pids;
    for (int i = 0; i < 6; ++i) pids.push_back(m.hog(numbered("p", i), 0));
    m.run_for(sec(12));
    Duration total{0};
    for (const Pid p : pids) total += m.kernel.cpu_time(p);
    EXPECT_EQ(total, sec(48));  // work conservation: 4 CPUs x 12 s
    // Balancing settles at a 2/2/1/1 spread (rebalance stops below a
    // spread of 2), so shares land between 6 s and 12 s. Without any
    // balancing all six would share CPU 0 at 2 s each — the floor below
    // asserts the queues actually spread out.
    for (const Pid p : pids) {
        EXPECT_GE(to_sec(m.kernel.cpu_time(p)), 5.0) << p;
        EXPECT_LE(to_sec(m.kernel.cpu_time(p)), 12.0) << p;
    }
    EXPECT_GT(m.kernel.migrations(), 0u);
}

TEST(PercpuKernel, PinnedSingleHogsNeverMigrate) {
    PercpuMachine m(2);
    // One hog per CPU: load is already level, so no steal or rebalance
    // traffic may occur.
    const Pid a = m.hog("a", 0);
    const Pid b = m.hog("b", 1);
    m.run_for(sec(5));
    EXPECT_EQ(m.kernel.steals(), 0u);
    EXPECT_EQ(m.kernel.migrations(), 0u);
    EXPECT_EQ(m.kernel.cpu_time(a), sec(5));
    EXPECT_EQ(m.kernel.cpu_time(b), sec(5));
    EXPECT_EQ(m.kernel.proc(a).home_cpu, 0);
    EXPECT_EQ(m.kernel.proc(b).home_cpu, 1);
}

TEST(PercpuKernel, WorkConservingForAllPolicies) {
    for (const char* policy : {"bsd", "lottery", "stride", "cfs"}) {
        PercpuMachine m(2, policy);
        std::vector<Pid> pids;
        // Default placement (round-robin by pid) plus one deliberate skew.
        for (int i = 0; i < 3; ++i) pids.push_back(m.hog(numbered("p", i)));
        pids.push_back(m.hog("pinned", 0));
        m.run_for(sec(8));
        Duration total{0};
        for (const Pid p : pids) total += m.kernel.cpu_time(p);
        EXPECT_EQ(total, sec(16)) << policy;  // 2 CPUs x 8 s, no idle gaps
    }
}

TEST(PercpuKernel, SleeperWakesOnHomeCpu) {
    PercpuMachine m(2);
    m.hog("a", 0);
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(90)),
        /*nice=*/0, /*home_cpu=*/1);
    m.run_for(sec(10));
    // CPU 1 is idle except for the 10% duty cycle, which is fully served.
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(io)), 1.0, 0.05);
    EXPECT_EQ(m.kernel.proc(io).home_cpu, 1);
}

TEST(PercpuKernel, StealLeavesPinnedLotteryHeadUntouched) {
    PercpuMachine m(2, "lottery");
    // Both pinned to CPU 0: the hog runs until the sleeper wakes at 30 ms
    // with the wake boost and preempts it mid-quantum, so the hog queues
    // holding a compensation ticket (quantum / stint = 100 / 30). CPU 1 is
    // idle throughout and tries to steal from CPU 0 at every schedule().
    const Pid hog = m.kernel.spawn("hog", 0, std::make_unique<CpuBoundBehavior>(),
                                   /*nice=*/0, /*home_cpu=*/0, /*pinned=*/true);
    std::vector<Action> script{SleepAction{msec(30)}, RunAction{msec(15)}};
    m.kernel.spawn("waker", 0, std::make_unique<ScriptedBehavior>(script),
                   /*nice=*/0, /*home_cpu=*/0, /*pinned=*/true);
    const auto& lottery =
        dynamic_cast<const policies::LotteryPolicy&>(m.kernel.policy_on(0));
    const double expected = 100.0 / 30.0;
    for (const Duration until : {msec(31), msec(38), msec(44)}) {
        m.engine.run_until(util::TimePoint{} + until);
        ASSERT_EQ(m.kernel.proc(hog).state, RunState::kRunnable) << until.count();
        EXPECT_DOUBLE_EQ(lottery.compensation(m.kernel.proc(hog)), expected)
            << until.count();
    }
    EXPECT_EQ(m.kernel.steals(), 0u);
    EXPECT_EQ(m.kernel.migrations(), 0u);
    EXPECT_EQ(m.kernel.proc(hog).home_cpu, 0);
    EXPECT_EQ(m.kernel.running_pid_on(1), kNoPid);
}

TEST(PercpuKernel, WakeupOnOneCpuArmsOneDecisionEvent) {
    // One pinned hog per CPU plus a sleeper pinned to CPU 0. Waking the
    // sleeper changes CPU 0 only; the pass re-arms the kernel's single
    // decision event and touches no other CPU's timing.
    for (const int ncpus : {4, 16}) {
        PercpuMachine m(ncpus);
        for (int c = 0; c < ncpus; ++c) {
            m.kernel.spawn(numbered("hog", c), 0, std::make_unique<CpuBoundBehavior>(),
                           /*nice=*/0, c, /*pinned=*/true);
        }
        std::vector<Action> script{BlockAction{}, RunAction{msec(5)}};
        const Pid sleeper =
            m.kernel.spawn("sleeper", 0, std::make_unique<ScriptedBehavior>(script, true),
                           /*nice=*/0, /*home_cpu=*/0, /*pinned=*/true);
        m.run_for(msec(50));
        ASSERT_TRUE(m.kernel.is_blocked(sleeper));
        const std::uint64_t before = m.engine.events_scheduled();
        m.kernel.wakeup(sleeper);
        EXPECT_EQ(m.kernel.running_pid_on(0), sleeper) << ncpus;  // boost preempted
        EXPECT_EQ(m.engine.events_scheduled() - before, 1u) << ncpus;
    }
}

/// Spawns a pinned hog on CPU 0, a pinned 50 ms job on CPU 1 and an
/// unpinned hog homed on CPU 0 that waits behind the first; returns the
/// unpinned hog. When the job exits, CPU 1 steals it.
Pid spawn_steal_scenario(PercpuMachine& m) {
    m.kernel.spawn("pinned", 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0, 0,
                   /*pinned=*/true);
    m.kernel.spawn("job", 0, std::make_unique<FiniteCpuBehavior>(msec(50)), /*nice=*/0, 1,
                   /*pinned=*/true);
    return m.hog("mover", 0);
}

TEST(PercpuKernel, LotteryTicketsSurviveMigration) {
    PercpuMachine m(2, "lottery");
    const Pid mover = spawn_steal_scenario(m);
    dynamic_cast<policies::LotteryPolicy&>(m.kernel.policy())
        .set_tickets(m.kernel.proc(mover), 5000);
    m.run_for(msec(60));
    ASSERT_EQ(m.kernel.steals(), 1u);
    ASSERT_EQ(m.kernel.proc(mover).home_cpu, 1);
    const auto& joined = dynamic_cast<const policies::LotteryPolicy&>(m.kernel.policy_on(1));
    EXPECT_EQ(joined.effective_tickets(m.kernel.proc(mover)), 5000);
}

TEST(PercpuKernel, StrideTicketsSurviveMigration) {
    PercpuMachine m(2, "stride");
    const Pid mover = spawn_steal_scenario(m);
    dynamic_cast<policies::StridePolicy&>(m.kernel.policy())
        .set_tickets(m.kernel.proc(mover), 5000);
    // The job on CPU 1 exits at 50 ms, and that same event lets CPU 1 steal.
    m.run_for(msec(50));
    ASSERT_EQ(m.kernel.steals(), 1u);
    EXPECT_EQ(m.kernel.running_pid_on(1), mover);
    EXPECT_EQ(m.kernel.cpu_time(mover), Duration::zero());
    m.run_for(msec(10));
    EXPECT_EQ(m.kernel.cpu_time(mover), msec(10));
    ASSERT_EQ(m.kernel.proc(mover).home_cpu, 1);
    const auto& joined = dynamic_cast<const policies::StridePolicy&>(m.kernel.policy_on(1));
    EXPECT_EQ(joined.tickets(m.kernel.proc(mover)), 5000);
}

/// Forwards to a named policy and snapshots a migrant's scheduling fields
/// just before and just after the policy's on_migrate_in.
class MigrantSpy final : public SchedPolicy {
public:
    struct Fields {
        Duration estcpu;
        std::int64_t weight, vtime, remain;
        double comp;
        Duration stint;
    };
    std::vector<std::pair<Fields, Fields>> arrivals;  ///< (before, after)

    explicit MigrantSpy(std::string_view policy) : inner_(policies::make_policy(policy)) {}
    [[nodiscard]] const SchedPolicy& inner() const { return *inner_; }

    void add(Proc& p) override { inner_->add(p); }
    void remove(Proc& p) override { inner_->remove(p); }
    void enqueue(Proc& p) override { inner_->enqueue(p); }
    void dequeue(Proc& p) override { inner_->dequeue(p); }
    Proc* peek() override { return inner_->peek(); }
    Proc* pop() override { return inner_->pop(); }
    [[nodiscard]] bool preempts(const Proc& cand, const Proc& running) const override {
        return inner_->preempts(cand, running);
    }
    [[nodiscard]] bool yields_to(const Proc& running, const Proc& cand) const override {
        return inner_->yields_to(running, cand);
    }
    void charge(Proc& p, Duration ran) override { inner_->charge(p, ran); }
    void on_wakeup(Proc& p, Duration slept) override { inner_->on_wakeup(p, slept); }
    void second_tick(std::span<Proc* const> procs, std::int64_t loadavg,
                     util::TimePoint now) override {
        inner_->second_tick(procs, loadavg, now);
    }
    [[nodiscard]] Duration slice() const override { return inner_->slice(); }
    [[nodiscard]] std::size_t runnable() const override { return inner_->runnable(); }
    void on_migrate_in(Proc& p) override {
        const Fields before = fields(p);
        inner_->on_migrate_in(p);
        arrivals.emplace_back(before, fields(p));
    }

private:
    static Fields fields(const Proc& p) {
        return {p.estcpu, p.weight, p.vtime, p.remain, p.comp, p.stint};
    }
    std::unique_ptr<SchedPolicy> inner_;
};

TEST(PercpuKernel, MigrantKeepsItsUsageAndResetsOnlyItsDomainRelativeState) {
    // CPU 0 runs a pinned 40 ms job and then idles. The mover, homed on
    // CPU 1 ahead of a pinned hog, runs 3 ms and sleeps 60 ms; at 63 ms its
    // wake boost preempts the hog, and idle CPU 0 steals it off CPU 1's
    // boost queue: the migration happens before any pop can consume its
    // lottery compensation or a join can restamp its stride pass.
    for (const char* policy : {"bsd", "lottery", "stride", "cfs"}) {
        sim::Engine engine;
        std::vector<MigrantSpy*> spies;
        std::vector<std::unique_ptr<SchedPolicy>> domains;
        for (int d = 0; d < 2; ++d) {
            domains.push_back(std::make_unique<MigrantSpy>(policy));
            spies.push_back(static_cast<MigrantSpy*>(domains.back().get()));
        }
        Kernel kernel(engine, std::move(domains),
                      KernelConfig{.ncpus = 2, .percpu_queues = true});
        kernel.spawn("job", 0, std::make_unique<FiniteCpuBehavior>(msec(40)), /*nice=*/0,
                     /*home_cpu=*/0, /*pinned=*/true);
        const Pid mover = kernel.spawn(
            "mover", 0,
            std::make_unique<ScriptedBehavior>(std::vector<Action>{
                RunAction{msec(3)}, SleepAction{msec(60)}, RunAction{msec(50)}}),
            /*nice=*/0, /*home_cpu=*/1);
        kernel.spawn("hog", 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0,
                     /*home_cpu=*/1, /*pinned=*/true);
        engine.run_until(util::TimePoint{} + msec(63));

        ASSERT_EQ(kernel.migrations(), 1u) << policy;
        ASSERT_EQ(kernel.running_pid_on(0), mover) << policy;
        ASSERT_EQ(spies[0]->arrivals.size(), 1u) << policy;
        const auto& [before, after] = spies[0]->arrivals.front();
        const std::string name = policy;
        // Every policy carries the weight; BSD's estcpu is the only usage
        // state the kernel keeps for it, and it moves untouched.
        EXPECT_EQ(after.weight, before.weight) << policy;
        EXPECT_EQ(after.estcpu, before.estcpu) << policy;
        if (name == "bsd") {
            EXPECT_GT(before.estcpu, Duration::zero());
        } else if (name == "lottery") {
            // It left after 3 ms of a 100 ms quantum: a 100/3 compensation
            // that belongs to the old domain's drawing.
            EXPECT_GT(before.comp, 1.0);
            EXPECT_DOUBLE_EQ(after.comp, 1.0);
            EXPECT_EQ(after.stint, Duration::zero());
        } else if (name == "stride") {
            // Rejoins like a spawn at its tickets: one stride (stride1 =
            // 2^20 over the weight, per ns of its 100 ms quantum) owed
            // before its first quantum.
            EXPECT_NE(before.remain, after.remain);
            EXPECT_EQ(after.remain, 1048576 * msec(100).count() / after.weight);
        } else {
            // Re-anchored at the destination's fair point: its wakeup placed
            // it against CPU 1's hog (60 ms of vruntime), a clock that means
            // nothing against the 40 ms CPU 0's job left behind.
            const auto& cfs = dynamic_cast<const policies::CfsPolicy&>(spies[0]->inner());
            EXPECT_GT(before.vtime, cfs.min_vruntime());
            EXPECT_EQ(after.vtime, cfs.min_vruntime());
        }
    }
}

/// CPU 0's dispatch trace over 3 s — the simulated time (ns) of every
/// change of its occupant, and the new occupant — with two pinned BSD hogs
/// on CPU 0, plus, when `with_sleeper`, a pinned process on CPU 1 that runs
/// 3 ms and sleeps 7 ms in a loop.
std::vector<std::pair<std::int64_t, Pid>> cpu0_trace(bool with_sleeper) {
    PercpuMachine m(2);
    for (const char* name : {"a", "b"}) {
        m.kernel.spawn(name, 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0,
                       /*home_cpu=*/0, /*pinned=*/true);
    }
    if (with_sleeper) {
        m.kernel.spawn("sleeper", 0, std::make_unique<PhasedIoBehavior>(msec(3), msec(7)),
                       /*nice=*/0, /*home_cpu=*/1, /*pinned=*/true);
    }
    std::vector<std::pair<std::int64_t, Pid>> trace{{0, m.kernel.running_pid_on(0)}};
    const util::TimePoint end = util::TimePoint{} + sec(3);
    while (m.engine.step() && m.engine.now() < end) {
        const Pid on0 = m.kernel.running_pid_on(0);
        if (on0 != trace.back().second) trace.emplace_back(m.engine.now().since_epoch.count(), on0);
    }
    return trace;
}

TEST(PercpuKernel, PinnedDomainIgnoresOtherDomainsEvents) {
    // With every process pinned, CPU 1's wakeups and phase ends are not
    // CPU 0's events: they neither charge CPU 0's runner nor re-check its
    // preemption, so CPU 0 schedules exactly as if CPU 1 were empty.
    const auto alone = cpu0_trace(false);
    ASSERT_GT(alone.size(), 10u);  // the hogs do alternate
    EXPECT_EQ(cpu0_trace(true), alone);
}

TEST(PercpuKernel, IdlePeerStealsAtTheVictimsEvent) {
    // CPU 1 is idle when an unpinned process is spawned into CPU 0's busy
    // domain at 20 ms: the spawn is CPU 0's event, and CPU 1 must steal the
    // newcomer at once, not at its own next event (the schedcpu tick).
    PercpuMachine m(2);
    m.kernel.spawn("pinned", 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0, 0,
                   /*pinned=*/true);
    Pid mover = kNoPid;
    m.engine.schedule_at(util::TimePoint{} + msec(20), [&] { mover = m.hog("mover", 0); });
    m.run_for(msec(20));
    ASSERT_NE(mover, kNoPid);
    EXPECT_EQ(m.kernel.steals(), 1u);
    EXPECT_EQ(m.kernel.running_pid_on(1), mover);
    m.run_for(msec(10));
    EXPECT_EQ(m.kernel.cpu_time(mover), msec(10));
}

TEST(PercpuKernel, PinnedWakeupIsPlacedAgainstChargedRunner) {
    // A CFS hog runs alone on CPU 0, charged only at its 6 ms slice ends;
    // a pinned sleeper wakes there at 100 ms, 4 ms after the last one. Its
    // placement (min_vruntime − sched_latency/2) must see the hog's vruntime
    // as of the wakeup, not as of 96 ms: on a domain of a per-CPU kernel,
    // and on a 1-CPU shared queue alike.
    for (const bool percpu : {true, false}) {
        sim::Engine engine;
        Kernel kernel(engine, nullptr,
                      KernelConfig{.ncpus = percpu ? 2 : 1,
                                   .policy = "cfs",
                                   .percpu_queues = percpu});
        const Pid hog = kernel.spawn("hog", 0, std::make_unique<CpuBoundBehavior>(),
                                     /*nice=*/0, /*home_cpu=*/0, /*pinned=*/true);
        const Pid sleeper = kernel.spawn(
            "sleeper", 0,
            std::make_unique<ScriptedBehavior>(
                std::vector<Action>{SleepAction{msec(100)}, RunAction{msec(50)}}),
            /*nice=*/0, /*home_cpu=*/0, /*pinned=*/true);
        engine.run_until(util::TimePoint{} + msec(100));
        ASSERT_EQ(kernel.running_pid_on(0), sleeper) << percpu;  // the wake boost preempted
        const auto& cfs = dynamic_cast<const policies::CfsPolicy&>(kernel.policy_on(0));
        const std::int64_t hog_vruntime = cfs.vruntime(kernel.proc(hog));
        EXPECT_EQ(hog_vruntime, msec(100).count()) << percpu;
        EXPECT_EQ(cfs.vruntime(kernel.proc(sleeper)), hog_vruntime - msec(3).count())
            << percpu;
    }
}

TEST(PercpuKernel, StolenProcessGetsItsShareOnEveryPolicy) {
    // CPU 1 runs a pinned 2 s job while CPU 0 shares its time between a
    // pinned hog and an unpinned one. Once the job has exited, CPU 1 steals
    // the unpinned hog; half a second later a pinned process wakes on CPU 1
    // and competes with it. Equal weights: over the next 2 s each should
    // get half of CPU 1, and under no policy may either get under a third.
    for (const char* policy : {"bsd", "lottery", "stride", "cfs"}) {
        PercpuMachine m(2, policy);
        m.kernel.spawn("job", 0, std::make_unique<FiniteCpuBehavior>(sec(2)), /*nice=*/0, 1,
                       /*pinned=*/true);
        m.kernel.spawn("pinned", 0, std::make_unique<CpuBoundBehavior>(), /*nice=*/0, 0,
                       /*pinned=*/true);
        const Pid mover = m.hog("mover", 0);
        const Pid waker = m.kernel.spawn(
            "waker", 0,
            std::make_unique<ScriptedBehavior>(
                std::vector<Action>{BlockAction{}, RunAction{sec(10)}}),
            /*nice=*/0, 1, /*pinned=*/true);
        // The steal waits for the mover to be CPU 0's queue head: at 2 s
        // under every policy but lottery, whose head is a draw.
        while (m.kernel.proc(mover).home_cpu != 1) {
            ASSERT_LT(m.engine.now(), util::TimePoint{} + sec(3)) << policy;
            m.run_for(msec(10));
        }
        m.run_for(msec(500));
        m.kernel.wakeup(waker);
        const Duration mover_at = m.kernel.cpu_time(mover);
        const Duration waker_at = m.kernel.cpu_time(waker);
        m.run_for(sec(2));
        ASSERT_EQ(m.kernel.proc(mover).home_cpu, 1) << policy;
        const double mover_got = to_sec(m.kernel.cpu_time(mover) - mover_at);
        const double waker_got = to_sec(m.kernel.cpu_time(waker) - waker_at);
        EXPECT_DOUBLE_EQ(mover_got + waker_got, 2.0) << policy;
        EXPECT_GE(mover_got, 2.0 / 3.0) << policy;
        EXPECT_GE(waker_got, 2.0 / 3.0) << policy;
    }
}

TEST(PercpuKernel, SpawnRejectsOutOfRangeHomeCpu) {
    PercpuMachine m(2);
    EXPECT_THROW(m.hog("bad", 2), util::ContractViolation);
    EXPECT_THROW(m.hog("bad", -2), util::ContractViolation);
}

TEST(SmpKernelDeathTest, InvalidCpuIndexAbortsViaGuard) {
    // An out-of-range CPU index is corrupted topology bookkeeping: the
    // accessors hit ALPS_GUARD (fprintf + abort), never index out of bounds
    // and never unwind (DESIGN.md §10 — guards stay armed in release).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SmpMachine m(2);
    EXPECT_DEATH((void)m.kernel.running_pid_on(2), "corruption guard");
    EXPECT_DEATH((void)m.kernel.running_pid_on(-1), "corruption guard");
    EXPECT_DEATH((void)m.kernel.policy_on(2), "corruption guard");
    EXPECT_DEATH((void)m.kernel.policy_on(-1), "corruption guard");
}

TEST(SmpKernel, ZeroCpusViolatesContract) {
    sim::Engine engine;
    EXPECT_THROW(Kernel(engine, nullptr, KernelConfig{.ncpus = 0}),
                 util::ContractViolation);
}

}  // namespace
}  // namespace alps::os
