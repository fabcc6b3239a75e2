// Kernel edge cases around signal/sleep/exit interleavings.
#include <gtest/gtest.h>

#include <memory>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/assert.h"

namespace alps::os {
namespace {

using util::Duration;
using util::msec;
using util::sec;

struct Machine {
    sim::Engine engine;
    Kernel kernel{engine};
    void run_for(Duration d) { engine.run_until(engine.now() + d); }
};

TEST(KernelEdge, ChannelWakeupWhileStoppedDefersRun) {
    Machine m;
    std::vector<Action> script{BlockAction{}, RunAction{msec(30)}};
    const Pid p = m.kernel.spawn("b", 0, std::make_unique<ScriptedBehavior>(script));
    m.run_for(msec(10));
    ASSERT_TRUE(m.kernel.is_blocked(p));

    // Stop the sleeper, then wake it: it becomes runnable-but-stopped and
    // must not run until SIGCONT.
    m.kernel.send_signal(p, Signal::kStop);
    m.kernel.wakeup(p);
    m.run_for(msec(100));
    EXPECT_FALSE(m.kernel.is_blocked(p));
    EXPECT_EQ(m.kernel.cpu_time(p), Duration::zero());

    m.kernel.send_signal(p, Signal::kCont);
    m.run_for(msec(100));
    EXPECT_EQ(m.kernel.cpu_time(p), msec(30));
    EXPECT_FALSE(m.kernel.alive(p));  // script done
}

TEST(KernelEdge, ReapStoppedThenKilledProcess) {
    Machine m;
    const Pid p = m.kernel.spawn("x", 0, std::make_unique<CpuBoundBehavior>());
    m.run_for(msec(50));
    m.kernel.send_signal(p, Signal::kStop);
    m.kernel.send_signal(p, Signal::kKill);
    ASSERT_FALSE(m.kernel.alive(p));
    m.kernel.reap(p);
    EXPECT_FALSE(m.kernel.exists(p));
    // The machine keeps running fine afterwards.
    const Pid q = m.kernel.spawn("y", 0, std::make_unique<CpuBoundBehavior>());
    m.run_for(msec(100));
    EXPECT_EQ(m.kernel.cpu_time(q), msec(100));
}

TEST(KernelEdge, KillSleeperCancelsItsTimer) {
    Machine m;
    const Pid p = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(200)));
    m.run_for(msec(50));  // asleep until 210 ms
    ASSERT_TRUE(m.kernel.is_blocked(p));
    m.kernel.send_signal(p, Signal::kKill);
    EXPECT_FALSE(m.kernel.alive(p));
    m.run_for(msec(500));  // the cancelled wake must not resurrect it
    EXPECT_EQ(m.kernel.proc(p).state, RunState::kZombie);
}

TEST(KernelEdge, StopContStormKeepsAccountingExact) {
    Machine m;
    const Pid a = m.kernel.spawn("a", 0, std::make_unique<CpuBoundBehavior>());
    const Pid b = m.kernel.spawn("b", 0, std::make_unique<CpuBoundBehavior>());
    // Alternate stopping each of them every 7 ms for a while.
    for (int i = 0; i < 200; ++i) {
        const Pid victim = (i % 2 == 0) ? a : b;
        m.kernel.send_signal(victim, Signal::kStop);
        m.run_for(msec(7));
        m.kernel.send_signal(victim, Signal::kCont);
        m.run_for(msec(3));
    }
    // Work conservation through the storm.
    EXPECT_EQ(m.kernel.cpu_time(a) + m.kernel.cpu_time(b),
              m.kernel.busy_time());
    EXPECT_EQ(m.kernel.busy_time(), msec(2000));
}

TEST(KernelEdge, BehaviorExitWhileOnlyProcess) {
    Machine m;
    const Pid p = m.kernel.spawn("f", 0, std::make_unique<FiniteCpuBehavior>(msec(5)));
    m.run_for(msec(10));
    EXPECT_FALSE(m.kernel.alive(p));
    // Idle machine: no crash, no busy accrual.
    m.run_for(sec(2));
    EXPECT_EQ(m.kernel.busy_time(), msec(5));
}

TEST(KernelEdge, SleepUntilPastDeadlineRunsImmediately) {
    Machine m;
    std::vector<Action> script{RunAction{msec(5)},
                               SleepUntilAction{util::TimePoint{} + msec(1)},
                               RunAction{msec(5)}};
    const Pid p = m.kernel.spawn("s", 0, std::make_unique<ScriptedBehavior>(script));
    m.run_for(msec(50));
    // The deadline was already past at sleep time: clamped to "now".
    EXPECT_EQ(m.kernel.cpu_time(p), msec(10));
}

TEST(KernelEdge, ManySimultaneousWakersAllRun) {
    Machine m;
    std::vector<Pid> pids;
    for (int i = 0; i < 20; ++i) {
        std::vector<Action> script{BlockAction{}, RunAction{msec(10)}};
        std::string name = "w";
        name += std::to_string(i);
        pids.push_back(m.kernel.spawn(name, 0, std::make_unique<ScriptedBehavior>(script)));
    }
    m.run_for(msec(5));
    for (const Pid p : pids) m.kernel.wakeup(p);
    m.run_for(sec(1));
    for (const Pid p : pids) {
        EXPECT_EQ(m.kernel.cpu_time(p), msec(10)) << p;
        EXPECT_FALSE(m.kernel.alive(p));
    }
}

}  // namespace
}  // namespace alps::os
