// Randomized stress tests of the simulated kernel: arbitrary mixes of
// compute, phased-I/O, and short-lived processes, plus random signals, with
// global invariants checked throughout. Parameterized over seeds.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace alps::os {
namespace {

using util::Duration;
using util::msec;
using util::sec;

class KernelStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelStressTest, InvariantsHoldUnderRandomChurn) {
    sim::Engine engine;
    Kernel kernel(engine);
    util::Rng rng(GetParam());

    std::vector<Pid> pids;
    auto spawn_random = [&] {
        const double roll = rng.next_double();
        std::unique_ptr<Behavior> b;
        if (roll < 0.4) {
            b = std::make_unique<CpuBoundBehavior>();
        } else if (roll < 0.7) {
            b = std::make_unique<PhasedIoBehavior>(
                rng.uniform_duration(msec(1), msec(30)),
                rng.uniform_duration(msec(5), msec(200)));
        } else {
            b = std::make_unique<FiniteCpuBehavior>(
                rng.uniform_duration(msec(10), msec(500)));
        }
        std::string name = "p";
        name += std::to_string(pids.size());
        pids.push_back(
            kernel.spawn(name, static_cast<Uid>(rng.uniform_int(0, 3)), std::move(b)));
    };
    for (int i = 0; i < 6; ++i) spawn_random();

    Duration busy_before = kernel.busy_time();
    for (int step = 0; step < 400; ++step) {
        engine.run_until(engine.now() + rng.uniform_duration(msec(1), msec(60)));

        // Random management actions.
        const double roll = rng.next_double();
        const Pid victim =
            pids[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(pids.size()) - 1))];
        if (roll < 0.25 && kernel.alive(victim)) {
            kernel.send_signal(victim, Signal::kStop);
        } else if (roll < 0.5 && kernel.alive(victim)) {
            kernel.send_signal(victim, Signal::kCont);
        } else if (roll < 0.55 && kernel.alive(victim)) {
            kernel.send_signal(victim, Signal::kKill);
        } else if (roll < 0.65 && pids.size() < 40) {
            spawn_random();
        }

        // --- Invariants ---
        // Busy time is monotone and never exceeds wall time.
        const Duration busy = kernel.busy_time();
        ASSERT_GE(busy, busy_before);
        ASSERT_LE(busy.count(), engine.now().since_epoch.count());
        busy_before = busy;

        // Per-process CPU times are monotone, non-negative, and sum to the
        // kernel's busy time (work conservation).
        Duration total{0};
        for (const Pid pid : pids) {
            if (!kernel.exists(pid)) continue;
            const Duration t = kernel.cpu_time(pid);
            ASSERT_GE(t, Duration::zero());
            total += t;
        }
        ASSERT_EQ(total, busy);

        // At most one process is "running", and it must be eligible.
        const Pid running = kernel.running_pid();
        if (running != kNoPid) {
            const Proc& p = kernel.proc(running);
            ASSERT_EQ(p.state, RunState::kRunning);
            ASSERT_FALSE(p.stopped);
        }

        // A stopped process never holds the CPU; zombies never run.
        for (const Pid pid : pids) {
            if (!kernel.exists(pid)) continue;
            const Proc& p = kernel.proc(pid);
            if (p.stopped) {
                ASSERT_NE(p.state, RunState::kRunning);
            }
            if (p.state == RunState::kZombie) {
                ASSERT_NE(pid, running);
            }
        }
    }
}

TEST_P(KernelStressTest, DeterministicGivenSeed) {
    auto run = [&](std::uint64_t seed) {
        sim::Engine engine;
        Kernel kernel(engine);
        util::Rng rng(seed);
        std::vector<Pid> pids;
        for (int i = 0; i < 8; ++i) {
            pids.push_back(kernel.spawn(
                "p", 0,
                std::make_unique<PhasedIoBehavior>(
                    rng.uniform_duration(msec(1), msec(20)),
                    rng.uniform_duration(msec(5), msec(100)))));
        }
        for (int step = 0; step < 100; ++step) {
            engine.run_until(engine.now() + msec(37));
            const Pid v = pids[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(pids.size()) - 1))];
            kernel.send_signal(v, rng.next_double() < 0.5 ? Signal::kStop
                                                          : Signal::kCont);
        }
        Duration sum{0};
        for (const Pid pid : pids) sum += kernel.cpu_time(pid);
        return std::pair{sum, kernel.context_switches()};
    };
    EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelStressTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

}  // namespace
}  // namespace alps::os
