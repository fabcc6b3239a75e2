// The degradation policy under an unreliable backend: rebaseline instead of
// abort, bounded retries, self-healing re-issue of lost signals, quarantine-
// then-drop, exception containment, and the liveness property that no entity
// stays suspended once faults stop. Faults come either from the scripted
// MockControl or from the FaultInjectingControl decorator.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "alps/fault.h"
#include "alps/scheduler.h"
#include "mock_control.h"
#include "util/time.h"

namespace alps::core {
namespace {

using alps::testing::MockControl;
using util::Duration;
using util::msec;

constexpr Duration kQ = msec(10);

SchedulerConfig config() {
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    return cfg;
}

/// One "real world" step: the kernel grants a quantum, then ALPS ticks.
void step(MockControl& mc, Scheduler& sched, int n = 1) {
    for (int i = 0; i < n; ++i) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
}

/// Σ a_i·Q − t_c, in ns: exactly zero while the accounting is sound.
Duration invariant_gap(const Scheduler& sched) {
    Duration sum{0};
    for (const EntityId id : sched.ids()) sum += sched.allowance(id);
    return sum - sched.cycle_time_remaining();
}

// ----------------------------------------------------------------------------
// FaultInjectingControl

TEST(FaultLayer, DisabledDecoratorIsTransparent) {
    MockControl mc;
    mc.ensure(1).cpu = msec(3);
    FaultInjectingControl faulty(mc, FaultPlan::uniform(1.0, /*seed=*/9));
    // Even a certain-fault plan does nothing while disabled.
    EXPECT_TRUE(faulty.read_progress(1).ok);
    EXPECT_EQ(faulty.read_progress(1).cpu_time, msec(3));
    EXPECT_EQ(faulty.suspend(1), ControlResult::kOk);
    EXPECT_EQ(faulty.resume(1), ControlResult::kOk);
    EXPECT_EQ(faulty.injected().total(), 0u);
}

TEST(FaultLayer, InjectionIsDeterministicInSeed) {
    const auto run = [](std::uint64_t seed) {
        MockControl mc;
        mc.ensure(1);
        FaultInjectingControl faulty(mc, FaultPlan::uniform(0.3, seed));
        faulty.set_enabled(true);
        std::uint64_t oks = 0;
        for (int i = 0; i < 200; ++i) {
            mc.entities[1].cpu += msec(1);
            if (faulty.read_progress(1).ok) ++oks;
            if (faulty.suspend(1) == ControlResult::kOk) ++oks;
            if (faulty.resume(1) == ControlResult::kOk) ++oks;
        }
        return std::pair{oks, faulty.injected().total()};
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7).second, 0u);
    EXPECT_NE(run(7), run(8));  // different stream, different campaign
}

TEST(FaultLayer, PidReuseJumpsBackwardsOnceThenMonotone) {
    MockControl mc;
    mc.ensure(1);
    FaultPlan plan;
    plan.pid_reuse = 1.0;  // every read tries to inject a reuse
    FaultInjectingControl faulty(mc, plan);
    mc.entities[1].cpu = msec(50);
    EXPECT_EQ(faulty.read_progress(1).cpu_time, msec(50));  // disabled
    faulty.set_enabled(true);
    // First faulted read: the clock restarts at zero (new pid owner).
    EXPECT_EQ(faulty.read_progress(1).cpu_time, Duration::zero());
    // And advances monotonically from there.
    mc.entities[1].cpu = msec(53);
    const Duration next = faulty.read_progress(1).cpu_time;
    EXPECT_GE(next, Duration::zero());
    EXPECT_LE(next, msec(3));
    EXPECT_GE(faulty.injected().pid_reuses, 1u);
}

// ----------------------------------------------------------------------------
// Rebaseline instead of abort (the old ALPS_ENSURE(consumed >= 0))

TEST(Degradation, BackwardsCpuSampleRebaselinesInsteadOfAborting) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    step(mc, sched, 5);
    // Pid 1 is recycled: its CPU counter restarts near zero.
    mc.entities[1].cpu = Duration::zero();
    EXPECT_NO_THROW(step(mc, sched, 5));
    EXPECT_GE(sched.health().rebaselines, 1u);
    EXPECT_TRUE(sched.contains(1));
    EXPECT_EQ(invariant_gap(sched), Duration::zero());
}

// ----------------------------------------------------------------------------
// Self-healing

TEST(Degradation, LostResumeIsReissuedWithinACycle) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    // The first resume to entity 2 is lost: reported delivered, not applied.
    mc.entities[2].lose_signals = 1;
    step(mc, sched);  // tick 1 "resumes" both; 2 is actually still stopped
    EXPECT_TRUE(mc.entities[2].suspended);
    EXPECT_TRUE(sched.eligible(2));  // the scheduler's desired state
    // The next measurement of 2 sees stopped-while-eligible and re-issues.
    step(mc, sched, 3);
    EXPECT_FALSE(mc.entities[2].suspended);
    EXPECT_GE(sched.health().reissues, 1u);
    EXPECT_FALSE(sched.health().degraded() && mc.entities[2].suspended);
}

TEST(Degradation, DeniedSuspendIsRetriedUntilDelivered) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 3);
    mc.entities[1].deny_signals = 3;  // next three signals to 1 bounce
    step(mc, sched, 40);
    EXPECT_GE(sched.health().control_failures, 3u);
    EXPECT_GE(sched.health().reissues, 1u);
    EXPECT_TRUE(sched.contains(1));
    EXPECT_FALSE(sched.quarantined(1));  // 3 denials < 4 (quarantine)
    // Once the denials drained, the mock state tracks the desired state.
    EXPECT_EQ(mc.entities[1].suspended, !sched.eligible(1));
    EXPECT_EQ(invariant_gap(sched), Duration::zero());
}

// ----------------------------------------------------------------------------
// Quarantine then drop

TEST(Degradation, PersistentReadFailureQuarantinesThenDropsEntity) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    step(mc, sched, 3);
    const Share total_before = sched.total_shares();
    mc.entities[1].fail_reads = 1000000;  // the channel to 1 goes dark
    step(mc, sched, 200);
    EXPECT_GE(sched.health().quarantines, 1u);
    EXPECT_EQ(sched.health().drops, 1u);
    EXPECT_FALSE(sched.contains(1));
    // The drop released it (never leave a process stopped) and removed its
    // share from the cycle accounting.
    EXPECT_FALSE(mc.entities[1].suspended);
    EXPECT_EQ(sched.total_shares(), total_before - 1);
    EXPECT_EQ(invariant_gap(sched), Duration::zero());
    // The survivor is unaffected and still being scheduled.
    EXPECT_TRUE(sched.contains(2));
}

TEST(Degradation, DarkChannelFollowsTheExactRetryBackoffQuarantineDropSchedule) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    step(mc, sched, 3);
    const HealthReport before = sched.health();
    mc.entities[1].fail_reads = 1000000;  // the channel to 1 goes dark

    // Per tick from the first failed read: how often entity 1 was read, and
    // its state afterwards (Q = quarantined, D = dropped, . = managed).
    std::vector<int> reads;
    std::string state;
    for (int i = 0; i < 40 && sched.contains(1); ++i) {
        const int r0 = mc.entities[1].read_count;
        step(mc, sched);
        if (mc.entities[1].read_count == r0 && reads.empty()) continue;
        reads.push_back(mc.entities[1].read_count - r0);
        state += !sched.contains(1) ? 'D' : sched.quarantined(1) ? 'Q' : '.';
    }
    // Each failed measurement is 1 read + 2 same-tick retries. Between
    // failures the entity waits 1, 2, then 4 ticks; the 4th failure
    // quarantines it before the 8-tick backoff cap is ever reached. In
    // quarantine it is probed every tick, and the 12th consecutive failure
    // drops it.
    EXPECT_EQ(reads, (std::vector<int>{3, 3, 0, 3, 0, 0, 0, 3,  // backoff
                                       3, 3, 3, 3, 3, 3, 3, 3}));  // probes
    EXPECT_EQ(state, ".......QQQQQQQQD");
    const HealthReport after = sched.health();
    EXPECT_EQ(after.read_failures - before.read_failures, 12u);
    EXPECT_EQ(after.retries - before.retries, 24u);
    EXPECT_EQ(after.quarantines - before.quarantines, 1u);
    EXPECT_EQ(after.drops - before.drops, 1u);
    EXPECT_FALSE(mc.entities[1].suspended);  // released on the way out
}

TEST(Degradation, QuarantinedEntityRecoversWhenChannelReturns) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    step(mc, sched, 3);
    // Enough consecutive failures to quarantine (4) but not to drop (12):
    // quarantine needs 4 failed read-ticks; each tick burns up to 3 attempts
    // (1 + 2 retries). 15 scripted failures cover it with one spare tick.
    mc.entities[1].fail_reads = 15;
    int waited = 0;
    while (!sched.quarantined(1) && waited < 100) {
        step(mc, sched);
        ++waited;
    }
    ASSERT_TRUE(sched.quarantined(1));
    // While quarantined it free-runs: not suspended, still accounted.
    EXPECT_FALSE(mc.entities[1].suspended);
    EXPECT_TRUE(sched.contains(1));
    // The channel heals (scripted failures exhausted) -> probe recovers it.
    step(mc, sched, 10);
    EXPECT_FALSE(sched.quarantined(1));
    EXPECT_TRUE(sched.contains(1));
    EXPECT_EQ(sched.health().drops, 0u);
    EXPECT_EQ(invariant_gap(sched), Duration::zero());
}

// ----------------------------------------------------------------------------
// Exception containment (satellite: teardown still releases everything)

/// A backend whose reads start throwing mid-run (a bug or a torn pipe, not a
/// clean error return).
class ThrowingControl final : public ProcessControl {
public:
    explicit ThrowingControl(MockControl& inner) : inner_(inner) {}
    bool throw_reads = false;
    bool throw_signals = false;

    Sample read_progress(EntityId id) override {
        if (throw_reads) throw std::runtime_error("read exploded");
        return inner_.read_progress(id);
    }
    ControlResult suspend(EntityId id) override {
        if (throw_signals) throw std::runtime_error("suspend exploded");
        return inner_.suspend(id);
    }
    ControlResult resume(EntityId id) override {
        if (throw_signals) throw std::runtime_error("resume exploded");
        return inner_.resume(id);
    }

private:
    MockControl& inner_;
};

TEST(Degradation, TickContainsBackendExceptionsAndTeardownReleasesAll) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    ThrowingControl throwing(mc);
    Scheduler sched(throwing, config());
    sched.add(1, 1);
    sched.add(2, 1);
    step(mc, sched, 5);
    throwing.throw_reads = true;
    throwing.throw_signals = true;
    for (int i = 0; i < 20; ++i) {
        mc.run_kernel_quantum(kQ);
        EXPECT_NO_THROW(sched.tick());  // exceptions become counted faults
    }
    EXPECT_GE(sched.health().exceptions, 1u);
    // Teardown with a still-throwing backend must not throw either
    // (release_all is noexcept) ...
    EXPECT_NO_THROW(sched.release_all());
    // ... and once the backend returns, release_all leaves nothing stopped.
    throwing.throw_reads = false;
    throwing.throw_signals = false;
    sched.release_all();
    EXPECT_FALSE(mc.entities[1].suspended);
    EXPECT_FALSE(mc.entities[2].suspended);
}

// ----------------------------------------------------------------------------
// Liveness property (seeded sweep): faults stop -> everything converges

TEST(DegradationProperty, NoEntityStaysSuspendedAfterFaultsStop) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
        MockControl mc;
        for (EntityId id = 1; id <= 4; ++id) mc.ensure(id);
        FaultInjectingControl faulty(mc, FaultPlan::uniform(0.05, seed));
        Scheduler sched(faulty, config());
        for (EntityId id = 1; id <= 4; ++id) sched.add(id, static_cast<Share>(id));

        faulty.set_enabled(true);
        for (int i = 0; i < 400; ++i) {
            mc.run_kernel_quantum(kQ);
            ASSERT_NO_THROW(sched.tick()) << "seed " << seed;
        }
        faulty.disable();
        // Drain: well over one cycle (total shares 10 -> ~10+ ticks/cycle).
        for (int i = 0; i < 60; ++i) {
            mc.run_kernel_quantum(kQ);
            sched.tick();
        }

        Share total = 0;
        for (EntityId id = 1; id <= 4; ++id) {
            if (!sched.contains(id)) {
                // Dropped entities must have been released.
                EXPECT_FALSE(mc.entities[id].suspended) << "seed " << seed;
                continue;
            }
            total += sched.share(id);
            // Actual state equals desired state: nothing wedged in SIGSTOP
            // against the scheduler's will.
            EXPECT_EQ(mc.entities[id].suspended, !sched.eligible(id))
                << "seed " << seed << " entity " << id;
        }
        // Accounting invariants survived quarantines and drops.
        EXPECT_EQ(sched.total_shares(), total) << "seed " << seed;
        EXPECT_EQ(invariant_gap(sched), Duration::zero()) << "seed " << seed;
    }
}

}  // namespace
}  // namespace alps::core
