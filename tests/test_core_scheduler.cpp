#include "alps/scheduler.h"

#include <gtest/gtest.h>

#include "mock_control.h"
#include "util/assert.h"

namespace alps::core {
namespace {

using alps::testing::MockControl;
using util::Duration;
using util::msec;
using util::Share;

constexpr Duration kQ = msec(10);

SchedulerConfig config(bool lazy = true, bool io = true) {
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    cfg.lazy_measurement = lazy;
    cfg.io_accounting = io;
    return cfg;
}

TEST(Scheduler, AddSuspendsAndFirstTickResumes) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config());
    sched.add(1, 3);
    EXPECT_TRUE(mc.entities[1].suspended);  // ineligible at start (paper)
    EXPECT_FALSE(sched.eligible(1));
    sched.tick();
    EXPECT_FALSE(mc.entities[1].suspended);  // positive allowance -> eligible
    EXPECT_TRUE(sched.eligible(1));
}

TEST(Scheduler, InitialStatePerPaper) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 2);
    sched.add(2, 4);
    EXPECT_EQ(sched.total_shares(), 6);
    EXPECT_EQ(sched.cycle_length(), kQ * 6);
    EXPECT_EQ(sched.cycle_time_remaining(), kQ * 6);  // t_c = S*Q
    EXPECT_EQ(sched.allowance(1), kQ * 2);            // allowance_i = share_i
    EXPECT_EQ(sched.allowance(2), kQ * 4);
}

TEST(Scheduler, SoleEntityBecomesIneligibleAfterAllowanceExhausted) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config());
    sched.add(1, 3);
    sched.tick();  // resumes it
    // Consume exactly one quantum per tick.
    int ineligible_at = -1;
    for (int t = 1; t <= 10 && ineligible_at < 0; ++t) {
        if (!mc.entities[1].suspended) mc.entities[1].cpu += kQ;
        sched.tick();
        if (mc.entities[1].suspended) ineligible_at = t;
    }
    // With a lone entity the cycle ends exactly when the allowance does, so
    // it is immediately refilled; it should never be suspended.
    EXPECT_EQ(ineligible_at, -1);
    EXPECT_GE(sched.cycles_completed(), 1u);
}

TEST(Scheduler, TwoEntitiesAlternateEligibility) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    sched.tick();
    for (int t = 0; t < 40; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    // With equal shares and an equal-splitting kernel, ALPS may leave both
    // eligible; the group must complete cycles either way (one per ~2 ticks).
    EXPECT_GE(sched.cycles_completed(), 15u);
}

TEST(Scheduler, ProportionalConsumptionOneToTwo) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 2);
    sched.tick();
    for (int t = 0; t < 3000; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    const double c1 = static_cast<double>(mc.entities[1].cpu.count());
    const double c2 = static_cast<double>(mc.entities[2].cpu.count());
    EXPECT_NEAR(c2 / c1, 2.0, 0.1);
}

TEST(Scheduler, ProportionalConsumptionSkewed) {
    MockControl mc;
    for (EntityId id = 1; id <= 5; ++id) mc.ensure(id);
    Scheduler sched(mc, config());
    // The paper's Skewed5 distribution {1,1,1,1,21}.
    for (EntityId id = 1; id <= 4; ++id) sched.add(id, 1);
    sched.add(5, 21);
    sched.tick();
    for (int t = 0; t < 20000; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    double total = 0.0;
    for (EntityId id = 1; id <= 5; ++id) {
        total += static_cast<double>(mc.entities[id].cpu.count());
    }
    EXPECT_NEAR(static_cast<double>(mc.entities[5].cpu.count()) / total, 21.0 / 25.0,
                0.02);
    for (EntityId id = 1; id <= 4; ++id) {
        EXPECT_NEAR(static_cast<double>(mc.entities[id].cpu.count()) / total,
                    1.0 / 25.0, 0.01);
    }
}

TEST(Scheduler, OverconsumptionIsRepaidNextCycle) {
    // Paper §2.2: "if a process consumes twice its share in one cycle, then
    // the process will not execute in the next cycle".
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    sched.tick();
    // Entity 1 steals the whole first cycle: consumes 2Q at once.
    mc.entities[1].cpu += kQ * 2;
    sched.tick();  // measures the overrun; cycle completes (t_c -> 0)
    EXPECT_TRUE(mc.entities[1].suspended);  // allowance 1-2+1 = 0 -> ineligible
    EXPECT_FALSE(mc.entities[2].suspended);
    // Next cycle: entity 2 consumes its due; entity 1 must stay suspended.
    mc.entities[2].cpu += kQ * 2;
    sched.tick();
    EXPECT_TRUE(mc.entities[1].suspended);
    // After that cycle completes, entity 1's allowance refills to 1 again.
    sched.tick();
    EXPECT_FALSE(mc.entities[1].suspended);
}

TEST(Scheduler, LazyMeasurementSkipsEarlyReads) {
    MockControl mc;
    mc.ensure(1);
    Scheduler lazy_sched(mc, config(/*lazy=*/true));
    lazy_sched.add(1, 10);
    const int base_reads = mc.reads;  // add() baselines once
    // 9 ticks with no consumption: a share-10 entity (allowance 10) is due
    // for measurement only at the 10th tick after the first.
    for (int t = 0; t < 9; ++t) lazy_sched.tick();
    const int reads_during = mc.reads - base_reads;
    EXPECT_LE(reads_during, 1);  // measured at most once (the first tick)
}

TEST(Scheduler, EagerMeasurementReadsEveryTick) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config(/*lazy=*/false));
    sched.add(1, 10);
    const int base_reads = mc.reads;
    for (int t = 0; t < 9; ++t) {
        sched.tick();
    }
    // The first tick still sees it ineligible (no read); the next 8 all read.
    EXPECT_EQ(mc.reads - base_reads, 8);
}

TEST(Scheduler, LazyAndEagerAgreeOnConsumptionRatios) {
    auto run = [](bool lazy) {
        MockControl mc;
        mc.ensure(1);
        mc.ensure(2);
        mc.ensure(3);
        Scheduler sched(mc, config(lazy));
        sched.add(1, 1);
        sched.add(2, 3);
        sched.add(3, 5);
        sched.tick();
        for (int t = 0; t < 5000; ++t) {
            mc.run_kernel_quantum(kQ);
            sched.tick();
        }
        const double total = static_cast<double>(
            (mc.entities[1].cpu + mc.entities[2].cpu + mc.entities[3].cpu).count());
        return std::array<double, 3>{
            static_cast<double>(mc.entities[1].cpu.count()) / total,
            static_cast<double>(mc.entities[2].cpu.count()) / total,
            static_cast<double>(mc.entities[3].cpu.count()) / total};
    };
    const auto lazy = run(true);
    const auto eager = run(false);
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(lazy[static_cast<std::size_t>(i)],
                    eager[static_cast<std::size_t>(i)], 0.02);
    }
    EXPECT_NEAR(lazy[0], 1.0 / 9.0, 0.02);
    EXPECT_NEAR(lazy[1], 3.0 / 9.0, 0.02);
    EXPECT_NEAR(lazy[2], 5.0 / 9.0, 0.02);
}

TEST(Scheduler, BlockedEntityChargedOneQuantumAndCycleShrinks) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    // Eager measurement so the blocked entity is sampled on the very next
    // tick (lazy would postpone it by ceil(allowance) ticks).
    Scheduler sched(mc, config(/*lazy=*/false));
    sched.add(1, 2);
    sched.add(2, 2);
    sched.tick();  // both eligible
    const Duration tc_before = sched.cycle_time_remaining();
    mc.entities[1].blocked = true;
    sched.tick();  // measures 1: blocked -> allowance -1, t_c -= Q
    EXPECT_EQ(sched.allowance(1), kQ);
    EXPECT_EQ(tc_before - sched.cycle_time_remaining(), kQ);
}

TEST(Scheduler, IoAccountingDisabledIgnoresBlocked) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config(true, /*io=*/false));
    sched.add(1, 2);
    sched.tick();
    mc.entities[1].blocked = true;
    sched.tick();
    EXPECT_EQ(sched.allowance(1), kQ * 2);
}

TEST(Scheduler, FullyBlockedEntityEndsCycleEarly) {
    // §2.4: "if a process blocks for all of its allocated quanta during a
    // cycle, then the cycle will end early, as if the blocked process's
    // shares had never contributed to the length of the cycle."
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 3);  // will block forever
    sched.add(2, 3);
    sched.tick();
    mc.entities[1].blocked = true;
    std::uint64_t ticks = 0;
    while (sched.cycles_completed() == 0 && ticks < 100) {
        // Entity 2 alone gets the CPU.
        if (!mc.entities[2].suspended) mc.entities[2].cpu += kQ;
        sched.tick();
        ++ticks;
    }
    EXPECT_GE(sched.cycles_completed(), 1u);
    // Entity 2 should have consumed roughly its own 3 quanta, not 6.
    EXPECT_LE(mc.entities[2].cpu.count(), (kQ * 5).count());
}

TEST(Scheduler, DeadEntityIsDropped) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    sched.tick();
    mc.entities[1].alive = false;
    sched.tick();
    EXPECT_FALSE(sched.contains(1));
    EXPECT_TRUE(sched.contains(2));
    EXPECT_EQ(sched.total_shares(), 1);
}

TEST(Scheduler, RemoveResumesSuspendedEntity) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    EXPECT_TRUE(mc.entities[1].suspended);
    sched.remove(1);
    EXPECT_FALSE(mc.entities[1].suspended);  // ALPS relinquishes control
    EXPECT_EQ(sched.total_shares(), 0);
    EXPECT_FALSE(sched.contains(1));
}

TEST(Scheduler, SetShareAffectsFutureCycles) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    sched.tick();
    for (int t = 0; t < 2000; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    // Reweight 1:1 -> 1:3 and measure the new regime only.
    sched.set_share(2, 3);
    EXPECT_EQ(sched.total_shares(), 4);
    const Duration c1_before = mc.entities[1].cpu;
    const Duration c2_before = mc.entities[2].cpu;
    for (int t = 0; t < 8000; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    const double d1 = static_cast<double>((mc.entities[1].cpu - c1_before).count());
    const double d2 = static_cast<double>((mc.entities[2].cpu - c2_before).count());
    EXPECT_NEAR(d2 / d1, 3.0, 0.15);
}

TEST(Scheduler, ReleaseAllResumesEverything) {
    MockControl mc;
    for (EntityId id = 1; id <= 3; ++id) mc.ensure(id);
    Scheduler sched(mc, config());
    for (EntityId id = 1; id <= 3; ++id) sched.add(id, 1);
    // All start suspended.
    sched.release_all();
    for (EntityId id = 1; id <= 3; ++id) {
        EXPECT_FALSE(mc.entities[id].suspended) << id;
    }
}

TEST(Scheduler, CycleObserverReceivesConsumption) {
    // The record names the cycle's members and shares, one per cycle; the
    // consumption is left to metrics::ExactCycleLog, which reads the host.
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 3);
    std::vector<CycleRecord> records;
    sched.set_cycle_observer([&](const CycleRecord& r) { records.push_back(r); });
    sched.tick();
    for (int t = 0; t < 100; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.size(), sched.cycles_completed());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const CycleRecord& r = records[i];
        EXPECT_EQ(r.index, i);
        EXPECT_EQ(r.ids, (std::vector<EntityId>{1, 2}));
        EXPECT_EQ(r.shares, (std::vector<Share>{1, 3}));
        EXPECT_TRUE(r.consumed.empty());
    }
}

TEST(Scheduler, TickOnEmptySchedulerIsHarmless) {
    MockControl mc;
    Scheduler sched(mc, config());
    for (int i = 0; i < 5; ++i) sched.tick();
    EXPECT_EQ(sched.cycles_completed(), 0u);
    EXPECT_EQ(sched.tick_count(), 5u);
}

TEST(Scheduler, ContractViolations) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    EXPECT_THROW(sched.add(1, 2), util::ContractViolation);    // duplicate
    EXPECT_THROW(sched.add(2, 0), util::ContractViolation);    // bad share
    EXPECT_THROW(sched.remove(99), util::ContractViolation);   // unknown
    EXPECT_THROW((void)sched.allowance(99), util::ContractViolation);
    EXPECT_THROW(sched.set_share(1, -1), util::ContractViolation);

    SchedulerConfig bad;
    bad.quantum = Duration::zero();
    EXPECT_THROW(Scheduler(mc, bad), util::ContractViolation);
}

TEST(Scheduler, TickStatsCountOperations) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    const TickStats first = sched.tick();
    EXPECT_EQ(first.resumed, 2);  // both become eligible
    EXPECT_EQ(first.suspended, 0);
    // Entity 1 consumes both entities' worth: gets suspended at the next
    // measured tick.
    mc.entities[1].cpu += kQ * 2;
    const TickStats second = sched.tick();
    EXPECT_EQ(second.measured, 2);
    EXPECT_TRUE(second.cycle_completed);
    EXPECT_EQ(second.suspended, 1);
}

TEST(Scheduler, MeasurementCountsAccumulate) {
    MockControl mc;
    mc.ensure(1);
    Scheduler sched(mc, config(/*lazy=*/false));
    sched.add(1, 1);
    sched.tick();
    for (int t = 0; t < 10; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    EXPECT_EQ(sched.total_measurements(), 10u);
    EXPECT_EQ(sched.tick_count(), 11u);
}

// ----- per-tick wiring, read back through TickStats and the backend --------

TEST(TickTraceWiring, RecordsMeasurementsAndTransitions) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 1);
    const int reads_at_admission = mc.reads;

    const TickStats first = sched.tick();  // both become eligible
    EXPECT_EQ(sched.tick_count(), 1u);
    EXPECT_EQ(first.resumed, 2);
    EXPECT_EQ(mc.entities[1].resumed_count, 1);
    EXPECT_EQ(mc.entities[2].resumed_count, 1);
    EXPECT_EQ(first.measured, 0);  // were ineligible: nothing to read
    EXPECT_EQ(mc.reads, reads_at_admission);

    mc.entities[1].cpu += kQ * 2;  // overruns the whole cycle
    const TickStats second = sched.tick();
    EXPECT_EQ(second.measured, 2);
    EXPECT_EQ(mc.reads, reads_at_admission + 2);
    EXPECT_EQ(second.suspended, 1);
    EXPECT_EQ(second.resumed, 0);
    EXPECT_EQ(mc.entities[1].suspended_count, 2);  // at admission, and now
    EXPECT_EQ(mc.entities[2].suspended_count, 1);  // at admission only
    EXPECT_TRUE(second.cycle_completed);
    EXPECT_EQ(sched.allowance(1), Duration::zero());  // 1 - 2 + 1 quanta
    EXPECT_EQ(sched.allowance(2), kQ * 2);            // 1 - 0 + 1 quanta
}

TEST(TickTraceWiring, EmptySchedulerStillEmitsTickRows) {
    MockControl mc;
    Scheduler sched(mc, config());
    for (int i = 0; i < 2; ++i) {
        const TickStats st = sched.tick();
        EXPECT_EQ(st.measured + st.suspended + st.resumed, 0);
        EXPECT_FALSE(st.cycle_completed);
    }
    EXPECT_EQ(sched.tick_count(), 2u);
    EXPECT_EQ(mc.reads + mc.suspends + mc.resumes, 0);
}

TEST(TickTraceWiring, AllowanceConservationVisibleInTrace) {
    // The core invariant after every tick: sum(allowance) * Q == t_c.
    MockControl mc;
    for (EntityId id = 1; id <= 3; ++id) mc.ensure(id);
    Scheduler sched(mc, config());
    sched.add(1, 1);
    sched.add(2, 2);
    sched.add(3, 3);
    std::uint64_t cycles = 0;
    for (int i = 0; i < 200; ++i) {
        if (i > 0) mc.run_kernel_quantum(kQ);
        if (sched.tick().cycle_completed) ++cycles;
        Duration sum{0};
        for (EntityId id = 1; id <= 3; ++id) sum += sched.allowance(id);
        EXPECT_EQ(sum, sched.cycle_time_remaining()) << "at tick " << sched.tick_count();
    }
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(cycles, sched.cycles_completed());
}

TEST(TickTraceWiring, InvariantIsExactAfterOddNanosecondCharges) {
    // Charges that are no whole fraction of Q: any division by Q would
    // round, and the allowances would drift from t_c over the run.
    MockControl mc;
    for (EntityId id = 1; id <= 3; ++id) mc.ensure(id);
    Scheduler sched(mc, config(/*lazy=*/false));
    sched.add(1, 1);
    sched.add(2, 2);
    sched.add(3, 7);
    sched.tick();
    for (int t = 0; t < 300; ++t) {
        for (auto& [id, e] : mc.entities) {
            if (!e.suspended) e.cpu += Duration{3'333'333 + 2 * id + t % 7};
        }
        sched.tick();
    }
    Duration sum{0};
    for (EntityId id = 1; id <= 3; ++id) sum += sched.allowance(id);
    EXPECT_EQ(sum, sched.cycle_time_remaining());
    EXPECT_GT(sched.cycles_completed(), 10u);
}

}  // namespace
}  // namespace alps::core
