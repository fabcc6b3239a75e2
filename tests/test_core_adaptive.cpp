// The adaptive-quantum extension: set_quantum() in the core, the
// controller's policy, and the closed loop on the simulated kernel.
#include <gtest/gtest.h>

#include <iostream>
#include <memory>

#include "alps/adaptive.h"
#include "alps/scheduler.h"
#include "alps/sim_adapter.h"
#include "mock_control.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/assert.h"

namespace alps::core {
namespace {

using alps::testing::MockControl;
using util::Duration;
using util::msec;
using util::sec;

// ----------------------------------------------------------------------------
// Scheduler::set_quantum

TEST(SetQuantum, RescalesAllowancesPreservingEntitlement) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    Scheduler sched(mc, cfg);
    sched.add(1, 2);
    sched.add(2, 4);
    // Allowances 2 and 4 ten-ms quanta = 20 ms and 40 ms of CPU entitlement.
    sched.set_quantum(msec(20));
    EXPECT_EQ(sched.allowance(1), msec(20));  // now 1 quantum
    EXPECT_EQ(sched.allowance(2), msec(40));  // now 2 quanta
    EXPECT_EQ(sched.config().quantum, msec(20));
    // The invariant sum(a_i)*Q == t_c survives.
    EXPECT_EQ(sched.cycle_time_remaining(), msec(60));
    // Cycle length is now denominated in the new quantum.
    EXPECT_EQ(sched.cycle_length(), msec(20) * 6);
}

TEST(SetQuantum, ProportionsSurviveAQuantumChange) {
    MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    Scheduler sched(mc, cfg);
    sched.add(1, 1);
    sched.add(2, 3);
    sched.tick();
    for (int t = 0; t < 1500; ++t) {
        mc.run_kernel_quantum(sched.config().quantum);
        sched.tick();
        if (t == 600) sched.set_quantum(msec(25));
    }
    const double c1 = static_cast<double>(mc.entities[1].cpu.count());
    const double c2 = static_cast<double>(mc.entities[2].cpu.count());
    EXPECT_NEAR(c2 / c1, 3.0, 0.15);
}

TEST(SetQuantum, SameValueIsNoOp) {
    MockControl mc;
    mc.ensure(1);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    Scheduler sched(mc, cfg);
    sched.add(1, 5);
    sched.set_quantum(msec(10));
    EXPECT_EQ(sched.allowance(1), msec(50));
}

TEST(SetQuantum, RoundTripKeepsEntitlementToTheNanosecond) {
    // A charge that is no whole fraction of any quantum involved: rescaling
    // the allowance by 10/30, 30/7 and 7/10 would round at each step.
    MockControl mc;
    mc.ensure(1);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    cfg.lazy_measurement = false;
    Scheduler sched(mc, cfg);
    sched.add(1, 1);
    sched.tick();  // eligible
    mc.entities[1].cpu += Duration{3'333'333};
    sched.tick();  // charged
    const Duration left = msec(10) - Duration{3'333'333};
    ASSERT_EQ(sched.allowance(1), left);
    for (const Duration q : {msec(30), msec(7), msec(10)}) sched.set_quantum(q);
    EXPECT_EQ(sched.allowance(1), left);
    EXPECT_EQ(sched.cycle_time_remaining(), left);
}

TEST(SetQuantum, NonPositiveViolatesContract) {
    MockControl mc;
    Scheduler sched(mc, {});
    EXPECT_THROW(sched.set_quantum(Duration::zero()), util::ContractViolation);
}

// ----------------------------------------------------------------------------
// AdaptiveQuantumController

TEST(AdaptiveController, OverBudgetGrowsQuantum) {
    AdaptiveQuantumConfig cfg;
    cfg.target_overhead = 0.002;
    cfg.gain = 1.0;
    AdaptiveQuantumController ctl(cfg);
    // 0.8% overhead at 10 ms with a 0.2% budget: model says 4x the quantum.
    const Duration q = ctl.update(msec(10), msec(8), sec(1));
    EXPECT_EQ(q, msec(40));
}

TEST(AdaptiveController, UnderBudgetShrinksQuantum) {
    AdaptiveQuantumConfig cfg;
    cfg.target_overhead = 0.004;
    cfg.gain = 1.0;
    AdaptiveQuantumController ctl(cfg);
    const Duration q = ctl.update(msec(40), msec(1), sec(1));  // 0.1% measured
    EXPECT_EQ(q, msec(10));
}

TEST(AdaptiveController, GainDampens) {
    AdaptiveQuantumConfig cfg;
    cfg.target_overhead = 0.002;
    cfg.gain = 0.5;
    AdaptiveQuantumController ctl(cfg);
    // 4x over budget with gain 0.5 -> sqrt(4) = 2x step.
    EXPECT_EQ(ctl.update(msec(10), msec(8), sec(1)), msec(20));
}

TEST(AdaptiveController, ClampsToRange) {
    AdaptiveQuantumConfig cfg;
    cfg.min_quantum = msec(5);
    cfg.max_quantum = msec(50);
    cfg.target_overhead = 0.002;
    cfg.gain = 1.0;
    // Fresh controller per direction: update() smooths across calls.
    AdaptiveQuantumController over(cfg);
    EXPECT_EQ(over.update(msec(10), msec(500), sec(1)), msec(50));  // way over
    AdaptiveQuantumController idle(cfg);
    EXPECT_EQ(idle.update(msec(10), Duration::zero(), sec(1)), msec(5));
}

TEST(AdaptiveController, QuantizesToGranularity) {
    AdaptiveQuantumConfig cfg;
    cfg.target_overhead = 0.002;
    cfg.gain = 1.0;
    cfg.granularity = msec(5);
    // 1.5x over budget at 10 ms -> raw 15 ms -> already on the 5 ms grid.
    AdaptiveQuantumController a(cfg);
    EXPECT_EQ(a.update(msec(10), msec(3), sec(1)), msec(15));
    // 1.2x over budget is inside the default 20% dead band: unchanged.
    AdaptiveQuantumController b(cfg);
    EXPECT_EQ(b.update(msec(10), util::usec(2400), sec(1)), msec(10));
}

TEST(AdaptiveController, SmoothingFiltersASpike) {
    AdaptiveQuantumConfig cfg;
    cfg.target_overhead = 0.002;
    cfg.gain = 1.0;
    cfg.smoothing = 0.25;
    AdaptiveQuantumController ctl(cfg);
    // Settle at the target...
    for (int i = 0; i < 10; ++i) {
        (void)ctl.update(msec(10), util::usec(2000), sec(1));
    }
    EXPECT_NEAR(ctl.smoothed_overhead(), 0.002, 1e-9);
    // ... a single 5x spike moves the EWMA only 25% of the way.
    (void)ctl.update(msec(10), msec(10), sec(1));
    EXPECT_NEAR(ctl.smoothed_overhead(), 0.75 * 0.002 + 0.25 * 0.01, 1e-9);
}

TEST(AdaptiveController, ConfigContracts) {
    AdaptiveQuantumConfig bad;
    bad.target_overhead = 0.0;
    EXPECT_THROW(AdaptiveQuantumController{bad}, util::ContractViolation);
    bad = {};
    bad.gain = 1.5;
    EXPECT_THROW(AdaptiveQuantumController{bad}, util::ContractViolation);
    bad = {};
    bad.max_quantum = msec(1);  // < min
    EXPECT_THROW(AdaptiveQuantumController{bad}, util::ContractViolation);
}

// ----------------------------------------------------------------------------
// Closed loop on the simulated kernel

TEST(AdaptiveIntegration, ConvergesToOverheadBudget) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig scfg;
    scfg.quantum = msec(10);
    SimAlps alps(kernel, scfg);
    // Equal20: the costliest workload (~0.69% overhead at 10 ms).
    for (int i = 0; i < 20; ++i) {
        std::string name = "w";
        name += std::to_string(i);
        const os::Pid pid = kernel.spawn(name, 0, std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pid, 20);
    }
    AdaptiveQuantumConfig acfg;
    acfg.target_overhead = 0.002;  // 0.2%
    SimAdaptiveQuantum adaptive(alps, acfg, sec(2));

    // The evaluation window stretches to a full cycle (16 s at Q = 40 ms for
    // this 400-share workload), so convergence takes a few minutes of
    // simulated time.
    engine.run_until(engine.now() + sec(240));
    EXPECT_GT(adaptive.adjustments(), 0);
    const Duration q = adaptive.current_quantum();
    EXPECT_GT(q, msec(15));  // grew from 10 ms
    EXPECT_LT(q, msec(120));

    // Measure converged overhead over a couple of cycles.
    const Duration cpu0 = alps.overhead_cpu();
    engine.run_until(engine.now() + sec(40));
    const double overhead = util::to_sec(alps.overhead_cpu() - cpu0) / 40.0;
    // Within the dead band around the 0.2% budget (vs 0.69% unmanaged).
    EXPECT_GT(overhead, 0.0008);
    EXPECT_LT(overhead, 0.0035);
    std::cout << "adaptive: Q=" << util::to_ms(q) << "ms overhead=" << overhead * 100
              << "%\n";
}

TEST(AdaptiveIntegration, KeepsProportionsWhileAdapting) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig scfg;
    scfg.quantum = msec(10);
    SimAlps alps(kernel, scfg);
    std::array<os::Pid, 3> pids{};
    const util::Share shares[] = {1, 2, 3};
    for (int i = 0; i < 3; ++i) {
        pids[static_cast<std::size_t>(i)] =
            kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pids[static_cast<std::size_t>(i)],
                    shares[static_cast<std::size_t>(i)]);
    }
    AdaptiveQuantumConfig acfg;
    acfg.target_overhead = 0.001;
    SimAdaptiveQuantum adaptive(alps, acfg, sec(1));
    engine.run_until(engine.now() + sec(10));
    // Measure after the controller has settled.
    std::array<util::Duration, 3> base{};
    for (int i = 0; i < 3; ++i) {
        base[static_cast<std::size_t>(i)] =
            kernel.cpu_time(pids[static_cast<std::size_t>(i)]);
    }
    engine.run_until(engine.now() + sec(30));
    double consumed[3];
    double total = 0;
    for (int i = 0; i < 3; ++i) {
        consumed[i] = util::to_sec(kernel.cpu_time(pids[static_cast<std::size_t>(i)]) -
                                   base[static_cast<std::size_t>(i)]);
        total += consumed[i];
    }
    EXPECT_NEAR(consumed[0] / total, 1.0 / 6.0, 0.03);
    EXPECT_NEAR(consumed[1] / total, 2.0 / 6.0, 0.03);
    EXPECT_NEAR(consumed[2] / total, 3.0 / 6.0, 0.03);
}

}  // namespace
}  // namespace alps::core
