// ALPS on a multiprocessor (extension; the paper's host is a uniprocessor).
//
// Key observed property: ALPS keeps its contract — proportional division of
// whatever CPU time the group consumes — but it is not work-conserving on
// SMP: when the eligible set is smaller than the CPU count, capacity idles.
// With weights infeasible for single-threaded processes (one process "owed"
// more than one CPU), ALPS holds the exact ratios by idling rather than
// redistributing the surplus — the in-kernel problem Surplus Fair Scheduling
// (Chandra et al., cited in the paper) was designed to solve.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alps/sim_adapter.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "workload/experiments.h"

namespace alps::core {
namespace {

using util::Duration;
using util::msec;
using util::sec;
using util::to_sec;

struct SmpRun {
    std::vector<double> fractions;
    double utilization = 0.0;  // consumed / (ncpus * wall)
    std::uint64_t missed = 0;
};

SmpRun run_smp(int ncpus, const std::vector<util::Share>& shares, Duration wall) {
    sim::Engine engine;
    os::KernelConfig kcfg;
    kcfg.ncpus = ncpus;
    os::Kernel kernel(engine, nullptr, kcfg);
    SchedulerConfig scfg;
    scfg.quantum = msec(10);
    SimAlps alps(kernel, scfg);
    std::vector<os::Pid> pids;
    for (const auto s : shares) {
        const os::Pid pid =
            kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pid, s);
        pids.push_back(pid);
    }
    engine.run_until(engine.now() + wall);
    SmpRun r;
    double total = 0.0;
    for (const os::Pid p : pids) {
        r.fractions.push_back(to_sec(kernel.cpu_time(p)));
        total += r.fractions.back();
    }
    for (auto& f : r.fractions) f /= total;
    r.utilization = total / (static_cast<double>(ncpus) * to_sec(wall));
    r.missed = alps.driver().boundaries_missed();
    return r;
}

TEST(SmpAlps, FeasibleSharesStayProportionalOnTwoCpus) {
    const SmpRun r = run_smp(2, {1, 2, 3}, sec(30));
    EXPECT_NEAR(r.fractions[0], 1.0 / 6.0, 0.01);
    EXPECT_NEAR(r.fractions[1], 2.0 / 6.0, 0.01);
    EXPECT_NEAR(r.fractions[2], 3.0 / 6.0, 0.01);
    EXPECT_EQ(r.missed, 0u);
}

TEST(SmpAlps, NotWorkConservingWithFewEligible) {
    // Proportions are exact but the machine is not saturated: once the
    // small-share processes exhaust their allowances, fewer runnables than
    // CPUs remain.
    const SmpRun r = run_smp(2, {1, 2, 3}, sec(30));
    EXPECT_LT(r.utilization, 0.9);
    EXPECT_GT(r.utilization, 0.5);
}

TEST(SmpAlps, InfeasibleWeightsHoldRatiosByIdling) {
    // The 8-share process is "owed" 1.6 CPUs but can use at most one. ALPS
    // still delivers the exact 1:1:8 split of consumed time — at the price
    // of leaving the second CPU mostly idle.
    const SmpRun r = run_smp(2, {1, 1, 8}, sec(30));
    EXPECT_NEAR(r.fractions[0], 0.1, 0.01);
    EXPECT_NEAR(r.fractions[1], 0.1, 0.01);
    EXPECT_NEAR(r.fractions[2], 0.8, 0.01);
    EXPECT_LT(r.utilization, 0.7);  // far from the 2-CPU capacity
}

TEST(SmpAlps, EqualSharesSaturateTheMachine) {
    // With all processes eligible all the time (equal shares, counts >=
    // ncpus), nothing idles: utilization ~1 and proportions hold.
    const SmpRun r = run_smp(2, {5, 5, 5, 5}, sec(30));
    for (const double f : r.fractions) EXPECT_NEAR(f, 0.25, 0.02);
    EXPECT_GT(r.utilization, 0.95);
}

TEST(SmpAlps, FourCpusEightProcesses) {
    const SmpRun r = run_smp(4, {1, 1, 2, 2, 3, 3, 4, 4}, sec(30));
    double total_share = 20.0;
    const double expected[] = {1, 1, 2, 2, 3, 3, 4, 4};
    for (std::size_t i = 0; i < r.fractions.size(); ++i) {
        EXPECT_NEAR(r.fractions[i], expected[i] / total_share, 0.015) << i;
    }
}

TEST(SmpAlps, GroupPrincipalExploitsParallelism) {
    // A principal with two member processes can burn 2 CPUs; a solo
    // principal cannot. With shares 1:1 on 2 CPUs, exact proportionality
    // still holds on consumed time (the pair is throttled to match the
    // solo's feasible rate).
    sim::Engine engine;
    os::KernelConfig kcfg;
    kcfg.ncpus = 2;
    os::Kernel kernel(engine, nullptr, kcfg);
    SchedulerConfig scfg;
    scfg.quantum = msec(10);
    SimGroupAlps alps(kernel, scfg);
    const os::Pid solo =
        kernel.spawn("solo", 100, std::make_unique<os::CpuBoundBehavior>());
    const os::Pid p1 =
        kernel.spawn("pair1", 200, std::make_unique<os::CpuBoundBehavior>());
    const os::Pid p2 =
        kernel.spawn("pair2", 200, std::make_unique<os::CpuBoundBehavior>());
    alps.manage_user("solo", 100, 1);
    alps.manage_user("pair", 200, 1);
    engine.run_until(engine.now() + sec(30));
    const double d_solo = to_sec(kernel.cpu_time(solo));
    const double d_pair = to_sec(kernel.cpu_time(p1)) + to_sec(kernel.cpu_time(p2));
    EXPECT_NEAR(d_pair / (d_solo + d_pair), 0.5, 0.05);
}

TEST(SmpAlps, PinningProtectsPerCoreControllersFromMigration) {
    // The per-core deployment's correctness rests on the pinned-process
    // exemption: idle-steal and rebalance must not move a worker off the
    // domain whose controller measures it. With the exemption (pin_workers,
    // the default) no cross-domain migration happens at all; without it the
    // kernel shuffles workers between domains and the worst instance's
    // share error degrades by an order of magnitude.
    const auto run = [](bool pin) {
        workload::ManyCoreConfig cfg;
        cfg.ncpus = 8;
        cfg.procs_per_cpu = 2;
        cfg.per_core_alps = true;
        cfg.pin_workers = pin;
        cfg.quantum = util::msec(10);
        cfg.measure_cycles = 20;
        cfg.warmup_cycles = 3;
        return workload::run_many_core_experiment(cfg);
    };
    const auto pinned = run(true);
    EXPECT_EQ(pinned.migrations, 0u);
    EXPECT_EQ(pinned.steals, 0u);

    const auto unpinned = run(false);
    EXPECT_GT(unpinned.migrations + unpinned.steals, 0u);
    EXPECT_GT(unpinned.worst_rms_error, 2.0 * pinned.worst_rms_error);
}

}  // namespace
}  // namespace alps::core
