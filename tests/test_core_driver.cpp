// AlpsDriverBehavior timing: boundary bookkeeping under normal and
// pathological tick costs, for the ALPS scheduler and the stride engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "alps/sim_adapter.h"
#include "alps/stride_engine.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"

namespace alps::core {
namespace {

using util::msec;
using util::sec;

TEST(AlpsDriver, TicksOncePerQuantum) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    SimAlps alps(kernel, cfg);
    const os::Pid w = kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
    alps.manage(w, 1);
    engine.run_until(engine.now() + sec(2));
    // ~200 quanta in 2 s; the first fires at t=Q.
    EXPECT_NEAR(static_cast<double>(alps.driver().ticks_run()), 200.0, 3.0);
    EXPECT_EQ(alps.driver().boundaries_missed(), 0u);
}

struct DriverCounts {
    std::uint64_t ticks = 0;
    std::uint64_t missed = 0;
};

/// Runs one CPU-bound worker for 3 s under `Alps` (SimAlps or SimStrideAlps,
/// both driven by AlpsDriverBehavior) with a 10 ms quantum and `cost`.
template <typename Alps, typename Config>
DriverCounts run_driver(const CostModel& cost) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    Config cfg;
    cfg.quantum = msec(10);
    Alps alps(kernel, cfg, cost);
    const os::Pid w = kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
    alps.manage(w, 1);
    engine.run_until(engine.now() + sec(3));
    return {alps.driver().ticks_run(), alps.driver().boundaries_missed()};
}

TEST(AlpsDriver, PathologicalTickCostSkipsBoundariesInsteadOfBunching) {
    // A cost model where one tick costs 2.5 quanta of CPU: the driver can
    // only complete a tick every ~3 boundaries. The absolute-deadline logic
    // must skip the missed boundaries (count them) rather than fire a burst
    // of catch-up ticks — under the ALPS scheduler and the stride engine
    // alike, since both run on the same driver.
    CostModel pathological;
    pathological.timer_event_us = 25000.0;  // 25 ms per tick
    const std::pair<const char*, DriverCounts> runs[] = {
        {"SimAlps", run_driver<SimAlps, SchedulerConfig>(pathological)},
        {"SimStrideAlps", run_driver<SimStrideAlps, StrideEngineConfig>(pathological)},
    };
    for (const auto& [name, counts] : runs) {
        SCOPED_TRACE(name);
        const auto [ticks, missed] = counts;
        // Each tick burns 25 ms (plus queueing behind the workload — at this
        // demand the driver's own priority degrades too), so a tick
        // completes every ~30+ ms: around 100 ticks in 3 s, never a catch-up
        // burst of 300.
        EXPECT_GT(ticks, 60u);
        EXPECT_LT(ticks, 120u);
        // Most boundaries were skipped, roughly two per completed tick.
        EXPECT_GT(missed, ticks);
        // Accounted boundaries can lag the wall total (in-flight sequence,
        // dispatch delay) but never exceed it.
        EXPECT_LE(ticks + missed, 300u);
        EXPECT_GE(ticks + missed, 240u);
    }
}

TEST(AlpsDriver, DriverSurvivesEmptyScheduler) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    SimAlps alps(kernel, cfg);  // nothing managed
    engine.run_until(engine.now() + sec(1));
    EXPECT_GE(alps.driver().ticks_run(), 95u);
    EXPECT_TRUE(kernel.alive(alps.driver_pid()));
    // An idle driver costs only the timer events.
    EXPECT_LT(util::to_sec(alps.overhead_cpu()), 0.005);
}

TEST(AlpsDriver, SpawningDuringBehaviorHookIsSafe) {
    // A workload process whose behaviour spawns a child mid-run (like the
    // web master); the ALPS driver keeps control throughout.
    sim::Engine engine;
    os::Kernel kernel(engine);
    SchedulerConfig cfg;
    cfg.quantum = msec(10);
    SimAlps alps(kernel, cfg);

    os::Pid child = os::kNoPid;
    auto spawner = std::make_unique<os::FunctionBehavior>(
        [&, phase = 0](os::ProcContext ctx) mutable -> os::Action {
            if (phase++ == 0) return os::RunAction{msec(50)};
            if (child == os::kNoPid) {
                child = ctx.kernel.spawn("child", 0,
                                         std::make_unique<os::CpuBoundBehavior>());
            }
            return os::RunAction{os::kRunForever};
        });
    const os::Pid parent = kernel.spawn("parent", 0, std::move(spawner));
    alps.manage(parent, 1);
    engine.run_until(engine.now() + sec(2));
    ASSERT_NE(child, os::kNoPid);
    EXPECT_TRUE(kernel.alive(child));
    // The child is NOT under ALPS (never managed): it competes freely, and
    // ALPS still correctly meters the parent within the pair.
    EXPECT_GT(kernel.cpu_time(child).count(), 0);
    EXPECT_EQ(alps.driver().boundaries_missed(), 0u);
}

}  // namespace
}  // namespace alps::core
