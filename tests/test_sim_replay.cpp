// Golden-replay determinism guard for the simulation substrate.
//
// The O(1) rewrite of the event engine, the BSD run queues, and the kernel
// sampling surface must be *semantically invisible*: every seeded run has to
// replay the exact event order of the original (scan-based) implementation.
// This test runs a small but scheduling-rich simulation — mixed shares, a
// sleeper, a mid-run SIGSTOP/SIGCONT, a kill + reap — and serializes a
// per-cycle trace (cycle index, tick, per-entity exact consumption, kernel
// counters) that is compared byte-for-byte against a checked-in fixture
// generated before the engine swap.
//
// Regenerate (only when the *intended* semantics change, never to paper over
// an accidental divergence):
//   ALPS_REGEN_GOLDEN=1 ./test_sim <gtest filter SimReplay>
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "alps/sim_adapter.h"
#include "metrics/exact_cycle_log.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/time.h"

namespace alps {
namespace {

using util::Duration;
using util::TimePoint;

#ifndef ALPS_GOLDEN_DIR
#error "ALPS_GOLDEN_DIR must point at tests/golden"
#endif

std::string golden_path() {
    return std::string(ALPS_GOLDEN_DIR) + "/sim_replay.golden";
}

/// Runs the reference scenario and serializes its per-cycle trace.
std::string replay_trace() {
    sim::Engine engine;
    os::Kernel kernel(engine);

    core::SchedulerConfig scfg;
    scfg.quantum = util::msec(10);
    core::SimAlps alps(kernel, scfg);

    metrics::ExactCycleLog log([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    alps.scheduler().set_cycle_observer(log.observer());

    // Mixed shares; one worker does periodic I/O so wakeup-boost preemption
    // and updatepri sleep credit are exercised, not just pure compute.
    const util::Share shares[] = {1, 2, 3, 5};
    std::vector<os::Pid> pids;
    for (std::size_t i = 0; i < 4; ++i) {
        auto behavior =
            i == 2 ? std::unique_ptr<os::Behavior>(std::make_unique<os::PhasedIoBehavior>(
                         util::msec(30), util::msec(70), util::msec(120)))
                   : std::unique_ptr<os::Behavior>(std::make_unique<os::CpuBoundBehavior>());
        std::string name = "w";
        name += std::to_string(i);
        const os::Pid pid = kernel.spawn(name, /*uid=*/100, std::move(behavior));
        alps.manage(pid, shares[i]);
        pids.push_back(pid);
    }
    // An unmanaged background process that gets stopped, continued (long
    // enough for multi-second updatepri credit), killed, and reaped — the
    // process-table and run-queue paths the rewrite touches most.
    const os::Pid bg =
        kernel.spawn("bg", /*uid=*/101, std::make_unique<os::CpuBoundBehavior>(), 4);
    engine.schedule_at(TimePoint{} + util::msec(150),
                       [&] { kernel.send_signal(bg, os::Signal::kStop); });
    engine.schedule_at(TimePoint{} + util::msec(2650),
                       [&] { kernel.send_signal(bg, os::Signal::kCont); });
    engine.schedule_at(TimePoint{} + util::msec(3000), [&] {
        kernel.send_signal(bg, os::Signal::kKill);
        kernel.reap(bg);
    });

    while (log.cycle_count() < 40 && engine.now() < TimePoint{} + util::sec(30)) {
        engine.run_until(engine.now() + util::msec(100));
    }

    std::ostringstream out;
    for (const core::CycleRecord& rec : log.records()) {
        out << "cycle " << rec.index << " tick " << rec.end_tick;
        for (std::size_t i = 0; i < rec.ids.size(); ++i) {
            out << " | " << rec.ids[i] << ":" << rec.shares[i] << ":"
                << rec.consumed[i].count();
        }
        out << "\n";
    }
    out << "now_ns " << (engine.now() - TimePoint{}).count() << "\n";
    out << "ctx_switches " << kernel.context_switches() << "\n";
    out << "alps_cpu_ns " << alps.overhead_cpu().count() << "\n";
    for (const os::Pid pid : pids) {
        out << "pid " << pid << " cpu_ns " << kernel.cpu_time(pid).count()
            << " estcpu " << kernel.proc(pid).estcpu << " dispatches "
            << kernel.proc(pid).dispatches << "\n";
    }
    out << "ticks " << alps.driver().ticks_run() << " missed "
        << alps.driver().boundaries_missed() << "\n";
    return out.str();
}

TEST(SimReplay, PerCycleTraceMatchesGolden) {
    const std::string trace = replay_trace();
    if (std::getenv("ALPS_REGEN_GOLDEN") != nullptr) {
        std::ofstream f(golden_path(), std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << golden_path();
        f << trace;
        GTEST_SKIP() << "regenerated " << golden_path();
    }
    std::ifstream f(golden_path(), std::ios::binary);
    ASSERT_TRUE(f.good()) << "missing fixture " << golden_path()
                          << " (run with ALPS_REGEN_GOLDEN=1 to create)";
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_EQ(trace, buf.str())
        << "simulation substrate diverged from the golden replay";
}

/// The same scenario must replay identically within one process run, too
/// (catches accidental dependence on global state or address-based ordering).
TEST(SimReplay, TraceIsStableAcrossRepeats) {
    EXPECT_EQ(replay_trace(), replay_trace());
}

}  // namespace
}  // namespace alps
