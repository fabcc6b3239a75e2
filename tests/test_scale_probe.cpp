// Sharded-machine probes: a very large process population, and full-stack
// shard-count invariance with an ALPS driver on every kernel.
//
// Scale: eight uniprocessor kernels, one per shard, split ALPS_SCALE_PROCS
// compute-bound processes evenly and run 100 ms of simulated time in
// conservative lockstep. The default population (64k) keeps ctest fast; the
// EXPERIMENTS.md million-process row is this same test re-run with
// ALPS_SCALE_PROCS=1000000. What the probe guards:
//   * spawn stays linear (SoA proc table + arena slabs — no quadratic
//     surprise hiding behind a big population),
//   * the lockstep protocol's per-epoch cost is independent of the proc
//     count (only runnable-queue churn and housekeeping touch the
//     population), and
//   * accounting stays exact: total consumed CPU == shards x simulated wall
//     (every domain is saturated, so capacity accounting has no slack).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alps/sim_adapter.h"
#include "metrics/exact_cycle_log.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/shard.h"
#include "telemetry/recorder.h"
#include "util/time.h"

namespace alps {
namespace {

TEST(ShardedScale, LargeProcPopulationAcrossShards) {
    std::uint64_t total_procs = 65'536;
    if (const char* env = std::getenv("ALPS_SCALE_PROCS")) {
        total_procs = std::strtoull(env, nullptr, 10);
        ASSERT_GT(total_procs, 0u);
    }
    constexpr unsigned kShards = 8;
    const util::Duration sim_span = util::msec(100);

    sim::ShardedEngine::Config cfg;
    cfg.shards = kShards;
    cfg.epoch = util::msec(10);
    sim::ShardedEngine sharded(cfg);

    std::vector<std::unique_ptr<os::Kernel>> kernels;
    kernels.reserve(kShards);
    std::vector<std::vector<os::Pid>> pids(kShards);
    for (unsigned s = 0; s < kShards; ++s) {
        kernels.push_back(std::make_unique<os::Kernel>(
            sharded.engine(s), nullptr, os::KernelConfig{.ncpus = 1}));
        const std::uint64_t n =
            total_procs / kShards + (s < total_procs % kShards ? 1 : 0);
        pids[s].reserve(n);
        // One shared name: at a million processes the per-proc string is the
        // dominant spawn cost, and nothing in the probe reads names back.
        for (std::uint64_t i = 0; i < n; ++i) {
            pids[s].push_back(kernels[s]->spawn(
                "w", /*uid=*/100, std::make_unique<os::CpuBoundBehavior>()));
        }
    }

    sharded.run_lockstep(sim::TimePoint{} + sim_span,
                         sim::ShardedEngine::RunMode::kSerial);

    // Every uniprocessor domain is saturated with compute-bound work, so the
    // population's total CPU must equal the machine's exact capacity.
    util::Duration consumed{0};
    std::uint64_t alive = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        for (const os::Pid pid : pids[s]) {
            const os::Kernel::SampleView v = kernels[s]->sample(pid);
            consumed += v.cpu_time;
            alive += v.alive ? 1 : 0;
        }
    }
    EXPECT_EQ(alive, total_procs);
    EXPECT_EQ(consumed, sim_span * static_cast<std::int64_t>(kShards));
    EXPECT_EQ(sharded.stats().epochs, 10u);
    EXPECT_GT(sharded.total_events_fired(), 0u);
}

// What one kernel group of the invariance probe produced: each worker's
// final CPU, then every cycle record (index, end tick, ids, shares and
// consumed CPU), flattened so two runs compare with one ==.
struct GroupTrace {
    std::vector<std::int64_t> worker_cpu_ns;
    std::vector<std::int64_t> cycles;
    std::size_t cycle_count = 0;
};

struct InvarianceRun {
    std::vector<GroupTrace> groups;
    sim::ShardedEngine::Stats stats;
};

// kGroups uniprocessor kernels, each with its own SimAlps over three
// compute-bound workers at shares 1:2:3, kernel g homed on shard g % shards.
// The logical machine never depends on `shards` or `mode`.
InvarianceRun run_alps_groups(unsigned shards, sim::ShardedEngine::RunMode mode) {
    constexpr unsigned kGroups = 8;
    constexpr int kCycles = 12;
    constexpr util::Share kGroupShares = 1 + 2 + 3;
    const util::Duration quantum = util::msec(10);

    sim::ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.epoch = quantum;  // ALPS ticks land on epoch boundaries
    sim::ShardedEngine sharded(cfg);

    core::SchedulerConfig acfg;
    acfg.quantum = quantum;
    std::vector<std::unique_ptr<os::Kernel>> kernels;
    std::vector<std::unique_ptr<core::SimAlps>> drivers;
    std::vector<std::unique_ptr<metrics::ExactCycleLog>> logs;
    std::vector<std::vector<os::Pid>> workers(kGroups);
    for (unsigned g = 0; g < kGroups; ++g) {
        kernels.push_back(std::make_unique<os::Kernel>(
            sharded.engine(g % shards), nullptr, os::KernelConfig{.ncpus = 1}));
        os::Kernel& kernel = *kernels.back();
        drivers.push_back(std::make_unique<core::SimAlps>(
            kernel, acfg, core::CostModel{}, "alps" + std::to_string(g), /*uid=*/0));
        logs.push_back(std::make_unique<metrics::ExactCycleLog>(
            [&kernel](core::EntityId id) {
                return kernel.cpu_time(static_cast<os::Pid>(id));
            }));
        drivers.back()->scheduler().set_cycle_observer(logs.back()->observer());
        for (util::Share share = 1; share <= 3; ++share) {
            std::string name = "w";
            name += std::to_string(g);
            name += "_";
            name += std::to_string(share);
            const os::Pid pid = kernel.spawn(name, /*uid=*/100 + static_cast<os::Uid>(g),
                                             std::make_unique<os::CpuBoundBehavior>());
            drivers.back()->manage(pid, share);
            workers[g].push_back(pid);
        }
    }

    sharded.run_lockstep(sim::TimePoint{} + quantum * kGroupShares * kCycles, mode);

    InvarianceRun run;
    run.stats = sharded.stats();
    for (unsigned g = 0; g < kGroups; ++g) {
        GroupTrace& trace = run.groups.emplace_back();
        for (const os::Pid pid : workers[g]) {
            trace.worker_cpu_ns.push_back(kernels[g]->cpu_time(pid).count());
        }
        trace.cycle_count = logs[g]->cycle_count();
        for (const core::CycleRecord& rec : logs[g]->records()) {
            trace.cycles.push_back(static_cast<std::int64_t>(rec.index));
            trace.cycles.push_back(static_cast<std::int64_t>(rec.end_tick));
            for (std::size_t i = 0; i < rec.ids.size(); ++i) {
                trace.cycles.push_back(static_cast<std::int64_t>(rec.ids[i]));
                trace.cycles.push_back(static_cast<std::int64_t>(rec.shares[i]));
                trace.cycles.push_back(rec.consumed[i].count());
            }
        }
    }
    return run;
}

TEST(ShardedScale, AlpsGroupsInvariantAcrossShardCountsAndModes) {
    using Mode = sim::ShardedEngine::RunMode;
    const InvarianceRun serial1 = run_alps_groups(1, Mode::kSerial);
    for (const GroupTrace& g : serial1.groups) {
        // Deterministic: 12 nominal cycle lengths of simulated time close
        // 10 cycles (tick quantization and the driver's own CPU stretch
        // them).
        EXPECT_EQ(g.cycle_count, 10u);
        EXPECT_GT(g.worker_cpu_ns.back(), g.worker_cpu_ns.front());
    }

    const InvarianceRun serial8 = run_alps_groups(8, Mode::kSerial);
    const InvarianceRun threaded8 = run_alps_groups(8, Mode::kThreaded);
    EXPECT_EQ(serial8.stats.serial_runs, 1u);
    EXPECT_EQ(threaded8.stats.threaded_runs, 1u);
    for (const InvarianceRun* run : {&serial8, &threaded8}) {
        const bool threaded = run == &threaded8;
        ASSERT_EQ(run->groups.size(), serial1.groups.size());
        EXPECT_EQ(run->stats.epochs, serial1.stats.epochs);
        for (std::size_t g = 0; g < serial1.groups.size(); ++g) {
            EXPECT_EQ(run->groups[g].worker_cpu_ns, serial1.groups[g].worker_cpu_ns)
                << "group " << g << ", 8 shards, threaded=" << threaded;
            EXPECT_TRUE(run->groups[g].cycles == serial1.groups[g].cycles)
                << "group " << g << ", 8 shards, threaded=" << threaded;
        }
    }
}

// The per-shard telemetry merge: under the threaded mode every shard thread
// fills its own ring, and drain() folds them into one (scope, ts)-ordered
// stream in which every shard's epoch grid comes out whole.
TEST(ShardedScale, ThreadedShardsMergeIntoOneTrace) {
    constexpr unsigned kShards = 2;
    telemetry::Session session;
    telemetry::attach(session);
    const InvarianceRun run =
        run_alps_groups(kShards, sim::ShardedEngine::RunMode::kThreaded);
    telemetry::detach();
    ASSERT_EQ(run.stats.threaded_runs, 1u);

    const std::vector<telemetry::Record> records = session.drain();
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                               [](const telemetry::Record& a, const telemetry::Record& b) {
                                   return a.scope != b.scope ? a.scope < b.scope
                                                             : a.ts_ns < b.ts_ns;
                               }));
    std::vector<std::uint64_t> epochs(kShards, 0);
    std::vector<std::uint64_t> last_ts(kShards, 0);
    bool monotone_per_shard = true;
    for (const telemetry::Record& rec : records) {
        if (rec.name != telemetry::kNameEpoch) continue;
        ASSERT_LT(rec.track, kShards);
        ++epochs[rec.track];
        monotone_per_shard = monotone_per_shard && rec.ts_ns > last_ts[rec.track];
        last_ts[rec.track] = rec.ts_ns;
    }
    for (unsigned s = 0; s < kShards; ++s) {
        EXPECT_EQ(epochs[s], run.stats.epochs) << "shard " << s;
    }
    EXPECT_TRUE(monotone_per_shard);
}

}  // namespace
}  // namespace alps
