#include "workload/sharded.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "alps/scheduler.h"
#include "alps/shard_view.h"
#include "alps/sim_adapter.h"
#include "metrics/exact_cycle_log.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "os/shard_link.h"
#include "util/assert.h"

namespace alps::workload {

using util::Duration;
using util::Share;
using util::TimePoint;

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

}  // namespace

ShardedRunResult run_sharded_experiment(const ShardedRunConfig& cfg) {
    ALPS_EXPECT(cfg.groups >= 1);
    ALPS_EXPECT(cfg.shards >= 1);
    ALPS_EXPECT(cfg.procs_per_group >= 1);
    ALPS_EXPECT(cfg.measure_cycles > 0);
    ALPS_EXPECT(cfg.hop_period >= 0);

    sim::ShardedEngine::Config scfg;
    scfg.shards = cfg.shards;
    scfg.epoch = cfg.quantum;
    sim::ShardedEngine sharded(scfg);

    // --- Build the fixed logical machine: one uniprocessor kernel + one
    // ALPS + workers per group, homed on shard g % S. -----------------------
    const unsigned groups = cfg.groups;
    std::vector<std::unique_ptr<os::Kernel>> kernels;
    std::vector<std::unique_ptr<core::SimAlps>> alps;
    std::vector<std::unique_ptr<metrics::ExactCycleLog>> logs;
    std::vector<std::vector<os::Pid>> workers(groups);
    kernels.reserve(groups);
    alps.reserve(groups);
    logs.reserve(groups);

    core::SchedulerConfig acfg;
    acfg.quantum = cfg.quantum;

    Share group_shares = 0;
    for (unsigned g = 0; g < groups; ++g) {
        os::KernelConfig kcfg;
        kcfg.ncpus = 1;
        kcfg.policy = cfg.kernel_policy;
        // Per-group stream, derived from the config seed — a function of g,
        // never of the shard count.
        kcfg.policy_seed = cfg.policy_seed + g;
        kernels.push_back(std::make_unique<os::Kernel>(
            sharded.engine(g % cfg.shards), nullptr, kcfg));
        os::Kernel& kernel = *kernels.back();

        alps.push_back(std::make_unique<core::SimAlps>(
            kernel, acfg, core::CostModel{}, "alps" + std::to_string(g), /*uid=*/0));
        logs.push_back(std::make_unique<metrics::ExactCycleLog>(
            [&kernel](core::EntityId id) {
                return kernel.cpu_time(static_cast<os::Pid>(id));
            }));
        alps.back()->scheduler().set_cycle_observer(logs.back()->observer());

        Share total = 0;
        for (int j = 0; j < cfg.procs_per_group; ++j) {
            std::string name = "w";
            name += std::to_string(g);
            name += "_";
            name += std::to_string(j);
            const os::Pid pid = kernel.spawn(
                name, /*uid=*/100 + static_cast<os::Uid>(g),
                std::make_unique<os::CpuBoundBehavior>());
            const Share share = j % 3 + 1;
            alps.back()->manage(pid, share);
            workers[g].push_back(pid);
            total += share;
        }
        group_shares = total;
    }

    // --- Cross-shard machinery: the sample board and the nomad. ------------
    core::ShardSampleBoard board(groups);
    for (unsigned g = 0; g < groups; ++g) {
        board.track(g, *kernels[g], 100 + static_cast<os::Uid>(g));
    }

    os::ShardLink link(sharded, groups);
    for (unsigned g = 0; g < groups; ++g) link.bind(g, *kernels[g]);
    // hosts/nomad_pid entries are touched only by their group's shard thread
    // (hop on the source shard, on_adopt on the destination shard) — the
    // ownership handoff travels inside the adoption message.
    std::vector<char> hosts(groups, 0);
    std::vector<os::Pid> nomad_pid(groups, os::kNoPid);
    if (cfg.hop_period > 0) {
        hosts[0] = 1;
        nomad_pid[0] = kernels[0]->spawn(
            "nomad", /*uid=*/99, std::make_unique<os::CpuBoundBehavior>());
        link.on_adopt = [&](unsigned group, os::Pid pid) {
            hosts[group] = 1;
            nomad_pid[group] = pid;
        };
    }

    // Written by shard 0's boundary hook, read after the run joins.
    Duration last_board_cpu{0};
    const std::int64_t quantum_ns = cfg.quantum.count();
    for (unsigned s = 0; s < cfg.shards; ++s) {
        sharded.set_publish_hook(s, [&, s](unsigned, TimePoint t) {
            for (unsigned g = s; g < groups; g += cfg.shards) {
                board.publish(g, t);
            }
            if (cfg.hop_period <= 0) return;
            const auto boundary =
                static_cast<std::int64_t>(t.since_epoch.count() / quantum_ns);
            if (boundary % cfg.hop_period != 0) return;
            for (unsigned g = s; g < groups; g += cfg.shards) {
                if (hosts[g] == 0) continue;
                os::Kernel& k = *kernels[g];
                const os::Pid pid = nomad_pid[g];
                ALPS_ENSURE(k.alive(pid));
                const os::Proc& p = k.proc(pid);
                if (p.on_cpu >= 0 || p.state != os::RunState::kRunnable) continue;
                hosts[g] = 0;
                link.migrate(g, (g + 1) % groups, pid);
            }
        });
    }
    sharded.set_boundary_hook(0, [&](unsigned, TimePoint) {
        // The cross-shard read: every slice was published before barrier A,
        // so shard 0 sees a consistent whole-machine snapshot.
        last_board_cpu = board.machine_cpu();
    });

    // --- Run to the cycle target in cycle-length lockstep chunks. ----------
    const auto total_cycles =
        static_cast<std::size_t>(cfg.warmup_cycles + cfg.measure_cycles);
    const Duration cycle_len = cfg.quantum * group_shares;
    const TimePoint max_wall =
        TimePoint{} + cycle_len * static_cast<std::int64_t>(3 * (total_cycles + 10));
    const auto done = [&] {
        return std::all_of(logs.begin(), logs.end(), [&](const auto& log) {
            return log->cycle_count() >= total_cycles;
        });
    };
    TimePoint now{};
    while (!done() && now < max_wall) {
        now = std::min(now + cycle_len, max_wall);
        sharded.run_lockstep(now, cfg.mode);
    }

    // --- Digest. -----------------------------------------------------------
    ShardedRunResult res;
    res.timed_out = !done();
    res.wall = sharded.engine(0).now() - TimePoint{};
    res.board_machine_cpu = last_board_cpu;

    Duration alps_cpu{0};
    std::uint64_t checksum = kFnvBasis;
    std::vector<std::vector<core::CycleRecord>> per_group_records;
    per_group_records.reserve(groups);
    for (unsigned g = 0; g < groups; ++g) {
        alps_cpu += alps[g]->overhead_cpu();
        res.cycles_completed += logs[g]->cycle_count();
        res.ticks += alps[g]->scheduler().tick_count();
        res.measurements += alps[g]->scheduler().total_measurements();
        per_group_records.push_back(logs[g]->records());

        fnv(checksum, g);
        for (const os::Pid pid : workers[g]) {
            fnv(checksum,
                static_cast<std::uint64_t>(kernels[g]->cpu_time(pid).count()));
        }
        for (const os::Pid pid : kernels[g]->pids_of_uid(99)) {
            fnv(checksum, static_cast<std::uint64_t>(pid));
            fnv(checksum,
                static_cast<std::uint64_t>(kernels[g]->cpu_time(pid).count()));
        }
        fnv(checksum,
            static_cast<std::uint64_t>(alps[g]->overhead_cpu().count()));
        for (const core::CycleRecord& rec : per_group_records.back()) {
            fnv(checksum, rec.index);
            fnv(checksum, rec.end_tick);
            for (const Duration d : rec.consumed) {
                fnv(checksum, static_cast<std::uint64_t>(d.count()));
            }
        }
    }
    res.consumed_checksum = checksum;
    res.overhead_fraction =
        util::to_sec(res.wall) > 0.0
            ? util::to_sec(alps_cpu) / (util::to_sec(res.wall) * groups)
            : 0.0;

    const auto stats = sharded.stats();
    res.epochs = stats.epochs;
    res.cross_shard_messages = stats.messages;
    res.migrations_completed = link.migrations_completed();
    res.events_fired = sharded.total_events_fired();
    res.per_group = metrics::analyze_fairness_per_cpu(
        per_group_records, static_cast<std::size_t>(cfg.warmup_cycles),
        static_cast<std::size_t>(cfg.measure_cycles));
    res.mean_rms_error = res.per_group.mean_rms_share_error;
    res.worst_rms_error = res.per_group.worst_rms_share_error;

    if (cfg.metrics != nullptr) {
        sharded.export_metrics(*cfg.metrics, "sharded.");
        for (unsigned g = 0; g < groups; ++g) {
            kernels[g]->export_metrics(*cfg.metrics);
            alps[g]->scheduler().export_metrics(*cfg.metrics);
        }
        metrics::export_fairness_per_cpu(res.per_group, *cfg.metrics);
    }
    return res;
}

}  // namespace alps::workload
