#include "workload/experiments.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <type_traits>

#include "alps/sim_adapter.h"
#include "alps/stride_engine.h"
#include "metrics/exact_cycle_log.h"
#include "metrics/fairness.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "telemetry/metrics.h"
#include "util/assert.h"

namespace alps::workload {

using util::Duration;
using util::Share;
using util::TimePoint;

namespace {

/// Advances the simulation until `done()` holds or `deadline` passes,
/// checking once per simulated second. Returns true if `done()` held.
template <typename DoneFn>
bool run_simulation_until(sim::Engine& engine, TimePoint deadline, DoneFn done) {
    while (!done()) {
        if (engine.now() >= deadline) return false;
        engine.run_until(std::min(engine.now() + util::sec(1), deadline));
    }
    return true;
}

/// Figure 6: B executes bursts of this much CPU ...
constexpr Duration kIoBurst = util::msec(80);
/// ... then sleeps this long (the paper: 240 ms, i.e. one burst per 3 cycles
/// of CPU share at 33.3%).
constexpr Duration kIoSleep = util::msec(240);

/// Table 3: ignored at the start of each phase when fitting slopes (forks
/// and kernel-priority transients perturb the first cycles).
constexpr Duration kSettle = util::msec(600);

/// Fault campaign: clean cycles after injection stops.
constexpr int kDrainCycles = 10;

}  // namespace

// ----------------------------------------------------------------------------
// Figures 4, 5, 8, 9 and the stride-engine A/B (BENCH_policy_zoo)

namespace {

core::Scheduler& controller_core(core::SimAlps& alps) { return alps.scheduler(); }
core::StrideEngine& controller_core(core::SimStrideAlps& alps) { return alps.engine(); }

/// The CPU-bound run shared by both controllers: `Controller` (SimAlps or
/// SimStrideAlps, built from `ccfg`) manages one CpuBoundBehavior per share
/// until the exact cycle log holds warmup + measure cycles.
template <typename Controller, typename ControllerConfig>
SimRunResult run_cpu_bound(const SimRunConfig& cfg, const ControllerConfig& ccfg) {
    ALPS_EXPECT(!cfg.shares.empty());
    ALPS_EXPECT(cfg.measure_cycles > 0);

    sim::Engine engine;
    os::KernelConfig kcfg;
    kcfg.stop_latency_grid = cfg.stop_latency_grid;
    kcfg.policy = cfg.kernel_policy;
    kcfg.policy_seed = cfg.policy_seed;
    os::Kernel kernel(engine, nullptr, kcfg);

    Controller alps(kernel, ccfg);
    auto& core = controller_core(alps);

    // Per-cycle accuracy instrumentation: read the true (simulated) rusage
    // at each cycle boundary, as the paper's instrumented ALPS does.
    metrics::ExactCycleLog log([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    core.set_cycle_observer(log.observer());

    for (std::size_t i = 0; i < cfg.shares.size(); ++i) {
        const os::Pid pid = kernel.spawn("worker" + std::to_string(i), /*uid=*/100,
                                         std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pid, cfg.shares[i]);
    }

    const Duration cycle_len = cfg.quantum * util::total_shares(cfg.shares);
    const auto total_cycles =
        static_cast<std::size_t>(cfg.warmup_cycles + cfg.measure_cycles);
    const Duration max_wall =
        cfg.max_wall > Duration::zero()
            ? cfg.max_wall
            : cycle_len * static_cast<std::int64_t>(3 * (total_cycles + 10));

    const bool completed = run_simulation_until(
        engine, TimePoint{} + max_wall,
        [&] { return log.cycle_count() >= total_cycles; });

    SimRunResult res;
    res.timed_out = !completed;
    res.wall = engine.now() - TimePoint{};
    res.alps_cpu = alps.overhead_cpu();
    res.overhead_fraction =
        util::to_sec(res.wall) > 0.0 ? util::to_sec(res.alps_cpu) / util::to_sec(res.wall)
                                     : 0.0;
    res.mean_rms_error = log.mean_rms_relative_error(
        static_cast<std::size_t>(cfg.warmup_cycles),
        static_cast<std::size_t>(cfg.measure_cycles));
    res.cycles_completed = log.cycle_count();
    res.ticks = core.tick_count();
    res.measurements = core.total_measurements();
    res.boundaries_missed = alps.driver().boundaries_missed();
    res.fairness = metrics::analyze_fairness(
        log.records(), static_cast<std::size_t>(cfg.warmup_cycles),
        static_cast<std::size_t>(cfg.measure_cycles));
    if (cfg.metrics != nullptr) {
        engine.export_metrics(*cfg.metrics);
        kernel.export_metrics(*cfg.metrics);
        // The stride engine has no alps.* counters to export.
        if constexpr (std::is_same_v<Controller, core::SimAlps>) {
            core.export_metrics(*cfg.metrics);
        }
        metrics::export_fairness(res.fairness, *cfg.metrics);
    }
    return res;
}

}  // namespace

SimRunResult run_cpu_bound_experiment(const SimRunConfig& cfg) {
    core::SchedulerConfig scfg;
    scfg.quantum = cfg.quantum;
    scfg.lazy_measurement = cfg.lazy_measurement;
    scfg.io_accounting = cfg.io_accounting;
    return run_cpu_bound<core::SimAlps>(cfg, scfg);
}

SimRunResult run_stride_engine_experiment(const SimRunConfig& cfg) {
    core::StrideEngineConfig ecfg;
    ecfg.quantum = cfg.quantum;
    ecfg.lazy_measurement = cfg.lazy_measurement;
    return run_cpu_bound<core::SimStrideAlps>(cfg, ecfg);
}

// ----------------------------------------------------------------------------
// Figure 6

IoRunResult run_io_experiment(const IoRunConfig& cfg) {
    ALPS_EXPECT(cfg.steady_cycles > 0);
    ALPS_EXPECT(cfg.observe_cycles > 0);

    sim::Engine engine;
    os::Kernel kernel(engine);

    core::SchedulerConfig scfg;
    scfg.quantum = cfg.quantum;
    core::SimAlps alps(kernel, scfg);

    metrics::ExactCycleLog log([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    alps.scheduler().set_cycle_observer(log.observer());

    const Share total = cfg.shares[0] + cfg.shares[1] + cfg.shares[2];

    // B runs CPU-bound until its cumulative consumption reaches
    // steady_cycles worth of its per-cycle share, then alternates
    // kIoBurst of CPU with kIoSleep of blocking.
    const Duration initial_cpu =
        cfg.quantum * (cfg.shares[1] * static_cast<Share>(cfg.steady_cycles));

    const os::Pid pid_a =
        kernel.spawn("A", 100, std::make_unique<os::CpuBoundBehavior>());
    const os::Pid pid_b = kernel.spawn(
        "B", 100,
        std::make_unique<os::PhasedIoBehavior>(kIoBurst, kIoSleep, initial_cpu));
    const os::Pid pid_c =
        kernel.spawn("C", 100, std::make_unique<os::CpuBoundBehavior>());

    alps.manage(pid_a, cfg.shares[0]);
    alps.manage(pid_b, cfg.shares[1]);
    alps.manage(pid_c, cfg.shares[2]);

    IoRunResult res;
    // Onset: B finishes `initial_cpu + kIoBurst` of CPU, consuming its share
    // (shares[1] quanta) per cycle.
    res.io_onset_cycle = static_cast<std::uint64_t>(
        (initial_cpu + kIoBurst).count() /
        (cfg.quantum.count() * cfg.shares[1]));

    const auto target =
        static_cast<std::size_t>(cfg.steady_cycles + cfg.observe_cycles);
    const Duration cycle_len = cfg.quantum * total;
    const Duration max_wall = cycle_len * static_cast<std::int64_t>(4 * (target + 10)) +
                              kIoSleep * static_cast<std::int64_t>(target);
    run_simulation_until(engine, TimePoint{} + max_wall,
                         [&] { return log.cycle_count() >= target; });

    for (const auto& rec : log.records()) {
        const auto fr = metrics::cycle_fractions(rec);
        std::array<double, 3> f{0.0, 0.0, 0.0};
        for (std::size_t i = 0; i < rec.ids.size(); ++i) {
            if (rec.ids[i] == pid_a) f[0] = fr[i];
            if (rec.ids[i] == pid_b) f[1] = fr[i];
            if (rec.ids[i] == pid_c) f[2] = fr[i];
        }
        res.cycle_index.push_back(rec.index);
        res.fractions.push_back(f);
    }
    return res;
}

// ----------------------------------------------------------------------------
// Figure 7 / Table 3

MultiAlpsResult run_multi_alps_experiment(const MultiAlpsConfig& cfg) {
    ALPS_EXPECT(cfg.phase2_start < cfg.phase3_start);
    ALPS_EXPECT(cfg.phase3_start < cfg.end);

    sim::Engine engine;
    os::Kernel kernel(engine);

    static constexpr std::array<std::array<Share, 3>, 3> kGroupShares{
        {{7, 8, 9}, {4, 5, 6}, {1, 2, 3}}};

    MultiAlpsResult res;
    res.procs.resize(9);
    for (int g = 0; g < 3; ++g) {
        for (int m = 0; m < 3; ++m) {
            auto& pr = res.procs[static_cast<std::size_t>(3 * g + m)];
            pr.group = g;
            pr.share = kGroupShares[static_cast<std::size_t>(g)][static_cast<std::size_t>(m)];
        }
    }

    std::vector<std::unique_ptr<core::SimAlps>> alpses;
    alpses.reserve(3);

    auto spawn_group = [&](int g) {
        core::SchedulerConfig scfg;
        scfg.quantum = cfg.quantum;
        auto alps = std::make_unique<core::SimAlps>(
            kernel, scfg, core::CostModel{}, "alps-" + std::string(1, static_cast<char>('A' + g)),
            /*uid=*/g);
        std::array<os::Pid, 3> pids{};
        for (int m = 0; m < 3; ++m) {
            auto& pr = res.procs[static_cast<std::size_t>(3 * g + m)];
            std::string name = "g";
            name += std::to_string(g);
            name += "p";
            name += std::to_string(m);
            pids[static_cast<std::size_t>(m)] =
                kernel.spawn(name, g, std::make_unique<os::CpuBoundBehavior>());
            alps->manage(pids[static_cast<std::size_t>(m)], pr.share);
        }
        // At each cycle end of this ALPS, sample its processes' cumulative
        // CPU — the paper's Figure-7 data points.
        auto* results = &res.procs;
        const int group = g;
        alps->scheduler().set_cycle_observer(
            [&kernel, results, group, pids](const core::CycleRecord&) {
                for (int m = 0; m < 3; ++m) {
                    auto& pr = (*results)[static_cast<std::size_t>(3 * group + m)];
                    pr.series.add(kernel.now(),
                                  kernel.cpu_time(pids[static_cast<std::size_t>(m)]));
                }
            });
        alpses.push_back(std::move(alps));
    };

    spawn_group(0);
    engine.schedule_at(TimePoint{} + cfg.phase2_start, [&] { spawn_group(1); });
    engine.schedule_at(TimePoint{} + cfg.phase3_start, [&] { spawn_group(2); });
    engine.run_until(TimePoint{} + cfg.end);

    // --- Table 3: per-phase within-group regression analysis ---
    const std::array<TimePoint, 4> bounds{
        TimePoint{}, TimePoint{} + cfg.phase2_start, TimePoint{} + cfg.phase3_start,
        TimePoint{} + cfg.end};
    const std::array<Duration, 3> group_start{Duration::zero(), cfg.phase2_start,
                                              cfg.phase3_start};

    util::RunningStats all_errors;
    for (int g = 0; g < 3; ++g) {
        for (int phase = g; phase < 3; ++phase) {  // group g exists from phase g on
            const TimePoint begin =
                std::max(bounds[static_cast<std::size_t>(phase)],
                         TimePoint{} + group_start[static_cast<std::size_t>(g)]) +
                kSettle;
            const TimePoint end = bounds[static_cast<std::size_t>(phase) + 1];
            std::vector<const metrics::ConsumptionSeries*> series;
            std::vector<Share> shares;
            bool enough = true;
            for (int m = 0; m < 3; ++m) {
                const auto& pr = res.procs[static_cast<std::size_t>(3 * g + m)];
                if (pr.series.points_in(begin, end) < 2) enough = false;
                series.push_back(&pr.series);
                shares.push_back(pr.share);
            }
            if (!enough) continue;
            const auto analysis = metrics::analyze_phase(series, shares, begin, end);
            for (int m = 0; m < 3; ++m) {
                auto& pr = res.procs[static_cast<std::size_t>(3 * g + m)];
                pr.phases[static_cast<std::size_t>(phase)] =
                    analysis[static_cast<std::size_t>(m)];
                all_errors.add(analysis[static_cast<std::size_t>(m)].relative_error);
            }
        }
    }
    res.mean_relative_error = all_errors.count() > 0 ? all_errors.mean() : 0.0;
    return res;
}

// ----------------------------------------------------------------------------
// Fault campaign

FaultRunResult run_fault_experiment(const FaultRunConfig& cfg) {
    ALPS_EXPECT(!cfg.shares.empty());
    ALPS_EXPECT(cfg.fault_cycles > 0);
    ALPS_EXPECT(cfg.warmup_cycles >= 0);

    sim::Engine engine;
    os::Kernel kernel(engine);

    core::SchedulerConfig scfg;
    scfg.quantum = cfg.quantum;

    FaultRunResult res;
    std::vector<os::Pid> pids;

    {
        core::SimAlps alps(kernel, scfg, {}, "alps", /*uid=*/0, cfg.faults);

        metrics::ExactCycleLog log([&kernel](core::EntityId id) {
            return kernel.cpu_time(static_cast<os::Pid>(id));
        });
        alps.scheduler().set_cycle_observer(log.observer());

        for (std::size_t i = 0; i < cfg.shares.size(); ++i) {
            const os::Pid pid = kernel.spawn("worker" + std::to_string(i), /*uid=*/100,
                                             std::make_unique<os::CpuBoundBehavior>());
            alps.manage(pid, cfg.shares[i]);
            pids.push_back(pid);
        }

        const Duration cycle_len = cfg.quantum * util::total_shares(cfg.shares);
        // Generous deadline: faults slow cycles down (quarantined entities
        // free-run, shrinking everyone's measured progress per cycle).
        const auto total_cycles = static_cast<std::size_t>(
            cfg.warmup_cycles + cfg.fault_cycles + kDrainCycles);
        const Duration max_wall =
            cycle_len * static_cast<std::int64_t>(6 * (total_cycles + 10));
        const TimePoint deadline = TimePoint{} + max_wall;

        bool ok = run_simulation_until(engine, deadline, [&] {
            return log.cycle_count() >= static_cast<std::size_t>(cfg.warmup_cycles);
        });
        alps.faults().set_enabled(true);
        ok = ok && run_simulation_until(engine, deadline, [&] {
                 return log.cycle_count() >=
                        static_cast<std::size_t>(cfg.warmup_cycles + cfg.fault_cycles);
             });
        alps.faults().disable();
        ok = ok && run_simulation_until(engine, deadline, [&] {
                 return log.cycle_count() >= total_cycles;
             });
        res.timed_out = !ok;

        res.mean_rms_error = log.mean_rms_relative_error(
            static_cast<std::size_t>(cfg.warmup_cycles),
            static_cast<std::size_t>(cfg.fault_cycles));
        res.cycles_completed = log.cycle_count();
        res.ticks = alps.scheduler().tick_count();
        res.health = alps.health();
        res.injected = alps.faults().injected();
        res.survivors = alps.scheduler().size();

        // Liveness after the drain: a stopped process is only legitimate if
        // the scheduler *wants* it ineligible right now. Anything else —
        // stopped while desired-eligible, or stopped but no longer managed —
        // is a wedge the self-healing failed to clear.
        const core::Scheduler& sched = alps.scheduler();
        for (const os::Pid pid : pids) {
            if (!kernel.alive(pid) || !kernel.proc(pid).stopped) continue;
            const auto id = static_cast<core::EntityId>(pid);
            if (!sched.contains(id) || sched.eligible(id)) ++res.stopped_at_drain;
        }

        // The core invariant must have survived quarantines and drops.
        double sum_allowance = 0.0;
        for (const core::EntityId id : sched.ids()) sum_allowance += sched.allowance(id);
        const double q_ns = static_cast<double>(cfg.quantum.count());
        res.invariant_gap_quanta =
            std::abs(sum_allowance * q_ns -
                     static_cast<double>(sched.cycle_time_remaining().count())) /
            q_ns;
        // ~alps: release_all + driver teardown.
    }

    for (const os::Pid pid : pids) {
        if (kernel.alive(pid) && kernel.proc(pid).stopped) ++res.stopped_after_release;
    }
    return res;
}

// ----------------------------------------------------------------------------
// Many-core sweep (BENCH_many_core)

ManyCoreResult run_many_core_experiment(const ManyCoreConfig& cfg) {
    ALPS_EXPECT(cfg.ncpus > 0);
    ALPS_EXPECT(cfg.procs_per_cpu > 0);
    ALPS_EXPECT(cfg.measure_cycles > 0);

    sim::Engine engine;
    os::KernelConfig kcfg;
    kcfg.ncpus = cfg.ncpus;
    kcfg.percpu_queues = true;
    kcfg.policy = cfg.kernel_policy;
    kcfg.policy_seed = cfg.policy_seed;
    os::Kernel kernel(engine, nullptr, kcfg);

    core::SchedulerConfig scfg;
    scfg.quantum = cfg.quantum;

    const int instances = cfg.per_core_alps ? cfg.ncpus : 1;
    std::vector<std::unique_ptr<core::SimAlps>> alps;
    std::vector<std::unique_ptr<metrics::ExactCycleLog>> logs;
    alps.reserve(static_cast<std::size_t>(instances));
    logs.reserve(static_cast<std::size_t>(instances));
    const auto reader = [&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    };

    // Deploy: per-core mode homes each instance's driver *and* workers on
    // that core's domain (the one-controller-per-CPU deployment), hard-pinned
    // when cfg.pin_workers so steal/rebalance cannot undo the placement;
    // global mode leaves placement to the kernel's round-robin default.
    // Shares cycle 1,2,3 per instance so proportionality is non-trivial.
    Share shares_per_instance = 0;
    const bool pin = cfg.per_core_alps && cfg.pin_workers;
    for (int c = 0; c < instances; ++c) {
        const int home = cfg.per_core_alps ? c : -1;
        alps.push_back(std::make_unique<core::SimAlps>(
            kernel, scfg, cfg.cost, "alps" + std::to_string(c), /*uid=*/0,
            core::FaultPlan{}, home, pin));
        logs.push_back(std::make_unique<metrics::ExactCycleLog>(reader));
        alps.back()->scheduler().set_cycle_observer(logs.back()->observer());
        const auto& custom = cfg.shares_per_instance;
        const int per_instance = custom.empty()
                                     ? cfg.procs_per_cpu
                                     : static_cast<int>(custom.size());
        const int workers =
            cfg.per_core_alps ? per_instance : cfg.ncpus * per_instance;
        Share total = 0;
        for (int j = 0; j < workers; ++j) {
            std::string name = "w";
            name += std::to_string(c);
            name += "_";
            name += std::to_string(j);
            const os::Pid pid = kernel.spawn(
                name, /*uid=*/100 + static_cast<os::Uid>(c),
                std::make_unique<os::CpuBoundBehavior>(), /*nice=*/0, home, pin);
            const Share share =
                custom.empty() ? j % 3 + 1
                               : custom[static_cast<std::size_t>(j) % custom.size()];
            alps.back()->manage(pid, share);
            total += share;
        }
        shares_per_instance = total;
    }

    const auto total_cycles =
        static_cast<std::size_t>(cfg.warmup_cycles + cfg.measure_cycles);
    const Duration cycle_len = cfg.quantum * shares_per_instance;
    const Duration max_wall =
        cfg.max_wall > Duration::zero()
            ? cfg.max_wall
            : cycle_len * static_cast<std::int64_t>(3 * (total_cycles + 10));

    const bool completed =
        run_simulation_until(engine, TimePoint{} + max_wall, [&] {
            for (const auto& log : logs) {
                if (log->cycle_count() < total_cycles) return false;
            }
            return true;
        });

    ManyCoreResult res;
    res.timed_out = !completed;
    res.wall = engine.now() - TimePoint{};
    Duration alps_cpu{0};
    std::vector<std::vector<core::CycleRecord>> per_cpu_records;
    per_cpu_records.reserve(logs.size());
    for (int c = 0; c < instances; ++c) {
        alps_cpu += alps[static_cast<std::size_t>(c)]->overhead_cpu();
        res.cycles_completed += logs[static_cast<std::size_t>(c)]->cycle_count();
        res.ticks += alps[static_cast<std::size_t>(c)]->scheduler().tick_count();
        res.measurements +=
            alps[static_cast<std::size_t>(c)]->scheduler().total_measurements();
        res.boundaries_missed +=
            alps[static_cast<std::size_t>(c)]->driver().boundaries_missed();
        per_cpu_records.push_back(logs[static_cast<std::size_t>(c)]->records());
    }
    res.overhead_fraction =
        util::to_sec(res.wall) > 0.0
            ? util::to_sec(alps_cpu) / (util::to_sec(res.wall) * cfg.ncpus)
            : 0.0;
    res.migrations = kernel.migrations();
    res.steals = kernel.steals();
    res.per_cpu = metrics::analyze_fairness_per_cpu(
        per_cpu_records, static_cast<std::size_t>(cfg.warmup_cycles),
        static_cast<std::size_t>(cfg.measure_cycles));
    res.mean_rms_error = res.per_cpu.mean_rms_share_error;
    res.worst_rms_error = res.per_cpu.worst_rms_share_error;
    if (cfg.metrics != nullptr) {
        engine.export_metrics(*cfg.metrics);
        kernel.export_metrics(*cfg.metrics);
        for (const auto& a : alps) a->scheduler().export_metrics(*cfg.metrics);
        metrics::export_fairness_per_cpu(res.per_cpu, *cfg.metrics);
    }
    return res;
}

}  // namespace alps::workload
