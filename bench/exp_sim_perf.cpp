// Simulation-substrate performance ("sim_perf"): wall-clock throughput of the
// three layers the O(1) rework touched — the event engine (schedule/cancel/
// fire churn), the BsdPolicy run queues (enqueue/pop cycling), and an
// end-to-end fig8_fig9-style run at N=40 and N=120.
//
// Unlike every other experiment, these metrics are *timings of the host
// machine*, so the BENCH_sim_perf.json report is NOT bit-identical across
// runs or --jobs values (the simulated results the timings are derived from
// still are). scripts/check.sh runs this experiment single-job in Release
// and compares engine_events_per_sec against the checked-in baseline to
// catch substrate performance regressions.
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "os/behaviors.h"
#include "os/bsd_policy.h"
#include "os/kernel.h"
#include "os/proc.h"
#include "sim/engine.h"
#include "traffic/arrival.h"
#include "traffic/latency.h"
#include "traffic/table.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Engine churn: keep a window of pending timers; each iteration cancels the
// window's oldest handle (often already fired — the benign-miss path), arms a
// replacement, and fires the earliest event. This is the kernel's usage
// pattern (re-armed decision timers) with a heavy cancel mix.
harness::Result engine_task(bool full) {
    sim::Engine eng;
    constexpr std::size_t kWindow = 512;
    const std::int64_t iters = full ? 4'000'000 : 800'000;
    std::uint64_t fired = 0;
    std::vector<sim::EventId> ids(kWindow, 0);
    for (std::size_t k = 0; k < kWindow; ++k) {
        ids[k] = eng.schedule_after(util::usec(100 + 13 * static_cast<std::int64_t>(k)),
                                    [&fired] { ++fired; });
    }
    const auto t0 = Clock::now();
    std::uint64_t cancelled = 0;
    for (std::int64_t i = 0; i < iters; ++i) {
        const std::size_t slot = static_cast<std::size_t>(i) % kWindow;
        if (eng.cancel(ids[slot])) ++cancelled;
        ids[slot] = eng.schedule_after(util::usec(100 + (i * 7919) % 1009),
                                       [&fired] { ++fired; });
        eng.step();
    }
    const double wall = seconds_since(t0);
    // Each iteration is one schedule + one cancel attempt + one fire.
    const double ops = 3.0 * static_cast<double>(iters);
    return harness::Result{}
        .metric("engine_events_per_sec", static_cast<double>(fired) / wall)
        .metric("engine_ops_per_sec", ops / wall)
        .metric("engine_cancel_hits", static_cast<double>(cancelled))
        .metric("engine_final_pending", static_cast<double>(eng.live_events()));
}

// Pure timer-op throughput on the two mixes the timing wheel optimizes for:
//   cancel-heavy  — schedule-then-cancel pairs over a warm pending set, the
//                   kernel's re-armed-decision-timer pattern distilled (no
//                   fires, so it isolates O(1) schedule+cancel);
//   expire        — schedule a batch, run it dry (schedule+fire incl. any
//                   cascade work as the clock sweeps the wheel);
//   far-future    — events beyond the wheel horizon (spill list), half
//                   cancelled, the rest expired (spill insert/unlink and the
//                   promotion path).
harness::Result timer_ops_task(bool full) {
    using util::usec;
    const std::int64_t iters = full ? 3'000'000 : 600'000;
    harness::Result res;

    {
        sim::Engine eng;
        // A warm pending set so schedule/cancel run against a populated wheel.
        for (std::int64_t k = 0; k < 256; ++k) {
            eng.schedule_after(util::sec(1) + usec(k), [] {});
        }
        const auto t0 = Clock::now();
        sim::EventId id = 0;
        for (std::int64_t i = 0; i < iters; ++i) {
            if (id != 0) eng.cancel(id);
            id = eng.schedule_after(usec(100 + i % 997), [] {});
        }
        const double wall = seconds_since(t0);
        res.metric("timer_cancel_heavy_ops_per_sec",
                   2.0 * static_cast<double>(iters) / wall);
    }

    {
        sim::Engine eng;
        const std::int64_t batch = iters / 4;
        const auto t0 = Clock::now();
        std::uint64_t fired = 0;
        for (std::int64_t i = 0; i < batch; ++i) {
            // Deterministic spread across ~1 s: exercises every wheel level
            // reachable without the spill list.
            eng.schedule_after(usec((i * 7919) % 1'000'000), [&fired] { ++fired; });
        }
        eng.run();
        const double wall = seconds_since(t0);
        res.metric("timer_expire_ops_per_sec",
                   2.0 * static_cast<double>(batch) / wall);
    }

    {
        sim::Engine eng;
        const std::int64_t batch = iters / 16;
        std::vector<sim::EventId> ids;
        ids.reserve(static_cast<std::size_t>(batch));
        const auto t0 = Clock::now();
        for (std::int64_t i = 0; i < batch; ++i) {
            // ~21 h + i µs: beyond the ~19.5 h wheel horizon, mostly-ascending
            // times (the realistic far-future arrival order).
            ids.push_back(eng.schedule_after(util::sec(75'000) + usec(i), [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) eng.cancel(ids[i]);
        eng.run();
        const double wall = seconds_since(t0);
        // schedule + cancel-half + fire-half = 2 ops per event.
        res.metric("timer_far_future_ops_per_sec",
                   2.0 * static_cast<double>(batch) / wall);
    }
    return res;
}

// Run-queue cycling: enqueue a priority-spread population, pop it dry, repeat.
// Exercises whichqs find-first-set and the intrusive unlink on every op.
harness::Result policy_task(bool full) {
    os::BsdPolicy policy;
    constexpr int kProcs = 128;
    const int rounds = full ? 40'000 : 8'000;
    std::vector<os::Proc> procs(kProcs);
    for (int i = 0; i < kProcs; ++i) {
        procs[static_cast<std::size_t>(i)].pid = i + 1;
        policy.add(procs[static_cast<std::size_t>(i)]);
        // Spread across the queue range via estcpu (usrpri = PUSER + estcpu/4).
        procs[static_cast<std::size_t>(i)].estcpu = os::BsdPolicy::kStatTick * ((i * 9) % 300);
        policy.charge(procs[static_cast<std::size_t>(i)], util::Duration::zero());
    }
    const auto t0 = Clock::now();
    std::uint64_t pops = 0;
    for (int r = 0; r < rounds; ++r) {
        for (os::Proc& p : procs) policy.enqueue(p);
        while (policy.pop() != nullptr) ++pops;
    }
    const double wall = seconds_since(t0);
    const double ops = 2.0 * static_cast<double>(pops);  // one enqueue per pop
    return harness::Result{}
        .metric("policy_ops_per_sec", ops / wall)
        .metric("policy_pops", static_cast<double>(pops));
}

// Sampling-scan throughput: the ALPS per-quantum measurement hot path over a
// populated kernel with every process state represented (running, queued,
// sleeping, stopped). Times the per-pid sample() loop the driver's
// guarded_read path issues — the only way to read a process.
harness::Result kernel_scan_task(bool full) {
    sim::Engine eng;
    os::Kernel kernel(eng, nullptr, os::KernelConfig{.ncpus = 4});
    constexpr int kProcs = 4096;
    std::vector<os::Pid> pids;
    pids.reserve(kProcs);
    for (int i = 0; i < kProcs; ++i) {
        std::unique_ptr<os::Behavior> b;
        if (i % 8 == 3) {
            b = std::make_unique<os::PhasedIoBehavior>(util::msec(1), util::msec(9));
        } else {
            b = std::make_unique<os::CpuBoundBehavior>();
        }
        std::string name = "p";
        name += std::to_string(i);
        pids.push_back(kernel.spawn(name, /*uid=*/100 + i % 7, std::move(b), i % 5));
    }
    for (int i = 0; i < kProcs; i += 16) {
        kernel.send_signal(pids[static_cast<std::size_t>(i)], os::Signal::kStop);
    }
    eng.run_until(eng.now() + util::msec(50));

    const std::int64_t rounds = full ? 2'000 : 400;
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (std::int64_t r = 0; r < rounds; ++r) {
        for (const os::Pid pid : pids) {
            const auto s = kernel.sample(pid);
            checksum += static_cast<std::uint64_t>(s.cpu_time.count()) +
                        (s.blocked ? 1u : 0u) + (s.stopped ? 2u : 0u) +
                        (s.alive ? 4u : 0u);
        }
    }
    const double wall = seconds_since(t0);
    // Feed the checksum back so the scan loop cannot be dead-code-eliminated
    // (modulo keeps the metric exactly representable as a double).
    return harness::Result{}
        .metric("kernel_scan_samples_per_sec", static_cast<double>(rounds) * kProcs / wall)
        .metric("kernel_scan_checksum", static_cast<double>(checksum % 1'000'003));
}

// Traffic-subsystem hot path: thinning-sampled arrival draws through the
// full envelope (base x flash spike, the web_scale shape) and the
// request-table churn the web_scale sweep rides on (create, timestamp,
// release through the freelist, record into the per-site reservoir). A
// thousand-site machine draws and churns these millions of times per run,
// so both paths are gated in check.sh like the kernel scan.
harness::Result web_arrivals_task(bool full) {
    using util::usec;
    harness::Result res;
    const std::int64_t draws = full ? 2'000'000 : 400'000;
    {
        traffic::ArrivalConfig cfg;
        cfg.base_rps = 50.0;
        traffic::FlashCrowd spike;
        spike.start = util::TimePoint{} + util::sec(30);
        spike.ramp = util::sec(2);
        spike.hold = util::sec(20);
        spike.decay = util::sec(5);
        spike.multiplier = 8.0;
        cfg.spikes.push_back(spike);
        traffic::ArrivalProcess proc(cfg, util::Rng(0xbeef));
        util::TimePoint t{};
        const auto t0 = Clock::now();
        for (std::int64_t i = 0; i < draws; ++i) t = proc.next(t);
        const double wall = seconds_since(t0);
        res.metric("web_arrival_draws_per_sec", static_cast<double>(draws) / wall);
        // Fold the final arrival time in so the loop cannot be elided.
        res.metric("web_arrival_final_ms", util::to_ms(t.since_epoch));
    }
    {
        constexpr std::size_t kSites = 256;
        constexpr std::int64_t kDepth = 64;  ///< live rows churned against
        traffic::RequestTable table;
        table.reserve(kSites);
        traffic::LatencyRecorder recorder(kSites);
        std::vector<traffic::ReqId> live;
        live.reserve(kDepth);
        const std::int64_t churn = full ? 2'000'000 : 400'000;
        util::TimePoint t{};
        const auto t0 = Clock::now();
        for (std::int64_t i = 0; i < churn; ++i) {
            t += usec(37);
            if (live.size() == kDepth) {
                // Retire the oldest: timestamp, record, release (the full
                // completion pipeline a web worker drives per request).
                const traffic::ReqId id = live.front();
                live.erase(live.begin());
                recorder.record(table.site(id) % kSites, t - table.arrival(id));
                table.release(id);
            }
            live.push_back(table.create(static_cast<std::uint32_t>(i) % kSites,
                                        static_cast<std::uint16_t>(i % 3), t));
        }
        const double wall = seconds_since(t0);
        // One create + one retire pipeline per iteration at steady state.
        res.metric("web_table_ops_per_sec", 2.0 * static_cast<double>(churn) / wall);
        res.metric("web_table_rows", static_cast<double>(table.rows()));
    }
    return res;
}

// End-to-end: a fig8_fig9-style run (equal shares, Q=10ms) timed on the host.
harness::Result e2e_task(int n, bool full) {
    workload::SimRunConfig cfg;
    cfg.shares.assign(static_cast<std::size_t>(n), 5);
    cfg.quantum = util::msec(10);
    cfg.measure_cycles = full ? 30 : 10;
    cfg.warmup_cycles = 3;
    const auto t0 = Clock::now();
    const auto r = workload::run_cpu_bound_experiment(cfg);
    const double wall = seconds_since(t0);
    return harness::Result{}
        .metric("wall_ms", 1e3 * wall)
        .metric("sim_ms_per_wall_s", util::to_ms(r.wall) / wall)
        .metric("cycles", static_cast<double>(r.cycles_completed));
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    const int reps = options.full_scale ? 5 : 3;
    std::vector<harness::Task> tasks;
    auto push = [&](std::string point, auto fn) {
        for (int rep = 0; rep < reps; ++rep) {
            harness::Task task;
            task.point = point;
            task.rep = rep;
            task.params = {{"layer", point}};
            task.fn = [fn](const harness::TaskContext& ctx) {
                return fn(ctx.full_scale);
            };
            tasks.push_back(std::move(task));
        }
    };
    push("engine", [](bool full) { return engine_task(full); });
    push("timer_ops", [](bool full) { return timer_ops_task(full); });
    push("policy", [](bool full) { return policy_task(full); });
    push("kernel_scan", [](bool full) { return kernel_scan_task(full); });
    push("web_arrivals", [](bool full) { return web_arrivals_task(full); });
    push("e2e_n40", [](bool full) { return e2e_task(40, full); });
    push("e2e_n120", [](bool full) { return e2e_task(120, full); });
    return tasks;
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nSimulation-substrate throughput (host wall-clock; higher is "
           "better, except wall_ms)\n";
    util::TextTable t({"Layer", "Metric", "Mean"});
    t.add_row({"engine", "events/sec",
               util::fmt(report.metric_mean("engine", "engine_events_per_sec"), 0)});
    t.add_row({"engine", "ops/sec (sched+cancel+fire)",
               util::fmt(report.metric_mean("engine", "engine_ops_per_sec"), 0)});
    t.add_row({"timer_ops", "cancel-heavy ops/sec",
               util::fmt(report.metric_mean("timer_ops", "timer_cancel_heavy_ops_per_sec"), 0)});
    t.add_row({"timer_ops", "expire ops/sec",
               util::fmt(report.metric_mean("timer_ops", "timer_expire_ops_per_sec"), 0)});
    t.add_row({"timer_ops", "far-future ops/sec",
               util::fmt(report.metric_mean("timer_ops", "timer_far_future_ops_per_sec"), 0)});
    t.add_row({"policy", "runq ops/sec",
               util::fmt(report.metric_mean("policy", "policy_ops_per_sec"), 0)});
    t.add_row({"kernel_scan", "samples/sec (per-pid)",
               util::fmt(report.metric_mean("kernel_scan", "kernel_scan_samples_per_sec"), 0)});
    t.add_row({"web_arrivals", "arrival draws/sec",
               util::fmt(report.metric_mean("web_arrivals", "web_arrival_draws_per_sec"), 0)});
    t.add_row({"web_arrivals", "request-table ops/sec",
               util::fmt(report.metric_mean("web_arrivals", "web_table_ops_per_sec"), 0)});
    t.add_row({"e2e_n40", "wall ms/run",
               util::fmt(report.metric_mean("e2e_n40", "wall_ms"), 2)});
    t.add_row({"e2e_n120", "wall ms/run",
               util::fmt(report.metric_mean("e2e_n120", "wall_ms"), 2)});
    t.print(out);
    out << "\nTimings are host-dependent: this JSON is the one exception to "
           "the sweep's bit-identity guarantee.\n";
}

}  // namespace

void register_sim_perf_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "sim_perf",
        .description =
            "Substrate throughput: engine events/sec, run-queue ops/sec, e2e wall-clock",
        .make_tasks = make_tasks,
        .present = present,
    });
}

}  // namespace alps::bench
