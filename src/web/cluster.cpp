#include "web/cluster.h"

#include <memory>
#include <string>
#include <vector>

#include "alps/sim_adapter.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "traffic/generator.h"
#include "traffic/latency.h"
#include "traffic/table.h"
#include "util/assert.h"
#include "util/rng.h"
#include "web/site.h"

namespace alps::web {

using util::Duration;
using util::TimePoint;

const char* deploy_name(Deploy d) {
    switch (d) {
        case Deploy::kKernelOnly: return "kernel";
        case Deploy::kGlobalAlps: return "global";
        case Deploy::kPerCoreAlps: return "percore";
    }
    ALPS_ENSURE(false);
    return "?";
}

namespace {

/// Flash-crowd membership: one site per core in every member row, so the
/// surge loads every scheduling domain identically whatever the deployment.
bool flash_member(const WebScaleConfig& cfg, int i) {
    if (cfg.flash_multiplier <= 1.0 || cfg.flash_stride <= 0) return false;
    const int row = i / cfg.ncpus;
    return row % cfg.flash_stride == 1;
}

double quantile_ms(const traffic::LatencyRecorder& rec,
                   const std::vector<std::size_t>& sites, double q) {
    if (sites.empty()) return 0.0;
    return util::to_sec(rec.quantile_of(sites, q)) * 1e3;
}

}  // namespace

WebScaleResult run_web_scale_experiment(const WebScaleConfig& cfg) {
    ALPS_EXPECT(cfg.sites >= 1);
    ALPS_EXPECT(cfg.ncpus >= 1);
    ALPS_EXPECT(cfg.base_rps > 0.0);
    ALPS_EXPECT(cfg.measure > Duration::zero());
    ALPS_EXPECT(cfg.deploy != Deploy::kPerCoreAlps || cfg.ncpus > 1);

    sim::Engine engine;
    os::KernelConfig kcfg;
    kcfg.ncpus = cfg.ncpus;
    kcfg.percpu_queues = cfg.ncpus > 1;
    os::Kernel kernel(engine, nullptr, kcfg);

    const auto nsites = static_cast<std::size_t>(cfg.sites);
    traffic::RequestTable table;
    // In-flight per site is bounded by backlog + workers; sizing for a
    // fraction of the worst case avoids both rehash-like growth and a huge
    // upfront arena. The table grows if a run proves hotter.
    table.reserve(nsites * 8);
    traffic::LatencyRecorder recorder(nsites);

    const bool pinned = cfg.deploy == Deploy::kPerCoreAlps;
    std::vector<std::unique_ptr<WebSite>> sites;
    std::vector<std::unique_ptr<traffic::Generator>> gens;
    sites.reserve(nsites);
    gens.reserve(nsites);
    std::vector<std::size_t> flash_ix, steady_ix;

    for (int i = 0; i < cfg.sites; ++i) {
        SiteConfig sc;
        sc.name = "s";
        sc.name += std::to_string(i);
        sc.uid = 1000 + static_cast<os::Uid>(i);
        sc.site_index = static_cast<std::uint32_t>(i);
        sc.initial_workers = cfg.initial_workers;
        sc.max_workers = cfg.max_workers;
        sc.min_spare = 1;
        sc.max_spare = 4;
        sc.spawn_batch = 2;
        sc.parse_cpu = cfg.parse_cpu;
        sc.render_cpu = cfg.render_cpu;
        sc.db_time = cfg.db_time;
        sc.service = cfg.service;
        sc.max_backlog = cfg.max_backlog;
        sc.queue_timeout = cfg.queue_timeout;
        sc.home_cpu = cfg.ncpus > 1 ? i % cfg.ncpus : -1;
        sc.pinned = pinned;
        sc.seed = util::derive_stream_seed(cfg.seed, 2 * static_cast<std::uint64_t>(i));
        sites.push_back(std::make_unique<WebSite>(kernel, sc, &table, &recorder));

        traffic::GeneratorConfig gc;
        gc.mode = traffic::GeneratorConfig::Mode::kOpenLoop;
        gc.arrival.base_rps =
            i == 0 ? cfg.base_rps * cfg.protected_rps_mult : cfg.base_rps;
        if (flash_member(cfg, i)) {
            traffic::FlashCrowd spike;
            spike.start = TimePoint{} + cfg.flash_start;
            spike.ramp = cfg.flash_ramp;
            spike.hold = cfg.flash_hold;
            spike.decay = cfg.flash_decay;
            spike.multiplier = cfg.flash_multiplier;
            gc.arrival.spikes.push_back(spike);
            flash_ix.push_back(static_cast<std::size_t>(i));
        } else if (i != 0) {
            steady_ix.push_back(static_cast<std::size_t>(i));
        }
        gc.seed =
            util::derive_stream_seed(cfg.seed, 2 * static_cast<std::uint64_t>(i) + 1);
        WebSite* site = sites.back().get();
        gens.push_back(std::make_unique<traffic::Generator>(
            engine, gc, [site] { site->submit(); }));
    }

    // ---- ALPS deployment ----
    core::SchedulerConfig scfg;
    scfg.quantum = cfg.quantum;
    scfg.io_accounting = cfg.io_accounting;
    std::vector<std::unique_ptr<core::SimGroupAlps>> alps;
    const auto share_of = [&cfg](int i) {
        return i == 0 ? cfg.protected_share : cfg.default_share;
    };
    if (cfg.deploy == Deploy::kGlobalAlps) {
        alps.push_back(std::make_unique<core::SimGroupAlps>(
            kernel, scfg, cfg.cost, cfg.refresh_period, "alps-global", /*uid=*/0,
            /*driver_home_cpu=*/-1, /*driver_pinned=*/false, cfg.driver_nice));
        for (int i = 0; i < cfg.sites; ++i) {
            alps.back()->manage_user("u" + std::to_string(i),
                                     1000 + static_cast<os::Uid>(i), share_of(i));
        }
    } else if (cfg.deploy == Deploy::kPerCoreAlps) {
        for (int c = 0; c < cfg.ncpus; ++c) {
            alps.push_back(std::make_unique<core::SimGroupAlps>(
                kernel, scfg, cfg.cost, cfg.refresh_period,
                "alps-c" + std::to_string(c), /*uid=*/0,
                /*driver_home_cpu=*/c, /*driver_pinned=*/true, cfg.driver_nice));
            for (int i = c; i < cfg.sites; i += cfg.ncpus) {
                std::string user = "u";
                user += std::to_string(i);
                alps.back()->manage_user(user, 1000 + static_cast<os::Uid>(i), share_of(i));
            }
        }
    }

    // ---- run ----
    engine.run_until(TimePoint{} + cfg.warmup);
    const std::uint64_t completed0 = recorder.total_completed();
    const std::uint64_t protected0 = recorder.completed(0);
    const Duration busy0 = kernel.busy_time();
    Duration alps0{0};
    for (const auto& a : alps) alps0 += a->overhead_cpu();

    engine.run_until(TimePoint{} + cfg.warmup + cfg.measure);

    WebScaleResult res;
    for (const auto& g : gens) res.arrivals += g->submitted();
    res.completed = recorder.total_completed();
    res.drops = recorder.total_drops();
    res.timeouts = recorder.total_timeouts();
    res.peak_in_flight = table.peak_in_flight();
    res.flash_sites = static_cast<int>(flash_ix.size());

    res.protected_p50_ms = util::to_sec(recorder.quantile(0, 0.50)) * 1e3;
    res.protected_p95_ms = util::to_sec(recorder.quantile(0, 0.95)) * 1e3;
    res.protected_p99_ms = util::to_sec(recorder.quantile(0, 0.99)) * 1e3;
    res.flash_p99_ms = quantile_ms(recorder, flash_ix, 0.99);
    res.steady_p99_ms = quantile_ms(recorder, steady_ix, 0.99);

    const double window_s = util::to_sec(cfg.measure);
    res.protected_rps =
        static_cast<double>(recorder.completed(0) - protected0) / window_s;
    res.total_rps =
        static_cast<double>(recorder.total_completed() - completed0) / window_s;
    res.cpu_utilization =
        util::to_sec(kernel.busy_time() - busy0) / (window_s * cfg.ncpus);
    Duration alps_cpu{0};
    for (const auto& a : alps) {
        alps_cpu += a->overhead_cpu();
        res.boundaries_missed += a->driver().boundaries_missed();
    }
    res.overhead_fraction =
        util::to_sec(alps_cpu - alps0) / (window_s * cfg.ncpus);
    res.migrations = kernel.migrations();
    res.steals = kernel.steals();

    if (cfg.metrics != nullptr) {
        engine.export_metrics(*cfg.metrics);
        kernel.export_metrics(*cfg.metrics);
        recorder.export_metrics(*cfg.metrics, "web_scale", cfg.per_site_telemetry);
        cfg.metrics->counter("web_scale.arrivals").add(res.arrivals);
        cfg.metrics->gauge("web_scale.peak_in_flight")
            .set(static_cast<double>(res.peak_in_flight));
    }
    return res;
}

}  // namespace alps::web
