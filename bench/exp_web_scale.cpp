// Production-scale hosting sweep ("web_scale"): ~100-1000 open-loop web
// sites on one machine, a deterministic flash crowd pushing it past
// saturation, and the capacity-planning question: how well does each
// deployment defend the latency percentiles of the one site ("site A") that
// bought a protected share?
//
// The grid crosses deployment x quantum because the two are inseparable: a
// cycle's wall length (total shares x quantum / cpus) is the same whether
// one global ALPS spans the machine or one ALPS runs per core — what the
// per-core split buys is the *affordable quantum*. A global driver ticking
// a thousand principals costs ~17 ms per tick (Table 1), so it cannot run
// q=10 ms without missing boundaries wholesale (§4.2); a per-core driver
// ticking ~60 can. The share-1 control re-runs the winning deployment with
// site A's purchase revoked, proving the protection comes from the share
// and not from placement.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "util/table.h"
#include "web/cluster.h"

namespace alps::bench {
namespace {

/// One machine size in the sweep. The cell fits smoke runs; the flagship is
/// the acceptance scale (>= 1000 sites, >= 100k requests over the run) and
/// only enters the grid under --full.
struct Machine {
    const char* key;  ///< point-name prefix
    int sites;
    int ncpus;
    double base_rps;
    bool full_only;
};

constexpr Machine kMachines[] = {
    {"s96x8", 96, 8, 10.0, false},
    {"s1000x16", 1000, 16, 2.0, true},
};

/// Deployment x quantum x share arms. q100 at per-core is dominated by
/// percore_q10 everywhere (same cycle math, coarser control) and is left
/// out to keep the grid tight; the global pair brackets the affordable-
/// quantum argument.
struct Arm {
    const char* key;
    web::Deploy deploy;
    int quantum_ms;
    bool revoke_share;  ///< share-1 control: site A buys nothing
};

constexpr Arm kArms[] = {
    {"kernel", web::Deploy::kKernelOnly, 100, false},
    {"global_q100", web::Deploy::kGlobalAlps, 100, false},
    {"global_q10", web::Deploy::kGlobalAlps, 10, false},
    {"percore_q10", web::Deploy::kPerCoreAlps, 10, false},
    {"percore_q10_s1", web::Deploy::kPerCoreAlps, 10, true},
};

/// Flash-crowd arrival multipliers: x8 is the headline overload (~120% of
/// machine capacity at the spike's peak), x2 the mild contrast that stays
/// under saturation. The control arm only runs at the headline intensity.
constexpr double kFlashGrid[] = {2.0, 8.0};

std::string point_name(const Machine& m, double flash, const Arm& a) {
    return std::string(m.key) + "/f" + std::to_string(static_cast<int>(flash)) +
           "/" + a.key;
}

web::WebScaleConfig make_config(const Machine& m, double flash, const Arm& a,
                                bool full) {
    web::WebScaleConfig cfg;
    cfg.sites = m.sites;
    cfg.ncpus = m.ncpus;
    cfg.base_rps = m.base_rps;
    cfg.deploy = a.deploy;
    cfg.quantum = util::msec(a.quantum_ms);
    if (a.revoke_share) cfg.protected_share = 1;
    cfg.flash_multiplier = flash;
    if (full) {
        cfg.warmup = util::sec(5);
        cfg.measure = util::sec(45);
        cfg.flash_start = util::sec(15);
    } else {
        // Smoke: same shape, a third of the span, spike still inside it.
        cfg.warmup = util::sec(2);
        cfg.measure = util::sec(16);
        cfg.flash_start = util::sec(5);
        cfg.flash_ramp = util::sec(1);
        cfg.flash_hold = util::sec(6);
        cfg.flash_decay = util::sec(2);
    }
    return cfg;
}

harness::Result run_point(const harness::TaskContext& ctx, const Machine& m,
                          double flash, const Arm& a) {
    web::WebScaleConfig cfg = make_config(m, flash, a, ctx.full_scale);
    cfg.seed = ctx.seed;
    cfg.metrics = ctx.metrics;
    const web::WebScaleResult r = web::run_web_scale_experiment(cfg);
    return harness::Result{}
        .metric("protected_p50_ms", r.protected_p50_ms)
        .metric("protected_p95_ms", r.protected_p95_ms)
        .metric("protected_p99_ms", r.protected_p99_ms)
        .metric("flash_p99_ms", r.flash_p99_ms)
        .metric("steady_p99_ms", r.steady_p99_ms)
        .metric("protected_rps", r.protected_rps)
        .metric("total_rps", r.total_rps)
        .metric("util_pct", 100.0 * r.cpu_utilization)
        .metric("overhead_pct", 100.0 * r.overhead_fraction)
        .metric("boundaries_missed", static_cast<double>(r.boundaries_missed))
        .metric("arrivals", static_cast<double>(r.arrivals))
        .metric("drops", static_cast<double>(r.drops))
        .metric("timeouts", static_cast<double>(r.timeouts))
        .metric("peak_in_flight", static_cast<double>(r.peak_in_flight))
        .metric("flash_sites", static_cast<double>(r.flash_sites));
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    for (const Machine& m : kMachines) {
        if (m.full_only && !options.full_scale) continue;
        // --ncpus / --sites narrow the sweep to one machine (the smoke leg
        // runs just the cell).
        if (options.ncpus != 0 && m.ncpus != options.ncpus) continue;
        if (options.sites != 0 && m.sites != options.sites) continue;
        for (const double flash : kFlashGrid) {
            if (options.flash_crowd >= 0.0 && flash != options.flash_crowd) continue;
            // The flagship already answers the headline question; the mild
            // contrast only adds signal at cell scale.
            if (m.full_only && flash != 8.0) continue;
            for (const Arm& a : kArms) {
                if (a.revoke_share && flash != 8.0) continue;
                harness::Task task;
                task.point = point_name(m, flash, a);
                task.rep = 0;
                task.params = {
                    {"sites", std::to_string(m.sites)},
                    {"ncpus", std::to_string(m.ncpus)},
                    {"deploy", web::deploy_name(a.deploy)},
                    {"quantum_ms", std::to_string(a.quantum_ms)},
                    {"flash_multiplier", std::to_string(static_cast<int>(flash))},
                    {"protected_share", a.revoke_share ? "1" : "8"},
                };
                task.fn = [&m, flash, &a](const harness::TaskContext& ctx) {
                    return run_point(ctx, m, flash, a);
                };
                tasks.push_back(std::move(task));
            }
        }
    }
    return tasks;
}

void print_machine_table(const harness::SweepReport& report, std::ostream& out,
                         const Machine& m, double flash) {
    util::TextTable t({"arm", "pA p50", "pA p95", "pA p99", "steady p99",
                       "flash p99", "A rps", "total rps", "ovh %", "missed"});
    bool any = false;
    for (const Arm& a : kArms) {
        const std::string point = point_name(m, flash, a);
        if (report.find_point(point) == nullptr) continue;
        any = true;
        const auto mean = [&](const char* metric) {
            return report.metric_mean(point, metric);
        };
        t.add_row({a.key, util::fmt(mean("protected_p50_ms"), 0),
                   util::fmt(mean("protected_p95_ms"), 0),
                   util::fmt(mean("protected_p99_ms"), 0),
                   util::fmt(mean("steady_p99_ms"), 0),
                   util::fmt(mean("flash_p99_ms"), 0),
                   util::fmt(mean("protected_rps"), 1),
                   util::fmt(mean("total_rps"), 0),
                   util::fmt(mean("overhead_pct"), 2),
                   util::fmt(mean("boundaries_missed"), 0)});
    }
    if (!any) return;
    out << "\n" << m.sites << " sites / " << m.ncpus << " cpus, flash x"
        << static_cast<int>(flash) << " (latencies in ms)\n";
    t.print(out);
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nweb_scale: open-loop hosting under a flash crowd — site A buys "
           "a protected share (8 vs 1, ~33% headroom over its traffic);\n"
           "which deployment defends its p99?\n";
    for (const Machine& m : kMachines) {
        for (const double flash : kFlashGrid) {
            print_machine_table(report, out, m, flash);
        }
    }
    out << "\nReading: 'kernel' leaves site A to the native policy; the "
           "global/percore arms differ only in who runs the Figure-3 cycle.\n"
           "A cycle's wall length is deployment-independent, so the per-core "
           "win is the affordable quantum: at 1000 sites a global driver's\n"
           "tick (~17 ms) exceeds q=10 ms and it misses boundaries wholesale, "
           "while each per-core driver ticks ~60 principals comfortably.\n"
           "percore_q10_s1 revokes site A's purchase: protection follows the "
           "share, not the placement.\n";
}

}  // namespace

void register_web_scale_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "web_scale",
        .description =
            "96-1000 open-loop sites under a flash crowd: share-protected p99 "
            "across kernel/global/per-core deployments",
        .make_tasks = make_tasks,
        .present = present,
    });
}

}  // namespace alps::bench
