// Many-core sweep ("many_core"): the Figure 3/4 share-accuracy measurement on
// a simulated 16/64/256-core machine with per-CPU run queues, comparing the
// two ways to deploy ALPS at that scale:
//
//   * global  — one ALPS over every worker on the machine. Its cycle length
//     grows with the total shares (ncpus · per-core shares), so accuracy is
//     only guaranteed over an ever-longer horizon and a single driver
//     process serializes all measurement work.
//   * percore — one ALPS per core, driver and workers pinned to that core's
//     scheduling domain. Cycles stay short and the controllers parallelize,
//     at the price of per-domain ticket economies and steal/rebalance
//     traffic blurring the pinning.
//
// Each row reports mean and worst per-instance RMS share error (the per-CPU
// fairness breakdown), controller overhead as a fraction of total machine
// capacity, missed quantum boundaries (the breakdown symptom), and the
// kernel's migration/steal counters.
#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "util/table.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

constexpr int kNcpusGrid[] = {16, 64, 256};
constexpr int kQuantumMs = 10;
constexpr int kProcsPerCpu = 2;

const char* mode_name(bool per_core) { return per_core ? "percore" : "global"; }

std::string point_name(int ncpus, bool per_core) {
    return "ncpus" + std::to_string(ncpus) + "/" + mode_name(per_core);
}

/// Cycle counts per instance. The global instance's cycle is ncpus times
/// longer in wall time, so its count shrinks with the core count to keep
/// the simulated span (and the sweep's wall time) bounded; the accuracy
/// metric is per-cycle, so fewer cycles only widen its confidence, not its
/// meaning.
int measure_cycles(bool full, int ncpus, bool per_core) {
    if (per_core) return full ? 60 : 20;
    const int base = full ? 48 : 16;
    return std::max(4, base * 16 / ncpus);
}

harness::Result run_point(const harness::TaskContext& ctx, int ncpus, bool per_core) {
    workload::ManyCoreConfig cfg;
    cfg.ncpus = ncpus;
    cfg.procs_per_cpu = kProcsPerCpu;
    cfg.per_core_alps = per_core;
    cfg.quantum = util::msec(kQuantumMs);
    cfg.measure_cycles = measure_cycles(ctx.full_scale, ncpus, per_core);
    cfg.warmup_cycles = 3;
    cfg.metrics = ctx.metrics;
    cfg.policy_seed = ctx.seed;
    const auto r = workload::run_many_core_experiment(cfg);
    return harness::Result{}
        .metric("rms_error_pct", 100.0 * r.mean_rms_error)
        .metric("worst_rms_error_pct", 100.0 * r.worst_rms_error)
        .metric("rms_spread_pct", 100.0 * r.per_cpu.rms_error_spread)
        .metric("overhead_pct", 100.0 * r.overhead_fraction)
        .metric("boundaries_missed", static_cast<double>(r.boundaries_missed))
        .metric("migrations", static_cast<double>(r.migrations))
        .metric("steals", static_cast<double>(r.steals))
        .metric("cycles", static_cast<double>(r.cycles_completed))
        .metric("timed_out", r.timed_out ? 1.0 : 0.0);
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    for (const int ncpus : kNcpusGrid) {
        // --ncpus narrows the sweep to one machine size (the TSan smoke leg
        // runs just the 64-core column).
        if (options.ncpus != 0 && ncpus != options.ncpus) continue;
        for (const bool per_core : {false, true}) {
            harness::Task task;
            task.point = point_name(ncpus, per_core);
            task.rep = 0;
            task.params = {{"ncpus", std::to_string(ncpus)},
                           {"mode", mode_name(per_core)},
                           {"procs_per_cpu", std::to_string(kProcsPerCpu)},
                           {"quantum_ms", std::to_string(kQuantumMs)}};
            task.fn = [ncpus, per_core](const harness::TaskContext& ctx) {
                return run_point(ctx, ncpus, per_core);
            };
            tasks.push_back(std::move(task));
        }
    }
    return tasks;
}

void print_metric_table(const harness::SweepReport& report, std::ostream& out,
                        const std::string& metric, int decimals) {
    util::TextTable t({"ncpus", "global", "percore"});
    for (const int ncpus : kNcpusGrid) {
        std::vector<std::string> row{std::to_string(ncpus)};
        bool any = false;
        for (const bool per_core : {false, true}) {
            const std::string point = point_name(ncpus, per_core);
            if (report.find_point(point) == nullptr) {
                row.push_back("-");
                continue;
            }
            any = true;
            row.push_back(util::fmt(report.metric_mean(point, metric), decimals));
        }
        if (any) t.add_row(std::move(row));
    }
    t.print(out);
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nMany-core deployment: one global ALPS vs one ALPS per core "
           "(Q=" << kQuantumMs << "ms, " << kProcsPerCpu
        << " workers/core, shares 1-2-3, per-CPU kernel run queues).\n";
    out << "\nMean per-instance RMS share error (%)\n";
    print_metric_table(report, out, "rms_error_pct", 2);
    out << "\nWorst instance RMS share error (%)\n";
    print_metric_table(report, out, "worst_rms_error_pct", 2);
    out << "\nController overhead (% of total machine capacity)\n";
    print_metric_table(report, out, "overhead_pct", 3);
    out << "\nMissed quantum boundaries (breakdown symptom; summed)\n";
    print_metric_table(report, out, "boundaries_missed", 0);
    out << "\nKernel cross-domain migrations (steals included)\n";
    print_metric_table(report, out, "migrations", 0);
}

}  // namespace

void register_many_core_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "many_core",
        .description =
            "16/64/256-core sweep: one-global vs one-per-core ALPS on per-CPU "
            "run queues",
        .make_tasks = make_tasks,
        .present = present,
    });
}

}  // namespace alps::bench
