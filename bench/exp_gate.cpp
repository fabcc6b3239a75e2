// The reproduction gate as a harness experiment: each underlying measurement
// (accuracy cell, overhead cell, ablation arm, I/O run, multi-ALPS run,
// scalability point, web run) is one parallel task; the DESIGN.md shape
// criteria — several of which combine multiple points — are evaluated over
// the aggregated report and recorded as gate checks in the JSON.
#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "metrics/threshold.h"
#include "util/stats.h"
#include "util/table.h"
#include "web/experiment.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

using workload::ShareModel;

std::string acc_point(ShareModel model, int n) {
    return "acc/" + workload_name(model, n);
}

std::string ovh_point(ShareModel model, int q) {
    return "ovh/" + std::string(workload::to_string(model)) + "10_q" +
           std::to_string(q);
}

harness::Task sim_task(std::string point,
                       std::vector<std::pair<std::string, std::string>> params,
                       std::function<workload::SimRunConfig(bool full)> make_cfg) {
    harness::Task task;
    task.point = std::move(point);
    task.params = std::move(params);
    task.fn = [make_cfg = std::move(make_cfg)](const harness::TaskContext& ctx) {
        const auto r = workload::run_cpu_bound_experiment(make_cfg(ctx.full_scale));
        return harness::Result{}
            .metric("rms_error", r.mean_rms_error)
            .metric("overhead", r.overhead_fraction)
            .metric("boundaries_missed", static_cast<double>(r.boundaries_missed));
    };
    return task;
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions&) {
    std::vector<harness::Task> tasks;

    // Accuracy cells (Fig 4): the six common workloads at Q=20ms, plus the
    // skewed worst case at Q=10ms.
    for (const ShareModel model : {ShareModel::kLinear, ShareModel::kEqual}) {
        for (const int n : {5, 10, 20}) {
            tasks.push_back(sim_task(
                acc_point(model, n),
                {{"model", std::string(workload::to_string(model))},
                 {"n", std::to_string(n)},
                 {"quantum_ms", "20"}},
                [model, n](bool full) { return table2_config(model, n, 20, full); }));
        }
    }
    tasks.push_back(sim_task("acc/skewed20_q10",
                             {{"model", "skewed"}, {"n", "20"}, {"quantum_ms", "10"}},
                             [](bool full) {
                                 return table2_config(ShareModel::kSkewed, 20, 10, full);
                             }));

    // Overhead cells (Fig 5): all models, n=10, Q in {10, 40}.
    for (const ShareModel model : workload::kAllModels) {
        for (const int q : {10, 40}) {
            tasks.push_back(sim_task(
                ovh_point(model, q),
                {{"model", std::string(workload::to_string(model))},
                 {"n", "10"},
                 {"quantum_ms", std::to_string(q)}},
                [model, q](bool full) { return table2_config(model, 10, q, full); }));
        }
    }

    // Lazy-measurement ablation (§2.3).
    for (const bool lazy : {true, false}) {
        tasks.push_back(sim_task(std::string("ablation/") + (lazy ? "lazy" : "eager"),
                                 {{"lazy_measurement", lazy ? "1" : "0"}},
                                 [lazy](bool full) {
                                     auto cfg =
                                         table2_config(ShareModel::kEqual, 10, 10, full);
                                     cfg.lazy_measurement = lazy;
                                     return cfg;
                                 }));
    }

    // I/O redistribution (Fig 6): blocked-phase share split computed in-task.
    {
        harness::Task task;
        task.point = "io/redistribution";
        task.params = {{"shares", "1:2:3"}};
        task.fn = [](const harness::TaskContext&) {
            workload::IoRunConfig cfg;
            cfg.steady_cycles = 25;
            cfg.observe_cycles = 50;
            const IoRegimes g = io_regimes(workload::run_io_experiment(cfg));
            return harness::Result{}
                .metric("a_blocked_mean", g.a_blocked.mean())
                .metric("c_blocked_mean", g.c_blocked.mean())
                .metric("blocked_cycles", static_cast<double>(g.a_blocked.count()));
        };
        tasks.push_back(std::move(task));
    }

    // Multiple ALPSs (Table 3).
    {
        harness::Task task;
        task.point = "multi/table3";
        task.fn = [](const harness::TaskContext&) {
            const auto r = workload::run_multi_alps_experiment({});
            return harness::Result{}.metric("mean_relative_error",
                                            r.mean_relative_error);
        };
        tasks.push_back(std::move(task));
    }

    // Scalability (Figs 8-9 / §4.2): the fit points plus the far side.
    for (const int n : {5, 10, 20, 30}) {
        tasks.push_back(sim_task("scal/n" + std::to_string(n),
                                 {{"n", std::to_string(n)}, {"quantum_ms", "10"}},
                                 [n](bool) {
                                     workload::SimRunConfig cfg;
                                     cfg.shares.assign(static_cast<std::size_t>(n), 5);
                                     cfg.quantum = util::msec(10);
                                     cfg.measure_cycles = 10;
                                     return cfg;
                                 }));
    }
    tasks.push_back(sim_task("scal/n100", {{"n", "100"}, {"quantum_ms", "10"}},
                             [](bool) {
                                 workload::SimRunConfig cfg;
                                 cfg.shares.assign(100, 5);
                                 cfg.quantum = util::msec(10);
                                 cfg.measure_cycles = 6;
                                 return cfg;
                             }));

    // Shared web server (§5).
    {
        harness::Task task;
        task.point = "web/shared";
        task.params = {{"shares", "1:2:3"}, {"quantum_ms", "100"}};
        task.fn = [](const harness::TaskContext&) {
            web::WebExperimentConfig cfg;
            cfg.warmup = util::sec(8);
            cfg.measure = util::sec(30);
            cfg.use_alps = true;
            const auto r = web::run_web_experiment(cfg);
            return harness::Result{}
                .metric("rps_site0", r.throughput_rps[0])
                .metric("rps_site1", r.throughput_rps[1])
                .metric("rps_site2", r.throughput_rps[2]);
        };
        tasks.push_back(std::move(task));
    }

    return tasks;
}

int evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report, "Paper");

    // --- Accuracy (Fig 4) ---
    double worst_common = 0.0;
    for (const ShareModel model : {ShareModel::kLinear, ShareModel::kEqual}) {
        for (const int n : {5, 10, 20}) {
            worst_common =
                std::max(worst_common, report.metric_mean(acc_point(model, n), "rms_error"));
        }
    }
    criteria.check("error for linear/equal workloads (Fig 4)", "<5%",
                   util::fmt(100 * worst_common, 2) + "% worst", worst_common < 0.05);

    const double skew_err = report.metric_mean("acc/skewed20_q10", "rms_error");
    criteria.check("skewed worst case but bounded (Fig 4)", "<=27%",
                   util::fmt(100 * skew_err, 2) + "%",
                   skew_err > worst_common && skew_err < 0.27);

    // --- Overhead (Fig 5) ---
    double worst_ovh = 0.0;
    for (const ShareModel model : workload::kAllModels) {
        for (const int q : {10, 40}) {
            worst_ovh = std::max(worst_ovh, report.metric_mean(ovh_point(model, q), "overhead"));
        }
    }
    const double equal10_q10 = report.metric_mean(ovh_point(ShareModel::kEqual, 10), "overhead");
    const double equal10_q40 = report.metric_mean(ovh_point(ShareModel::kEqual, 40), "overhead");
    criteria.check("overhead under 1% (Fig 5 / §7)", "<1%",
                   util::fmt(100 * worst_ovh, 3) + "% worst", worst_ovh < 0.01);
    criteria.check("overhead shrinks with quantum (Fig 5)", "monotone",
                   util::fmt(100 * equal10_q10, 3) + "% -> " +
                       util::fmt(100 * equal10_q40, 3) + "%",
                   equal10_q10 > equal10_q40);

    // --- Lazy-measurement ablation (§2.3) ---
    const double lazy = report.metric_mean("ablation/lazy", "overhead");
    const double eager = report.metric_mean("ablation/eager", "overhead");
    criteria.check("lazy measurement saves 1.8x-5.9x (§2.3)", "1.8x-5.9x",
                   util::fmt(eager / lazy, 2) + "x (Equal10)", eager / lazy > 1.8);

    // --- I/O redistribution (Fig 6) ---
    {
        const double a_mean = report.metric_mean("io/redistribution", "a_blocked_mean");
        const double c_mean = report.metric_mean("io/redistribution", "c_blocked_mean");
        const double cycles = report.metric_mean("io/redistribution", "blocked_cycles");
        criteria.check("blocked share redistributes 1:3 (Fig 6)", "25% / 75%",
                       util::fmt(100 * a_mean, 1) + "% / " +
                           util::fmt(100 * c_mean, 1) + "%",
                       redistributes_one_to_three(a_mean, c_mean, cycles));
    }

    // --- Multiple ALPSs (Table 3) ---
    const double multi_err = report.metric_mean("multi/table3", "mean_relative_error");
    criteria.check("multi-ALPS mean relative error (Table 3)", "0.93%",
                   util::fmt(100 * multi_err, 2) + "%", multi_err < 0.03);

    // --- Scalability thresholds (Figs 8-9 / §4.2) ---
    {
        std::vector<double> xs, ys;
        for (const int n : {5, 10, 20, 30}) {
            const std::string point = "scal/n" + std::to_string(n);
            xs.push_back(n);
            ys.push_back(100.0 * report.metric_mean(point, "overhead"));
        }
        const double missed_at_20 = report.metric_mean("scal/n20", "boundaries_missed", 1);
        const double err_at_100 = report.metric_mean("scal/n100", "rms_error");
        const util::LinearFit fit = util::linear_fit(xs, ys);
        const double n_star = metrics::breakdown_threshold(fit);
        criteria.check("predicted breakdown N* at 10 ms (§4.2)", "39",
                       util::fmt(n_star, 0), n_star > 30 && n_star < 48);
        criteria.check("in control below threshold (Fig 9)", "no missed boundaries",
                       util::fmt(missed_at_20, 0) + " missed at N=20", missed_at_20 == 0);
        criteria.check("loss of control past threshold (Fig 9)", "error explodes",
                       util::fmt(100 * err_at_100, 0) + "% at N=100", err_at_100 > 0.3);
    }

    // --- Shared web server (§5) ---
    {
        const double r0 = report.metric_mean("web/shared", "rps_site0");
        const double r1 = report.metric_mean("web/shared", "rps_site1");
        const double r2 = report.metric_mean("web/shared", "rps_site2");
        const double total = r0 + r1 + r2;
        const bool ok = std::abs(r0 / total - 1.0 / 6.0) < 0.03 &&
                        std::abs(r2 / total - 3.0 / 6.0) < 0.03;
        criteria.check("web throughput divides 1:2:3 (§5)", "18 / 35 / 53",
                       util::fmt(r0, 0) + " / " + util::fmt(r1, 0) + " / " +
                           util::fmt(r2, 0),
                       ok);
    }

    const int failures = criteria.print(out);
    out << "\n" << (failures == 0 ? "REPRODUCTION HOLDS" : "REPRODUCTION BROKEN")
        << " (" << failures << " failing criteria)\n";
    return failures;
}

}  // namespace

void register_reproduction_gate_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "reproduction_gate",
        .description = "Every shape criterion from DESIGN.md in one parallel run",
        .make_tasks = make_tasks,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
