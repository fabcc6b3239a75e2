// Table 2 / Figure 4 / Figure 5 as a harness experiment: nine workloads ×
// seven quantum lengths, `repetitions` runs per point (de-phased by warmup
// offset), mean RMS relative error and ALPS overhead per point. Figure 5 is
// the overhead column of the same grid at Q = 10/20/40 ms. The evaluate hook
// judges the paper's Fig 4 accuracy and Fig 5 overhead claims on that grid.
#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "util/table.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

using workload::ShareModel;

constexpr int kQuantaMs[] = {10, 15, 20, 25, 30, 35, 40};
constexpr int kProcCounts[] = {5, 10, 20};

std::string point_name(ShareModel model, int n, int quantum_ms) {
    return workload_name(model, n) + "/q" + std::to_string(quantum_ms);
}

std::string shares_brief(const std::vector<util::Share>& s) {
    std::ostringstream out;
    out << "{";
    if (s.size() <= 6) {
        for (std::size_t i = 0; i < s.size(); ++i) out << (i ? " " : "") << s[i];
    } else {
        out << s[0] << " " << s[1] << " " << s[2] << " ... " << s[s.size() - 2] << " "
            << s.back();
    }
    out << "}";
    return out.str();
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    // --kernel-policy swaps the kernel under the whole figure ("" = bsd, the
    // paper's kernel); the full per-policy comparison lives in policy_zoo.
    const std::string policy =
        options.kernel_policy.empty() ? "bsd" : options.kernel_policy;
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                for (int rep = 0; rep < repetitions(options.full_scale); ++rep) {
                    harness::Task task;
                    task.point = point_name(model, n, q);
                    task.rep = rep;
                    task.params = {{"model", std::string(workload::to_string(model))},
                                   {"n", std::to_string(n)},
                                   {"quantum_ms", std::to_string(q)}};
                    task.fn = [model, n, q, rep,
                               policy](const harness::TaskContext& ctx) {
                        auto cfg = table2_config(model, n, q, ctx.full_scale);
                        cfg.warmup_cycles = 5 + rep;  // de-phase repeated runs
                        cfg.metrics = ctx.metrics;
                        cfg.kernel_policy = policy;
                        cfg.policy_seed = ctx.seed;
                        const auto r = workload::run_cpu_bound_experiment(cfg);
                        return harness::Result{}
                            .metric("rms_error_pct", 100.0 * r.mean_rms_error)
                            .metric("overhead_pct", 100.0 * r.overhead_fraction);
                    };
                    tasks.push_back(std::move(task));
                }
            }
        }
    }
    return tasks;
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nTable 2. Workload Share Distributions\n";
    util::TextTable t2({"Model", "5 procs", "10 procs", "20 procs"});
    for (const ShareModel m :
         {ShareModel::kLinear, ShareModel::kEqual, ShareModel::kSkewed}) {
        t2.add_row({std::string(workload::to_string(m)),
                    shares_brief(workload::make_shares(m, 5)),
                    shares_brief(workload::make_shares(m, 10)),
                    shares_brief(workload::make_shares(m, 20))});
    }
    t2.print(out);

    out << "\nFigure 4. Mean RMS relative error (%) by quantum length\n";
    std::vector<std::string> headers{"Workload"};
    for (const int q : kQuantaMs) headers.push_back("Q=" + std::to_string(q) + "ms");
    util::TextTable fig(headers);
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            std::vector<std::string> row{workload_name(model, n)};
            for (const int q : kQuantaMs) {
                row.push_back(util::fmt(
                    report.metric_mean(point_name(model, n, q), "rms_error_pct"), 2));
            }
            fig.add_row(std::move(row));
        }
    }
    fig.print(out);
    out << "\nPaper: <5% for most workloads; skewed highest (up to ~27%).\n";

    out << "\nFigure 5. Overhead: ALPS CPU time / experiment duration\n";
    util::TextTable fig5({"Workload", "N", "Q=10ms (%)", "Q=20ms (%)", "Q=40ms (%)"});
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            std::vector<std::string> row{std::string(workload::to_string(model)),
                                         std::to_string(n)};
            for (const int q : {10, 20, 40}) {
                row.push_back(util::fmt(
                    report.metric_mean(point_name(model, n, q), "overhead_pct"), 3));
            }
            fig5.add_row(std::move(row));
        }
    }
    fig5.print(out);
    out << "\nPaper: typically <0.3%, equal-share workloads highest, "
           "overhead shrinks with longer quanta.\n";
}

void evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report, "Paper");

    // Accuracy (Fig 4): the six common workloads at Q = 20 ms, and the skewed
    // worst case at Q = 10 ms.
    double worst_common = 0.0;
    for (const ShareModel model : {ShareModel::kLinear, ShareModel::kEqual}) {
        for (const int n : kProcCounts) {
            worst_common = std::max(
                worst_common, report.metric_mean(point_name(model, n, 20), "rms_error_pct"));
        }
    }
    criteria.check("error for linear/equal workloads (Fig 4)", "<5%",
                   util::fmt(worst_common, 2) + "% worst", worst_common < 5.0);
    const double skew_err =
        report.metric_mean(point_name(ShareModel::kSkewed, 20, 10), "rms_error_pct");
    criteria.check("skewed worst case but bounded (Fig 4)", "<=27%",
                   util::fmt(skew_err, 2) + "%",
                   skew_err > worst_common && skew_err < 27.0);

    // Overhead (Fig 5): every model at n = 10, Q = 10 and 40 ms.
    double worst_ovh = 0.0;
    for (const ShareModel model : workload::kAllModels) {
        for (const int q : {10, 40}) {
            worst_ovh = std::max(
                worst_ovh, report.metric_mean(point_name(model, 10, q), "overhead_pct"));
        }
    }
    const double equal10_q10 =
        report.metric_mean(point_name(ShareModel::kEqual, 10, 10), "overhead_pct");
    const double equal10_q40 =
        report.metric_mean(point_name(ShareModel::kEqual, 10, 40), "overhead_pct");
    criteria.check("overhead under 1% (Fig 5 / §7)", "<1%",
                   util::fmt(worst_ovh, 3) + "% worst", worst_ovh < 1.0);
    criteria.check("overhead shrinks with quantum (Fig 5)", "monotone",
                   util::fmt(equal10_q10, 3) + "% -> " + util::fmt(equal10_q40, 3) + "%",
                   equal10_q10 > equal10_q40);
    out << "\n";
    criteria.print(out);
}

}  // namespace

void register_fig4_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "fig4",
        .description =
            "Accuracy: mean RMS relative error vs quantum length (Table 2 + Figure 4)",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
