// Table 2 / Figure 4 / Figure 5 as a harness experiment: nine workloads ×
// seven quantum lengths, `repetitions` runs per point (de-phased by warmup
// offset), mean RMS relative error and ALPS overhead per point. Figure 5 is
// the overhead column of the same grid at Q = 10/20/40 ms.
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

}  // namespace

void register_fig4_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "fig4",
        .description =
            "Accuracy: mean RMS relative error vs quantum length (Table 2 + Figure 4)",
        .make_tasks = make_tasks,
        .present = present,
    });
}

}  // namespace alps::bench
