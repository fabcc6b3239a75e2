// Policy zoo: the Figure 3/4 share-accuracy measurement re-run with ALPS on
// each kernel scheduling policy (bsd, lottery, stride, cfs), plus one A/B
// point where the application-level controller itself is Waldspurger's stride
// algorithm (core::StrideEngine) instead of the ALPS allowance loop.
//
// The question each row answers: how much of the achieved share accuracy is
// ALPS, and how much is the kernel underneath it? The paper only had BSD; the
// zoo holds the workload, quantum, costs, and measurement constant and swaps
// the kernel policy (and, for the A/B row, the user-level mechanism).
#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "os/policies/factory.h"
#include "util/table.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

using workload::ShareModel;

/// The A/B row: ALPS machinery replaced by an application-level stride
/// engine, still on the stock BSD kernel. Not a kernel policy name.
constexpr std::string_view kStrideEngineRow = "stride-engine";
/// The same A/B with lazy measurement off — isolates how much of the
/// stride engine's overhead row is the §2.3-style skip optimization.
constexpr std::string_view kStrideEngineEagerRow = "stride-engine-eager";
/// Suffix for the per-CPU rows: the same policy underneath a 4-core
/// machine with per-CPU run queues and one ALPS per core.
constexpr std::string_view kPerCpuSuffix = "-percpu4";
constexpr int kPerCpuCores = 4;

constexpr int kQuantumMs = 10;
constexpr ShareModel kModels[] = {ShareModel::kLinear, ShareModel::kSkewed};
constexpr int kProcCounts[] = {5, 10};

std::string point_name(std::string_view policy, ShareModel model, int n) {
    return std::string(policy) + "/" + workload_name(model, n);
}

/// Row labels: the four kernel policies (uniprocessor, then the same policy
/// on the 4-core per-CPU-queue machine), then the stride-engine A/Bs.
std::vector<std::string> all_rows() {
    std::vector<std::string> rows;
    for (const auto& info : os::policies::known_policies()) {
        rows.emplace_back(info.name);
    }
    for (const auto& info : os::policies::known_policies()) {
        rows.emplace_back(std::string(info.name) + std::string(kPerCpuSuffix));
    }
    rows.emplace_back(kStrideEngineRow);
    rows.emplace_back(kStrideEngineEagerRow);
    return rows;
}

/// "<policy>-percpu4" -> "<policy>"; empty when not a per-CPU row.
std::string percpu_base(std::string_view row) {
    if (row.size() > kPerCpuSuffix.size() &&
        row.substr(row.size() - kPerCpuSuffix.size()) == kPerCpuSuffix) {
        return std::string(row.substr(0, row.size() - kPerCpuSuffix.size()));
    }
    return {};
}

harness::Result run_point(const harness::TaskContext& ctx, std::string_view policy,
                          ShareModel model, int n, int rep) {
    // The per-CPU rows go through the many-core machinery: same policy,
    // same share model per instance, but 4 cores with per-CPU run queues
    // and one ALPS per core.
    if (const std::string base = percpu_base(policy); !base.empty()) {
        workload::ManyCoreConfig mcfg;
        mcfg.ncpus = kPerCpuCores;
        mcfg.per_core_alps = true;
        mcfg.shares_per_instance = workload::make_shares(model, n);
        mcfg.quantum = util::msec(kQuantumMs);
        mcfg.measure_cycles = measure_cycles(ctx.full_scale);
        mcfg.warmup_cycles = 3 + rep;
        mcfg.metrics = ctx.metrics;
        mcfg.kernel_policy = base;
        mcfg.policy_seed = ctx.seed;
        const auto r = workload::run_many_core_experiment(mcfg);
        double ratio_sum = 0.0, complaint = 0.0;
        std::size_t with_cycles = 0;
        for (const auto& inst : r.per_cpu.per_cpu) {
            if (inst.cycles == 0) continue;
            ratio_sum += inst.time_ratio;
            complaint = std::max(complaint, inst.max_complaint);
            ++with_cycles;
        }
        return harness::Result{}
            .metric("rms_error_pct", 100.0 * r.mean_rms_error)
            .metric("time_ratio",
                    with_cycles > 0 ? ratio_sum / static_cast<double>(with_cycles)
                                    : 0.0)
            .metric("max_complaint_pct", 100.0 * complaint)
            .metric("overhead_pct", 100.0 * r.overhead_fraction)
            .metric("worst_rms_error_pct", 100.0 * r.worst_rms_error)
            .metric("migrations", static_cast<double>(r.migrations));
    }

    auto cfg = table2_config(model, n, kQuantumMs, ctx.full_scale);
    cfg.warmup_cycles = 5 + rep;  // de-phase repeated runs
    cfg.metrics = ctx.metrics;
    // The lottery's draw stream derives from the task seed, which the harness
    // derives from (sweep seed, task index) — bit-identical for any --jobs.
    cfg.policy_seed = ctx.seed;
    const bool engine =
        policy == kStrideEngineRow || policy == kStrideEngineEagerRow;
    cfg.lazy_measurement = policy != kStrideEngineEagerRow;
    cfg.kernel_policy = engine ? "bsd" : std::string(policy);
    const auto r = engine ? workload::run_stride_engine_experiment(cfg)
                          : workload::run_cpu_bound_experiment(cfg);
    return harness::Result{}
        .metric("rms_error_pct", 100.0 * r.mean_rms_error)
        .metric("time_ratio", r.fairness.time_ratio)
        .metric("max_complaint_pct", 100.0 * r.fairness.max_complaint)
        .metric("overhead_pct", 100.0 * r.overhead_fraction)
        .metric("measurements", static_cast<double>(r.measurements));
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    for (const std::string& policy : all_rows()) {
        // --kernel-policy narrows the zoo to one row (including the
        // stride-engine A/B, addressable by that name).
        if (!options.kernel_policy.empty() && policy != options.kernel_policy) {
            continue;
        }
        for (const ShareModel model : kModels) {
            for (const int n : kProcCounts) {
                for (int rep = 0; rep < repetitions(options.full_scale); ++rep) {
                    harness::Task task;
                    task.point = point_name(policy, model, n);
                    task.rep = rep;
                    task.params = {
                        {"policy", policy},
                        {"model", std::string(workload::to_string(model))},
                        {"n", std::to_string(n)},
                        {"quantum_ms", std::to_string(kQuantumMs)}};
                    task.fn = [policy, model, n, rep](const harness::TaskContext& ctx) {
                        return run_point(ctx, policy, model, n, rep);
                    };
                    tasks.push_back(std::move(task));
                }
            }
        }
    }
    return tasks;
}

void print_metric_table(const harness::SweepReport& report, std::ostream& out,
                        const std::string& metric, int decimals) {
    std::vector<std::string> headers{"Policy"};
    for (const ShareModel model : kModels) {
        for (const int n : kProcCounts) headers.push_back(workload_name(model, n));
    }
    util::TextTable t(headers);
    for (const std::string& policy : all_rows()) {
        std::vector<std::string> row{policy};
        bool any = false;
        for (const ShareModel model : kModels) {
            for (const int n : kProcCounts) {
                const std::string point = point_name(policy, model, n);
                if (report.find_point(point) == nullptr) {
                    row.push_back("-");
                    continue;
                }
                any = true;
                row.push_back(util::fmt(report.metric_mean(point, metric), decimals));
            }
        }
        if (any) t.add_row(std::move(row));
    }
    t.print(out);
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nPolicy zoo: ALPS share accuracy per kernel policy (Q=" << kQuantumMs
        << "ms). '<policy>-percpu4' runs the same policy on a 4-core\n"
           "machine with per-CPU run queues and one ALPS per core.\n"
           "'stride-engine' is the A/B: stride pass/stride as the\n"
           "application-level controller, BSD kernel underneath\n"
           "('-eager' = its lazy measurement switched off).\n";
    out << "\nMean RMS relative share error (%)\n";
    print_metric_table(report, out, "rms_error_pct", 2);
    out << "\nChapter-9 time-ratio fairness (1.0 = exact proportional share)\n";
    print_metric_table(report, out, "time_ratio", 4);
    out << "\nMax justified complaint (% of a cycle's ideal allocation)\n";
    print_metric_table(report, out, "max_complaint_pct", 2);
    out << "\nController overhead (% of wall time)\n";
    print_metric_table(report, out, "overhead_pct", 3);
}

}  // namespace

void register_policy_zoo_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "policy_zoo",
        .description =
            "ALPS share accuracy on each kernel policy (bsd|lottery|stride|cfs), "
            "uni- and per-CPU 4-core, + stride-engine A/B (lazy and eager)",
        .make_tasks = make_tasks,
        .present = present,
    });
}

}  // namespace alps::bench
