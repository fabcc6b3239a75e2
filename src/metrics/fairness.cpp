#include "metrics/fairness.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "metrics/cycle_log.h"
#include "telemetry/metrics.h"
#include "util/stats.h"

namespace alps::metrics {

namespace {

/// Total consumption and total shares of one cycle; false if either is zero
/// (an idle cycle carries no fairness information).
bool cycle_totals(const core::CycleRecord& rec, double& total, double& total_shares) {
    total = 0.0;
    total_shares = 0.0;
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        total += static_cast<double>(rec.consumed[i].count());
        total_shares += static_cast<double>(rec.shares[i]);
    }
    return total > 0.0 && total_shares > 0.0;
}

}  // namespace

double cycle_time_ratio(const core::CycleRecord& rec) {
    double total = 0.0;
    double total_shares = 0.0;
    if (!cycle_totals(rec, total, total_shares)) return 1.0;
    double lo = 0.0;
    double hi = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        if (rec.shares[i] <= 0) continue;  // no entitlement, no ratio
        const double r = static_cast<double>(rec.consumed[i].count()) /
                         static_cast<double>(rec.shares[i]);
        if (first) {
            lo = hi = r;
            first = false;
        } else {
            lo = std::min(lo, r);
            hi = std::max(hi, r);
        }
    }
    if (first || hi <= 0.0) return 1.0;
    return lo / hi;
}

double cycle_max_complaint(const core::CycleRecord& rec) {
    double total = 0.0;
    double total_shares = 0.0;
    if (!cycle_totals(rec, total, total_shares)) return 0.0;
    double worst = 0.0;
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        const double ideal =
            total * static_cast<double>(rec.shares[i]) / total_shares;
        if (ideal <= 0.0) continue;
        const double gap =
            (ideal - static_cast<double>(rec.consumed[i].count())) / ideal;
        worst = std::max(worst, gap);
    }
    return worst;
}

FairnessReport analyze_fairness(std::span<const core::CycleRecord> records,
                                std::size_t warmup, std::size_t limit) {
    FairnessReport report;
    if (warmup >= records.size()) return report;
    const std::size_t end =
        limit == 0 ? records.size() : std::min(records.size(), warmup + limit);
    util::RunningStats ratio;
    util::RunningStats rms;
    for (std::size_t i = warmup; i < end; ++i) {
        const core::CycleRecord& rec = records[i];
        double total = 0.0;
        double total_shares = 0.0;
        if (!cycle_totals(rec, total, total_shares)) continue;
        ratio.add(cycle_time_ratio(rec));
        rms.add(cycle_rms_error(rec));
        report.max_complaint = std::max(report.max_complaint, cycle_max_complaint(rec));
        ++report.cycles;
    }
    if (report.cycles > 0) {
        report.time_ratio = ratio.mean();
        report.rms_share_error = rms.mean();
    }
    return report;
}

void export_fairness(const FairnessReport& report, telemetry::MetricsRegistry& reg,
                     const std::string& prefix) {
    const auto ppm = [](double fraction) {
        return static_cast<std::uint64_t>(std::max(0.0, fraction) * 1e6 + 0.5);
    };
    reg.histogram(prefix + "time_ratio_ppm").record(ppm(report.time_ratio));
    reg.histogram(prefix + "rms_share_error_ppm").record(ppm(report.rms_share_error));
    reg.histogram(prefix + "max_complaint_ppm").record(ppm(report.max_complaint));
    reg.counter(prefix + "cycles").add(report.cycles);
}

PerCpuFairnessReport analyze_fairness_per_cpu(
    std::span<const std::vector<core::CycleRecord>> per_cpu_records,
    std::size_t warmup, std::size_t limit) {
    PerCpuFairnessReport report;
    report.per_cpu.reserve(per_cpu_records.size());
    double best = 0.0;
    for (const auto& records : per_cpu_records) {
        FairnessReport r = analyze_fairness(records, warmup, limit);
        if (r.cycles > 0) {
            if (report.cpus_with_cycles == 0) {
                best = r.rms_share_error;
                report.worst_rms_share_error = r.rms_share_error;
            } else {
                best = std::min(best, r.rms_share_error);
                report.worst_rms_share_error =
                    std::max(report.worst_rms_share_error, r.rms_share_error);
            }
            report.mean_rms_share_error += r.rms_share_error;
            report.worst_max_complaint =
                std::max(report.worst_max_complaint, r.max_complaint);
            ++report.cpus_with_cycles;
        }
        report.per_cpu.push_back(std::move(r));
    }
    if (report.cpus_with_cycles > 0) {
        report.mean_rms_share_error /= static_cast<double>(report.cpus_with_cycles);
        report.rms_error_spread = report.worst_rms_share_error - best;
    }
    return report;
}

void export_fairness_per_cpu(const PerCpuFairnessReport& report,
                             telemetry::MetricsRegistry& reg,
                             const std::string& prefix) {
    const auto ppm = [](double fraction) {
        return static_cast<std::uint64_t>(std::max(0.0, fraction) * 1e6 + 0.5);
    };
    reg.histogram(prefix + "per_cpu_mean_rms_ppm")
        .record(ppm(report.mean_rms_share_error));
    reg.histogram(prefix + "per_cpu_worst_rms_ppm")
        .record(ppm(report.worst_rms_share_error));
    reg.histogram(prefix + "per_cpu_rms_spread_ppm")
        .record(ppm(report.rms_error_spread));
    reg.histogram(prefix + "per_cpu_worst_complaint_ppm")
        .record(ppm(report.worst_max_complaint));
    reg.counter(prefix + "per_cpu_cpus").add(report.cpus_with_cycles);
}

}  // namespace alps::metrics
