// Fairness metrics over ALPS cycle logs.
//
// Three complementary views of "did everyone get their share", computed from
// the same per-cycle consumption records (CycleRecord) the accuracy metric
// already uses:
//
//   * time-ratio fairness (the chap9/SRM metric): per cycle, normalize each
//     entity's consumption by its share (r_i = consumed_i / share_i) and take
//     min_i r_i / max_i r_i. 1.0 is perfect proportionality; 0 means someone
//     was starved while another ran. Reported as the mean over cycles.
//   * RMS share error: the paper's §3.1 metric — per-cycle RMS of relative
//     errors against ideal proportional consumption, meaned over cycles
//     (identical to ExactCycleLog::mean_rms_relative_error, included here so
//     one report carries all three numbers).
//   * max justified-complaint gap: the largest relative shortfall any entity
//     could justifiably complain about — max over cycles and entities of
//     (ideal_i − consumed_i) / ideal_i, counting only shortfalls (an entity
//     that got *more* than its share has no complaint). Bounds the worst
//     single-cycle starvation, which means hide.
//
// All three treat shares as entitlements to a fraction of what the group
// actually received in that cycle (the paper's §2.1 proportionality promise),
// so an idle machine or a blocked-process redistribution does not read as
// unfairness.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "alps/scheduler.h"

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::metrics {

struct FairnessReport {
    double time_ratio = 1.0;       ///< mean min/max share-normalized ratio; 1 = perfect
    double rms_share_error = 0.0;  ///< mean per-cycle RMS relative error (fraction)
    double max_complaint = 0.0;    ///< worst relative shortfall in any cycle (fraction)
    std::size_t cycles = 0;        ///< cycles the statistics cover
};

/// Computes all three metrics over records [warmup, warmup+limit); limit 0
/// means "to the end". Cycles where the group consumed nothing are skipped
/// (nothing was distributed, so nothing could be misdistributed).
[[nodiscard]] FairnessReport analyze_fairness(std::span<const core::CycleRecord> records,
                                              std::size_t warmup = 0,
                                              std::size_t limit = 0);

/// Time-ratio fairness of a single cycle (1.0 for empty/idle cycles).
[[nodiscard]] double cycle_time_ratio(const core::CycleRecord& rec);

/// Worst justified complaint within a single cycle (0 when none).
[[nodiscard]] double cycle_max_complaint(const core::CycleRecord& rec);

/// Exports the report into `reg` as ppm-scaled histograms
/// (`<prefix>time_ratio_ppm`, `<prefix>rms_share_error_ppm`,
/// `<prefix>max_complaint_ppm`) plus a `<prefix>cycles` counter. Histograms
/// (not gauges) so parallel sweep tasks merge deterministically for any
/// --jobs value.
void export_fairness(const FairnessReport& report, telemetry::MetricsRegistry& reg,
                     const std::string& prefix = "fairness.");

/// Per-CPU share-error breakdown for many-core deployments that run one
/// scheduling instance per core (the many_core experiment): one full
/// FairnessReport per instance plus the cross-instance aggregates a sweep
/// row needs. A "CPU" here is whatever produced one cycle-record stream —
/// a per-core ALPS, or the single global instance (then per_cpu.size()==1
/// and mean == worst).
struct PerCpuFairnessReport {
    std::vector<FairnessReport> per_cpu;      ///< index = instance / CPU
    double mean_rms_share_error = 0.0;        ///< mean over instances with cycles
    double worst_rms_share_error = 0.0;       ///< max over instances with cycles
    double worst_max_complaint = 0.0;         ///< max complaint anywhere
    /// worst − best RMS error across instances: the imbalance signal (a
    /// global scheduler shows 0 by construction; per-core instances diverge
    /// when load or steal traffic treats cores differently).
    double rms_error_spread = 0.0;
    std::size_t cpus_with_cycles = 0;         ///< instances that completed cycles
};

/// analyze_fairness per instance over records [warmup, warmup+limit), plus
/// the aggregates above. Instances with no analyzable cycles keep a default
/// FairnessReport and are excluded from the aggregates.
[[nodiscard]] PerCpuFairnessReport analyze_fairness_per_cpu(
    std::span<const std::vector<core::CycleRecord>> per_cpu_records,
    std::size_t warmup = 0, std::size_t limit = 0);

/// Exports the aggregates into `reg` as ppm-scaled histograms
/// (`<prefix>per_cpu_mean_rms_ppm`, `<prefix>per_cpu_worst_rms_ppm`,
/// `<prefix>per_cpu_rms_spread_ppm`, `<prefix>per_cpu_worst_complaint_ppm`)
/// plus a `<prefix>per_cpu_cpus` counter — same merge-deterministic shapes
/// as export_fairness.
void export_fairness_per_cpu(const PerCpuFairnessReport& report,
                             telemetry::MetricsRegistry& reg,
                             const std::string& prefix = "fairness.");

}  // namespace alps::metrics
