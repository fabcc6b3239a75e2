// Fault campaign as a harness experiment: sweep the control-channel fault
// rate (every FaultPlan mode at the same probability) × repetitions and
// measure how the fairness error degrades and whether liveness holds — no
// crash, no abort, no process left wedged in SIGSTOP once faults stop.
#include <ostream>
#include <string>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "util/table.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

/// Fault probability per backend call, in basis points (so point names and
/// params stay integral): 0, 1%, 2%, 5%, 10%.
constexpr int kFaultBps[] = {0, 100, 200, 500, 1000};
constexpr int kProcs = 8;
constexpr int kQuantumMs = 20;

int fault_cycles(bool full) { return full ? 150 : 60; }
int repetitions(bool full) { return full ? 5 : 3; }

std::string point_name(int bps) { return "fault" + std::to_string(bps) + "bps"; }

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    for (const int bps : kFaultBps) {
        for (int rep = 0; rep < repetitions(options.full_scale); ++rep) {
            harness::Task task;
            task.point = point_name(bps);
            task.rep = rep;
            task.params = {{"fault_bps", std::to_string(bps)},
                           {"n", std::to_string(kProcs)},
                           {"quantum_ms", std::to_string(kQuantumMs)}};
            task.fn = [bps, rep](const harness::TaskContext& ctx) {
                workload::FaultRunConfig cfg;
                // Two procs at each of shares {2,4,6,8}: real differentiation
                // (1:4) without share-1 entities, whose single-quantum-per-
                // cycle granularity dominates the clean-channel error.
                for (int i = 0; i < kProcs; ++i) {
                    cfg.shares.push_back(static_cast<util::Share>(2 * (i / 2 + 1)));
                }
                cfg.quantum = util::msec(kQuantumMs);
                cfg.faults =
                    core::FaultPlan::uniform(static_cast<double>(bps) / 10000.0,
                                             /*seed=*/ctx.seed);
                cfg.warmup_cycles = 5 + rep;  // de-phase repeated runs
                cfg.fault_cycles = fault_cycles(ctx.full_scale);
                const auto r = workload::run_fault_experiment(cfg);
                return harness::Result{}
                    .metric("rms_error_pct", 100.0 * r.mean_rms_error)
                    .metric("stopped_at_drain", r.stopped_at_drain)
                    .metric("stopped_after_release", r.stopped_after_release)
                    .metric("invariant_gap_quanta", r.invariant_gap_quanta)
                    .metric("survivors", static_cast<double>(r.survivors))
                    .metric("injected_total", static_cast<double>(r.injected.total()))
                    .metric("read_failures", static_cast<double>(r.health.read_failures))
                    .metric("control_failures",
                            static_cast<double>(r.health.control_failures))
                    .metric("reissues", static_cast<double>(r.health.reissues))
                    .metric("rebaselines", static_cast<double>(r.health.rebaselines))
                    .metric("quarantines", static_cast<double>(r.health.quarantines))
                    .metric("drops", static_cast<double>(r.health.drops))
                    .metric("timed_out", r.timed_out ? 1.0 : 0.0);
            };
            tasks.push_back(std::move(task));
        }
    }
    return tasks;
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nFault campaign: fairness and liveness vs control-channel fault rate\n";
    out << "(" << kProcs << " procs, shares 2x{2,4,6,8}, Q=" << kQuantumMs
        << "ms; every fault mode at the given rate)\n";
    util::TextTable t({"Fault rate", "RMS err %", "Injected", "Reissues", "Quarantines",
                       "Drops", "Wedged@drain", "Invariant gap (quanta)"});
    for (const int bps : kFaultBps) {
        const std::string p = point_name(bps);
        t.add_row({util::fmt(static_cast<double>(bps) / 100.0, 2) + "%",
                   util::fmt(report.metric_mean(p, "rms_error_pct"), 2),
                   util::fmt(report.metric_mean(p, "injected_total"), 0),
                   util::fmt(report.metric_mean(p, "reissues"), 0),
                   util::fmt(report.metric_mean(p, "quarantines"), 1),
                   util::fmt(report.metric_mean(p, "drops"), 1),
                   util::fmt(report.metric_mean(p, "stopped_at_drain"), 0),
                   util::fmt(report.metric_mean(p, "invariant_gap_quanta"), 4)});
    }
    t.print(out);
    out << "\nExpectation: error grows smoothly with fault rate; the wedged and\n"
           "invariant-gap columns stay at zero (self-healing + accounting hold).\n";
}

void evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report);

    // Liveness: at every fault rate, nothing is left wedged after the drain
    // or after teardown, and the invariant survived.
    double worst_wedged = 0.0;
    double worst_gap = 0.0;
    double timeouts = 0.0;
    for (const int bps : kFaultBps) {
        const std::string p = point_name(bps);
        worst_wedged = std::max({worst_wedged, report.metric_mean(p, "stopped_at_drain"),
                                 report.metric_mean(p, "stopped_after_release")});
        worst_gap = std::max(worst_gap, report.metric_mean(p, "invariant_gap_quanta"));
        timeouts += report.metric_mean(p, "timed_out");
    }
    criteria.check("no process left SIGSTOPped once faults stop", "0",
                   util::fmt(worst_wedged, 0), worst_wedged == 0.0);
    criteria.check("Σa·Q == t_c survives quarantines/drops", "0",
                   util::fmt(worst_gap, 9), worst_gap == 0.0);
    criteria.check("no run wedged (timed out)", "0", util::fmt(timeouts, 0),
                   timeouts == 0.0);

    // Graceful degradation: clean channel stays accurate; 5% faults degrade
    // the error but keep it bounded (no crash is implicit — tasks that abort
    // would fail the sweep). The per-cycle RMS metric is harsh: every
    // injected fault perturbs some entity's cycle by about one quantum, a
    // large relative slice of a single cycle's share, so "bounded" here
    // means an order of magnitude above clean, not a few percent.
    const double err0 = report.metric_mean(point_name(0), "rms_error_pct");
    const double err5 = report.metric_mean(point_name(500), "rms_error_pct");
    criteria.check("fault-free error matches healthy scheduler", "< 5%",
                   util::fmt(err0, 2) + "%", err0 < 5.0);
    criteria.check("error at 5% fault rate bounded", "< 75%", util::fmt(err5, 2) + "%",
                   err5 < 75.0);
    const double injected5 = report.metric_mean(point_name(500), "injected_total");
    criteria.check("campaign actually injected faults at 5%", "> 100",
                   util::fmt(injected5, 0), injected5 > 100.0);

    const int failed = criteria.print(out);
    out << (failed == 0 ? "\nDEGRADATION POLICY HOLDS (0 failing criteria)\n"
                        : "\nDEGRADATION POLICY VIOLATED (" + std::to_string(failed) +
                              " failing criteria)\n");
}

}  // namespace

void register_fault_campaign_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "fault_campaign",
        .description =
            "Robustness: fairness error and liveness vs injected fault rate",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
