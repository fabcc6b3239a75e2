// Sweep-harness registrations of the paper experiments (see src/harness/).
//
// Each register_* declares one experiment — its parameter grid, its
// paper-style text presentation, and its pass/fail criteria where it makes a
// claim — in the harness ExperimentRegistry. The helpers above them are the
// scale, naming, configuration and verdict code several experiments share. Registration is explicit rather than via
// static initializers so that linking the static library cannot silently drop
// an experiment. tools/alps-sweep (and the tests that run a registered sweep)
// call register_all_experiments() (idempotent) and then run by name.
#pragma once

#include <iosfwd>
#include <string>

#include "harness/sink.h"
#include "util/table.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

namespace alps::bench {

/// Cycles measured per accuracy run: the paper's 200 at --full, 60 at the
/// reduced default.
inline int measure_cycles(bool full) { return full ? 200 : 60; }

/// Runs per accuracy point: the paper's mean of 3 tests at --full, one at the
/// reduced default.
inline int repetitions(bool full) { return full ? 3 : 1; }

/// "Skewed5": a Table-2 workload's row label and point-name stem.
std::string workload_name(workload::ShareModel model, int n);

/// One Table-2 accuracy cell: the workload at `quantum_ms`, measured for
/// measure_cycles(full) cycles; every other SimRunConfig field at its default.
workload::SimRunConfig table2_config(workload::ShareModel model, int n, int quantum_ms,
                                     bool full);

/// An evaluate hook's criteria: every verdict is appended to report.checks
/// (so it reaches the JSON and the exit code) and to a PASS/FAIL table.
class Criteria {
public:
    /// `reference` heads the column of what each criterion expects.
    explicit Criteria(harness::SweepReport& report,
                      const std::string& reference = "Expected");

    void check(const std::string& criterion, const std::string& expected,
               const std::string& measured, bool ok);

    /// Prints the verdict table; returns the number of failed criteria.
    int print(std::ostream& out) const;

private:
    harness::SweepReport& report_;
    util::TextTable table_;
};

/// Table 2, Figure 4 (accuracy vs quantum length across the nine workloads)
/// and Figure 5 (overhead at Q = 10/20/40 ms, from the same grid) ("fig4").
void register_fig4_experiment();

/// Figures 8 & 9 + §4.2 threshold analysis ("fig8_fig9").
void register_scalability_experiment();

/// Robustness under injected control-channel faults ("fault_campaign").
void register_fault_campaign_experiment();

/// Robustness of the sweep harness itself: tasks that crash, stall, or throw,
/// exercising RunSupervisor retry/quarantine ("chaos_campaign").
void register_chaos_campaign_experiment();

/// Wall-clock throughput of the simulation substrate itself ("sim_perf").
/// The one experiment whose JSON is host-timing-dependent (not bit-identical).
void register_sim_perf_experiment();

/// ALPS share accuracy on each kernel policy, plus the stride-engine A/B
/// ("policy_zoo").
void register_policy_zoo_experiment();

/// One-global vs one-per-core ALPS on a 16/64/256-core machine with per-CPU
/// run queues ("many_core"). Honors --ncpus to run a single machine size.
void register_many_core_experiment();

/// Open-loop hosting under a flash crowd: share-protected latency
/// percentiles across kernel/global/per-core deployments ("web_scale").
/// Honors --ncpus, --sites, and --flash-crowd to narrow the grid.
void register_web_scale_experiment();

/// Figure 6 (I/O redistribution) and the I/O-mix waterfill comparison
/// ("fig6_io").
void register_fig6_io_experiment();

/// Figure 7 / Table 3 (three concurrent ALPSs) and the M = 1..24 ALPSs
/// scaling sweep ("multi_alps").
void register_multi_alps_experiment();

/// The §5 shared web server, kernel-only vs ALPS, plus the quantum and
/// membership-refresh sweeps ("web_section5").
void register_web_section5_experiment();

/// ALPS's mechanisms against their alternatives on the Table-2 workloads:
/// lazy vs eager measurement (§2.3), instant vs tick-granular stops, the
/// kernel's round-robin slice, the adaptive quantum, and in-kernel
/// stride/lottery ("mechanisms").
void register_mechanisms_experiment();

/// Registers everything above exactly once (safe to call repeatedly).
void register_all_experiments();

}  // namespace alps::bench
