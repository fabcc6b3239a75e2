// Reusable experiment runners for the paper's evaluation (Sections 3-4).
// Each runner builds a fresh simulated machine, runs one experiment, and
// returns structured results; the bench harnesses and integration tests call
// these.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "alps/cost_model.h"
#include "alps/fault.h"
#include "alps/scheduler.h"
#include "metrics/fairness.h"
#include "metrics/slope_analysis.h"
#include "util/shares.h"
#include "util/time.h"

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::workload {

// ----------------------------------------------------------------------------
// CPU-bound accuracy/overhead run (Figures 4, 5, 8, 9 and the §2.3 ablation)

struct SimRunConfig {
    /// One compute-bound process per share entry.
    std::vector<util::Share> shares;
    util::Duration quantum = util::msec(10);
    /// Cycles measured for the error metric, after `warmup_cycles`.
    int measure_cycles = 200;
    int warmup_cycles = 5;
    bool lazy_measurement = true;  ///< §2.3 optimization (off = ablation)
    bool io_accounting = true;
    /// Hard stop; zero = derived from the cycle length automatically.
    util::Duration max_wall{0};
    /// Kernel signal-delivery latency model (see KernelConfig): 0 = ideal
    /// instant stops; 10 ms models FreeBSD's hardclock-tick delivery.
    util::Duration stop_latency_grid{0};
    /// When set, the run exports its engine/kernel/scheduler totals here
    /// ("engine.", "kernel.", "alps." prefixes) plus the fairness report
    /// ("fairness.") before returning. Sweeps pass TaskContext::metrics so
    /// every task's counters land in one registry.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Kernel scheduling policy underneath ALPS, by name (see
    /// os::policies::known_policies(): bsd | lottery | stride | cfs). An
    /// unknown name throws std::invalid_argument from the kernel.
    std::string kernel_policy = "bsd";
    /// Seed for randomized kernel policies (the lottery's draw stream).
    std::uint64_t policy_seed = 0xa1b5'5eedULL;
};

struct SimRunResult {
    double mean_rms_error = 0.0;      ///< fraction (×100 = the paper's %)
    double overhead_fraction = 0.0;   ///< ALPS CPU / wall time (×100 = %)
    std::uint64_t cycles_completed = 0;
    std::uint64_t ticks = 0;
    std::uint64_t measurements = 0;   ///< total progress reads
    std::uint64_t boundaries_missed = 0;
    util::Duration wall{0};
    util::Duration alps_cpu{0};
    bool timed_out = false;  ///< hit max_wall before completing the cycles
    /// Fairness over the measured cycles (time ratio, RMS error, complaint).
    metrics::FairnessReport fairness;
};

/// Spawns |shares| compute-bound processes under one ALPS and measures
/// accuracy and overhead.
[[nodiscard]] SimRunResult run_cpu_bound_experiment(const SimRunConfig& cfg);

/// The policy-zoo A/B: same machine, same workload, same measurement, but
/// the application-level controller is core::StrideEngine (stride
/// pass/stride replacing the ALPS allowance loop). kernel_policy still
/// selects the kernel underneath. lazy_measurement/io_accounting are
/// ignored (the engine has no such options).
[[nodiscard]] SimRunResult run_stride_engine_experiment(const SimRunConfig& cfg);

// ----------------------------------------------------------------------------
// I/O redistribution run (Figure 6)

struct IoRunConfig {
    util::Duration quantum = util::msec(10);
    /// Shares of processes A, B, C; B is the one that performs I/O (bursts
    /// of 80 ms of CPU, then 240 ms asleep — the paper's Figure 6).
    std::array<util::Share, 3> shares{1, 2, 3};
    /// Cycles of steady CPU-bound execution before B starts I/O.
    int steady_cycles = 30;
    /// Cycles to observe after the I/O onset.
    int observe_cycles = 60;
};

struct IoRunResult {
    /// Per observed cycle: index and each process's fraction of the cycle's
    /// CPU (A, B, C).
    std::vector<std::uint64_t> cycle_index;
    std::vector<std::array<double, 3>> fractions;
    /// Cycle index at which B's I/O began.
    std::uint64_t io_onset_cycle = 0;
};

[[nodiscard]] IoRunResult run_io_experiment(const IoRunConfig& cfg);

// ----------------------------------------------------------------------------
// Multiple concurrent ALPSs (Figure 7 and Table 3)

struct MultiAlpsConfig {
    util::Duration quantum = util::msec(10);
    /// Phase starts: group A at 0, B at phase2_start, C at phase3_start; the
    /// run ends at end (the paper: 3 s / 6 s / 15 s).
    util::Duration phase2_start = util::sec(3);
    util::Duration phase3_start = util::sec(6);
    util::Duration end = util::sec(15);
};

struct MultiAlpsResult {
    struct ProcResult {
        int group = 0;  ///< 0 = A {7,8,9}, 1 = B {4,5,6}, 2 = C {1,2,3}
        util::Share share = 0;
        metrics::ConsumptionSeries series;  ///< sampled at its ALPS's cycle ends
        /// Within-group CPU fraction and relative error per phase (empty
        /// optional where the group was not yet running).
        std::array<std::optional<metrics::PhaseShare>, 3> phases;
    };
    std::vector<ProcResult> procs;  ///< 9 processes, shares 7,8,9,4,5,6,1,2,3
    /// Mean relative error over all (process, phase) cells (paper: 0.93 %).
    double mean_relative_error = 0.0;
};

[[nodiscard]] MultiAlpsResult run_multi_alps_experiment(const MultiAlpsConfig& cfg);

// ----------------------------------------------------------------------------
// Fault campaign: accuracy and liveness under an unreliable control channel

struct FaultRunConfig {
    /// One compute-bound process per share entry.
    std::vector<util::Share> shares;
    util::Duration quantum = util::msec(10);
    /// Injected failure modes (see FaultPlan); enabled only during the fault
    /// phase — setup and drain always run on a clean channel.
    core::FaultPlan faults{};
    int warmup_cycles = 5;    ///< clean cycles before injection starts
    int fault_cycles = 100;   ///< cycles with injection enabled (measured)
};

struct FaultRunResult {
    /// Mean RMS relative fairness error over the fault-phase cycles,
    /// against the kernel's ground-truth rusage.
    double mean_rms_error = 0.0;
    std::uint64_t cycles_completed = 0;
    std::uint64_t ticks = 0;
    core::HealthReport health;        ///< what the scheduler coped with
    core::InjectedCounts injected;    ///< what the fault layer actually did
    std::size_t survivors = 0;        ///< entities still managed at the end
    /// Liveness: processes wedged in SIGSTOP against the scheduler's will
    /// after the drain (must be 0 — self-healing worked) and after teardown
    /// release (must be 0 — "never leave a process stopped").
    int stopped_at_drain = 0;
    int stopped_after_release = 0;
    /// |Σ a_i·Q − t_c| in quanta at the end (the core invariant, which must
    /// survive quarantines and drops).
    double invariant_gap_quanta = 0.0;
    bool timed_out = false;
};

/// Runs |shares| compute-bound processes under one ALPS whose backend is
/// wrapped in a FaultInjectingControl, and measures how fairness and
/// liveness degrade.
[[nodiscard]] FaultRunResult run_fault_experiment(const FaultRunConfig& cfg);

// ----------------------------------------------------------------------------
// Many-core sweep: one global ALPS vs one ALPS per core (the SMP extension)

struct ManyCoreConfig {
    /// Simulated cores; the kernel runs per-CPU scheduling domains
    /// (KernelConfig::percpu_queues) with idle-steal and rebalance.
    int ncpus = 16;
    /// Compute-bound workers per core, shares cycling 1, 2, 3.
    int procs_per_cpu = 2;
    /// When non-empty, overrides procs_per_cpu and the 1,2,3 cycle: each
    /// instance runs exactly these shares (global mode repeats the vector
    /// once per core). Lets the policy-zoo run its linear/skewed share
    /// models on the per-CPU machine.
    std::vector<util::Share> shares_per_instance;
    /// true: one ALPS instance per core, driver and workers homed on that
    /// core's domain. false: one global ALPS over all ncpus·procs_per_cpu
    /// workers (its cycle is ncpus times longer — the scaling pain the
    /// per-core deployment removes).
    bool per_core_alps = false;
    /// Per-core mode only: hard-pin each instance's driver and workers
    /// (Proc::pinned) so idle-steal/rebalance cannot migrate them off their
    /// controller's domain. Before this exemption existed, such migrations
    /// were the dominant per-core error source (worst instance ~28% RMS);
    /// set false to reproduce that failure mode.
    bool pin_workers = true;
    util::Duration quantum = util::msec(10);
    /// Cycles measured *per instance* after `warmup_cycles`. The global
    /// instance's cycles are ~ncpus times longer in wall time; holding the
    /// cycle count (not the wall time) fixed keeps the accuracy statistics
    /// comparable per the §3.1 per-cycle metric.
    int measure_cycles = 20;
    int warmup_cycles = 3;
    core::CostModel cost{};
    std::string kernel_policy = "bsd";
    std::uint64_t policy_seed = 0xa1b5'5eedULL;
    /// Hard stop; zero = derived from the longest instance cycle.
    util::Duration max_wall{0};
    /// When set, exports engine/kernel/scheduler totals plus the per-CPU
    /// fairness breakdown ("fairness.per_cpu_*") here.
    telemetry::MetricsRegistry* metrics = nullptr;
};

struct ManyCoreResult {
    double mean_rms_error = 0.0;   ///< mean over instances (fraction)
    double worst_rms_error = 0.0;  ///< worst instance (== mean when global)
    /// Total ALPS CPU over total machine capacity (wall · ncpus).
    double overhead_fraction = 0.0;
    std::uint64_t cycles_completed = 0;   ///< summed over instances
    std::uint64_t ticks = 0;              ///< summed over instances
    std::uint64_t measurements = 0;       ///< summed over instances
    std::uint64_t boundaries_missed = 0;  ///< summed (a breakdown symptom)
    std::uint64_t migrations = 0;  ///< kernel cross-domain moves (incl. steals)
    std::uint64_t steals = 0;      ///< idle-steal pulls
    util::Duration wall{0};
    bool timed_out = false;
    /// Per-instance fairness breakdown (one entry when global).
    metrics::PerCpuFairnessReport per_cpu;
};

/// Builds an ncpus-core machine with per-CPU run queues, deploys ALPS as
/// configured, and measures share accuracy, overhead, and balancing traffic.
[[nodiscard]] ManyCoreResult run_many_core_experiment(const ManyCoreConfig& cfg);

}  // namespace alps::workload
