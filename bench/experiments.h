// Sweep-harness registrations of the paper experiments (see src/harness/).
//
// Each register_* declares one experiment — its parameter grid, its
// paper-style text presentation, and (for the gate) its pass/fail criteria —
// in the harness ExperimentRegistry. Registration is explicit rather than via
// static initializers so that linking the static library cannot silently drop
// an experiment. tools/alps-sweep (and the tests that run a registered sweep)
// call register_all_experiments() (idempotent) and then run by name.
#pragma once

namespace alps::bench {

/// Table 2, Figure 4 (accuracy vs quantum length across the nine workloads)
/// and Figure 5 (overhead at Q = 10/20/40 ms, from the same grid) ("fig4").
void register_fig4_experiment();

/// Figures 8 & 9 + §4.2 threshold analysis ("fig8_fig9").
void register_scalability_experiment();

/// Every shape criterion from DESIGN.md in one run ("reproduction_gate").
void register_reproduction_gate_experiment();

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

/// Sharded-engine determinism gate: the 8-group machine bit-identical at
/// 1/2/8 shards, serial and threaded, per kernel policy ("sharded_run").
/// Honors --shards and --kernel-policy to narrow the grid.
void register_sharded_run_experiment();

/// Registers everything above exactly once (safe to call repeatedly).
void register_all_experiments();

}  // namespace alps::bench
