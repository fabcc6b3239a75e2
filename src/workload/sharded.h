// Sharded-machine experiment: G independent kernel groups, each with its own
// ALPS instance, run on a sim::ShardedEngine at a configurable shard count.
//
// The headline claim this experiment proves is *shard-count invariance*: the
// group topology is fixed (group g lives on shard g % S), so every simulated
// result — share accuracy, cycle records, per-process CPU down to the
// nanosecond — must be bit-identical at S = 1, 2, 8, serial or threaded.
// The consumed_checksum field digests all of it into one number the bench
// gate can compare across points.
//
// Cross-shard traffic is real, not decorative: a "nomad" process hops group
// to group through os::ShardLink (extradite → channel → adopt), and every
// epoch each shard publishes a batched sample slice to a
// core::ShardSampleBoard that shard 0 reads at the boundary — the
// one-driver-reads-the-whole-machine pattern.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alps/cost_model.h"
#include "metrics/fairness.h"
#include "sim/shard.h"
#include "telemetry/metrics.h"
#include "util/time.h"

namespace alps::workload {

struct ShardedRunConfig {
    /// Fixed logical machine: kernel groups (one ALPS + workers each). The
    /// results are a function of this number, never of `shards`.
    unsigned groups = 8;
    /// Timing-wheel shards to spread the groups over (<= groups is useful;
    /// more is legal but idle). 1 = the serial baseline.
    unsigned shards = 1;
    sim::ShardedEngine::RunMode mode = sim::ShardedEngine::RunMode::kAuto;
    /// Compute-bound workers per group, shares cycling 1, 2, 3.
    int procs_per_group = 3;
    /// ALPS quantum == lockstep epoch, so sampling lands on boundaries.
    util::Duration quantum = util::msec(10);
    /// Cycles measured per group after warmup (cycle = quantum * group
    /// shares, the same S.Q grid as every other experiment).
    int measure_cycles = 12;
    int warmup_cycles = 3;
    /// Migrate a cross-group nomad process every `hop_period` boundaries
    /// (0 = no cross-shard process traffic). Hops are staggered one source
    /// group per boundary, which keeps the drain order S-invariant.
    int hop_period = 3;
    std::string kernel_policy = "bsd";
    std::uint64_t policy_seed = 0xa1b5'5eedULL;
    /// When set, exports sharded-engine totals ("sharded.") plus the usual
    /// engine/kernel/fairness counters here.
    telemetry::MetricsRegistry* metrics = nullptr;
};

struct ShardedRunResult {
    double mean_rms_error = 0.0;   ///< mean over groups (fraction)
    double worst_rms_error = 0.0;  ///< worst group
    /// Total ALPS driver CPU over total machine capacity (wall * groups).
    double overhead_fraction = 0.0;
    std::uint64_t cycles_completed = 0;  ///< summed over groups
    std::uint64_t ticks = 0;             ///< summed over groups
    std::uint64_t measurements = 0;      ///< summed over groups
    /// FNV-1a over every group's final per-process CPU and every measured
    /// cycle record — identical across shard counts and run modes iff the
    /// simulation is.
    std::uint64_t consumed_checksum = 0;
    std::uint64_t epochs = 0;                ///< lockstep epochs
    std::uint64_t cross_shard_messages = 0;  ///< channel deliveries
    std::uint64_t migrations_completed = 0;  ///< nomad hops that landed
    std::uint64_t events_fired = 0;          ///< summed over shard engines
    /// Machine-wide CPU seen by shard 0's boundary read of the sample
    /// board at the last boundary (the cross-shard visibility probe).
    util::Duration board_machine_cpu{0};
    util::Duration wall{0};
    bool timed_out = false;
    metrics::PerCpuFairnessReport per_group;
};

/// Builds the G-group machine on `cfg.shards` wheel shards and runs it to
/// the configured cycle count. See the file comment for the invariance
/// contract.
[[nodiscard]] ShardedRunResult run_sharded_experiment(const ShardedRunConfig& cfg);

}  // namespace alps::workload
