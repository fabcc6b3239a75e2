// The three simulated perfbench workloads. Each is deterministic per seed.
#pragma once

#include "common.h"

namespace alps::perfbench {

enum class SimWorkload {
    kWebFlashPercore,  ///< 1000 sites, 16 CPUs, x8 flash crowd, one ALPS per core
    kWebFlashKernel,   ///< the same cluster and traffic, kernel scheduling only
    kManyCorePercore,  ///< 256 cores, 2 pinned workers each, one ALPS per core
};

/// Runs one workload for opts.seconds: timed repetitions (untraced), or the
/// untraced/traced pair with the per-layer breakdown (opts.trace).
void run_sim_workload(SimWorkload workload, const RunOptions& opts, WorkloadReport& out);

}  // namespace alps::perfbench
