// posix_measure: the real core::Scheduler over posix::PosixProcessHost,
// managing idle children the benchmark forks.
#pragma once

#include "common.h"

namespace alps::perfbench {

/// Installs SIGINT/SIGTERM handlers that kill and reap the current child
/// group before the benchmark dies. Call once, before any child exists.
void install_child_cleanup_handlers();

void run_posix_workload(const RunOptions& opts, WorkloadReport& out);

}  // namespace alps::perfbench
