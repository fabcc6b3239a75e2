// Per-cycle accuracy accounting (paper §3.1).
//
// The paper instruments ALPS to log each process's CPU consumption per cycle,
// computes the RMS of per-process relative errors (actual vs ideal) within
// each cycle, and reports the mean of that RMS over all cycles of a run.
// The ideal consumption of process i in a cycle is its proportional share of
// what the group actually received: share_i / S × total consumed — ALPS
// promises proportionality of whatever CPU the kernel grants (§2.1), not an
// absolute rate. ExactCycleLog (exact_cycle_log.h) collects the records;
// these functions score one of them.
#pragma once

#include <vector>

#include "alps/scheduler.h"

namespace alps::metrics {

/// RMS of per-process relative errors within one cycle. Cycles in which the
/// group consumed nothing yield 0.
[[nodiscard]] double cycle_rms_error(const core::CycleRecord& rec);

/// Fraction of the cycle's consumption received by each entity of one cycle,
/// in record order (the Figure-6 "Share (%)" series, as fractions).
[[nodiscard]] std::vector<double> cycle_fractions(const core::CycleRecord& rec);

}  // namespace alps::metrics
