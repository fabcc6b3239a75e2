// Demand-capped proportional share ("water-filling") — the reference
// allocation for workloads where some clients cannot use their full share
// (e.g. they block on I/O).
//
// Client i has weight w_i and a demand cap d_i ∈ [0, 1] (the largest CPU
// fraction it can consume). The allocation raises a common "water level" L:
// each client receives min(d_i, w_i·L), growing L until either the CPU is
// exhausted (Σ a_i = 1) or every client is demand-capped (Σ a_i = Σ d_i).
// Uncapped clients end up exactly share-proportional to each other.
//
// The paper's §2.4 heuristic should drive ALPS to this fixed point: blocked
// clients' unused entitlement flows to the others in proportion (Figure 6's
// 1:2:3 → 25/–/75 is the two-point special case). The fig6_io experiment
// (`alps-sweep --experiment fig6_io`) tests the general case against this
// model.
#pragma once

#include <span>
#include <vector>

#include "util/shares.h"

namespace alps::metrics {

/// Returns each client's CPU fraction under demand-capped proportional
/// share. `weights` positive; `demand_caps` in [0, 1], parallel arrays.
/// The result sums to min(1, Σ caps).
[[nodiscard]] std::vector<double> waterfill(std::span<const util::Share> weights,
                                            std::span<const double> demand_caps);

}  // namespace alps::metrics
