// Share-vector arithmetic.
//
// The ALPS cycle length is S·Q where S is the sum of shares "assuming the
// shares have been scaled by their greatest common divisor" (Section 2.1).
// These helpers perform that scaling and compute ideal per-cycle CPU
// apportionments for the accuracy metric.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/time.h"

namespace alps::util {

/// Shares are small positive integers.
using Share = std::int64_t;

/// GCD of a share vector (0 for an empty vector).
[[nodiscard]] Share shares_gcd(std::span<const Share> shares);

/// Returns the share vector divided by its GCD. Requires all shares > 0.
[[nodiscard]] std::vector<Share> scale_by_gcd(std::span<const Share> shares);

/// Sum of shares. Requires all shares > 0.
[[nodiscard]] Share total_shares(std::span<const Share> shares);

/// Ideal fraction of the group's CPU time due to each process: share_i / S.
[[nodiscard]] std::vector<double> ideal_fractions(std::span<const Share> shares);

/// Largest share total S whose cycle S·Q fits in int64 nanoseconds, the unit
/// in which ALPS keeps every allowance and the cycle. Requires quantum > 0.
[[nodiscard]] constexpr Share max_total_shares(Duration quantum) {
    return std::numeric_limits<std::int64_t>::max() / quantum.count();
}

}  // namespace alps::util
