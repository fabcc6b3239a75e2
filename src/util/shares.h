// Share-vector arithmetic.
//
// The ALPS cycle length is S·Q where S is the sum of shares (Section 2.1).
// The paper assumes the shares were first divided by their greatest common
// divisor; the scheduler takes them as given, so 2:4 and 1:2 apportion the
// CPU alike, the first over a cycle twice as long. These helpers compute
// that sum, the ideal per-cycle CPU apportionments for the accuracy
// metric, and the largest sum a quantum admits.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/time.h"

namespace alps::util {

/// Shares are small positive integers.
using Share = std::int64_t;

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
