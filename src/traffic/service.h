// Service-time distributions for workload phases.
//
// Each web-model phase names a mean; the ServiceModel turns (rng, mean) into
// a draw. kExponential with a 10 µs floor is exactly the seed web model's
// jittered draw (same single rng.exponential() call, so the §5 golden stays
// bit-identical); kPareto gives the heavy tail measured in real web/database
// service times, parameterized by the same mean so share experiments
// compare like against like; kDeterministic is the mean itself (unit
// tests).
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "util/time.h"

namespace alps::traffic {

enum class ServiceKind : std::uint8_t {
    kDeterministic,  ///< the mean itself; consumes no randomness
    kExponential,    ///< memoryless (CV = 1)
    kPareto,         ///< power-law tail, P[X > x] ~ x^-shape; shape > 1
};

struct ServiceModel {
    ServiceKind kind = ServiceKind::kExponential;
    /// Pareto tail index alpha (heavier when closer to 1); ignored by the
    /// other kinds.
    double shape = 2.2;
    /// Every draw is floored here so a request never costs literally
    /// nothing (the seed model's 10 µs floor).
    util::Duration floor = util::usec(10);

    /// One service draw with the given mean. All kinds are parameterized so
    /// E[draw] == mean (before flooring).
    [[nodiscard]] util::Duration draw(util::Rng& rng, util::Duration mean) const;
};

}  // namespace alps::traffic
