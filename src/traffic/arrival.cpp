#include "traffic/arrival.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace alps::traffic {

using util::Duration;
using util::TimePoint;

namespace {

double spike_at(const FlashCrowd& s, TimePoint t) {
    if (s.multiplier <= 1.0 || t < s.start) return 1.0;
    Duration into = t - s.start;
    if (into < s.ramp) {
        const double f = static_cast<double>(into.count()) /
                         static_cast<double>(s.ramp.count());
        return 1.0 + (s.multiplier - 1.0) * f;
    }
    into = into - s.ramp;
    if (into < s.hold) return s.multiplier;
    into = into - s.hold;
    if (into < s.decay) {
        const double f = static_cast<double>(into.count()) /
                         static_cast<double>(s.decay.count());
        return s.multiplier - (s.multiplier - 1.0) * f;
    }
    return 1.0;
}

}  // namespace

double rate_envelope(const ArrivalConfig& cfg, TimePoint t) {
    double rate = cfg.base_rps;
    for (const FlashCrowd& s : cfg.spikes) rate *= spike_at(s, t);
    return rate;
}

double rate_bound(const ArrivalConfig& cfg) {
    double bound = cfg.base_rps;
    // Overlapping spikes multiply; bounding by the product of all peaks is
    // conservative but keeps the bound exact for the common disjoint case
    // read off each spike's own window.
    for (const FlashCrowd& s : cfg.spikes) {
        bound *= std::max(1.0, s.multiplier);
    }
    return bound;
}

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg, util::Rng rng)
    : cfg_(std::move(cfg)), rng_(rng) {
    ALPS_EXPECT(cfg_.base_rps > 0.0);
    for (const FlashCrowd& s : cfg_.spikes) {
        ALPS_EXPECT(s.multiplier >= 1.0);
        ALPS_EXPECT(s.ramp >= Duration::zero() && s.hold >= Duration::zero() &&
                    s.decay >= Duration::zero());
    }
    bound_ = rate_bound(cfg_);
    candidate_mean_ = Duration{static_cast<std::int64_t>(
        std::llround(1e9 / bound_))};
    ALPS_ENSURE(candidate_mean_ > Duration::zero());
}

TimePoint ArrivalProcess::next(TimePoint from) {
    // Thinning: homogeneous candidates at the bound rate, each kept with
    // probability lambda(t)/bound. The expected number of rejected
    // candidates per arrival is bound/lambda — bounded by the spike gains,
    // which the scenario keeps modest.
    TimePoint t = from;
    for (;;) {
        t = t + rng_.exponential(candidate_mean_);
        const double rate = rate_envelope(cfg_, t);
        if (rng_.next_double() * bound_ < rate) return t;
    }
}

}  // namespace alps::traffic
