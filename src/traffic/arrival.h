// Open-loop arrival processes for the web workloads.
//
// The instantaneous request rate is a deterministic envelope over a base
// Poisson rate:
//
//   lambda(t) = base_rps · flash(t)
//
// where flash(t) is the product of scheduled piecewise-linear spikes (ramp /
// hold / decay) — the flash crowds web_scale and perfbench replay. Arrivals
// are generated by thinning (Lewis & Shedler 1979): candidate points arrive
// at the envelope's global upper bound and are accepted with probability
// lambda(t)/lambda_max, so the time-varying rate is sampled exactly — no
// per-interval discretization.
//
// Everything is driven by one util::Rng handed in by the caller, so a lane
// seeded via util::derive_stream_seed produces the same sample path no
// matter what other lanes run beside it.
#pragma once

#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace alps::traffic {

/// One scheduled flash-crowd spike: the rate multiplier climbs linearly
/// from 1 to `multiplier` over [start, start+ramp], holds, then decays
/// linearly back. A deterministic function of time — the *shape* of a crowd
/// is part of the scenario, not of the random draw.
struct FlashCrowd {
    util::TimePoint start{};
    util::Duration ramp{0};
    util::Duration hold{0};
    util::Duration decay{0};
    double multiplier = 1.0;  ///< >= 1
};

struct ArrivalConfig {
    double base_rps = 1.0;  ///< > 0
    std::vector<FlashCrowd> spikes;
};

/// The rate function — base · flash — at time `t`. Pure in (config, t): two
/// processes with different seeds see the identical envelope (the
/// flash-crowd shape-determinism contract).
[[nodiscard]] double rate_envelope(const ArrivalConfig& cfg, util::TimePoint t);

/// Upper bound on lambda(t) over all t: the thinning bound. Finite and
/// positive for any valid config.
[[nodiscard]] double rate_bound(const ArrivalConfig& cfg);

/// One lane's arrival sample path. Each call to next() advances the path;
/// calls must use non-decreasing `from` times (normally the previous
/// arrival), which the simulation's event order guarantees.
class ArrivalProcess {
public:
    ArrivalProcess(ArrivalConfig cfg, util::Rng rng);

    /// The first arrival strictly after `from`.
    [[nodiscard]] util::TimePoint next(util::TimePoint from);

    [[nodiscard]] const ArrivalConfig& config() const { return cfg_; }

private:
    ArrivalConfig cfg_;
    util::Rng rng_;
    double bound_ = 0.0;
    util::Duration candidate_mean_{0};  ///< 1/bound, as a duration
};

}  // namespace alps::traffic
