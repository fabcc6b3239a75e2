#include "alps/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace alps::core {

/// Dead band: no adjustment while the smoothed overhead is within this
/// relative distance of the target (prevents hunting).
constexpr double kDeadband = 0.2;

AdaptiveQuantumController::AdaptiveQuantumController(AdaptiveQuantumConfig cfg)
    : cfg_(cfg) {
    ALPS_EXPECT(cfg_.min_quantum > util::Duration::zero());
    ALPS_EXPECT(cfg_.max_quantum >= cfg_.min_quantum);
    ALPS_EXPECT(cfg_.target_overhead > 0.0);
    ALPS_EXPECT(cfg_.gain > 0.0 && cfg_.gain <= 1.0);
    ALPS_EXPECT(cfg_.granularity > util::Duration::zero());
    ALPS_EXPECT(cfg_.smoothing > 0.0 && cfg_.smoothing <= 1.0);
}

util::Duration AdaptiveQuantumController::update(util::Duration current_quantum,
                                                 util::Duration alps_cpu,
                                                 util::Duration window) {
    ALPS_EXPECT(current_quantum > util::Duration::zero());
    ALPS_EXPECT(window > util::Duration::zero());
    ALPS_EXPECT(alps_cpu >= util::Duration::zero());

    const double overhead =
        static_cast<double>(alps_cpu.count()) / static_cast<double>(window.count());
    if (!primed_) {
        ewma_ = overhead;
        primed_ = true;
    } else {
        ewma_ = (1.0 - cfg_.smoothing) * ewma_ + cfg_.smoothing * overhead;
    }

    // Model: overhead ~ c/Q, so the quantum that meets the budget is
    // Q * overhead/target. Move a `gain` fraction of the way (geometrically,
    // so up- and down-corrections are symmetric), on the smoothed estimate,
    // and only when outside the dead band.
    const double ratio = ewma_ / cfg_.target_overhead;
    if (std::abs(ratio - 1.0) <= kDeadband) return current_quantum;
    const double factor = std::pow(ratio, cfg_.gain);
    const double raw =
        static_cast<double>(current_quantum.count()) * factor;

    const auto gran = static_cast<double>(cfg_.granularity.count());
    const double quantized = std::round(raw / gran) * gran;
    const auto clamped = std::clamp(
        static_cast<std::int64_t>(quantized), cfg_.min_quantum.count(),
        cfg_.max_quantum.count());
    return util::Duration{clamped};
}

}  // namespace alps::core
