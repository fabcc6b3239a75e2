// Adaptive quantum control (extension).
//
// The paper (§2.1) calls the quantum "a primary configuration parameter that
// enables an application to balance accuracy and overhead" — and leaves the
// balancing to the user. This controller automates it: given a target
// overhead budget (ALPS CPU as a fraction of wall time), it adjusts the
// quantum after each observation window. Per-tick cost is roughly constant
// for a given workload, so overhead scales like 1/Q; the controller applies
// that model with damping, and clamps to a configured range.
#pragma once

#include "util/time.h"

namespace alps::core {

struct AdaptiveQuantumConfig {
    util::Duration min_quantum = util::msec(5);
    util::Duration max_quantum = util::msec(200);
    /// Overhead budget (fraction of one CPU, e.g. 0.002 = 0.2%).
    double target_overhead = 0.002;
    /// 1.0 jumps straight to the model's answer; smaller damps oscillation.
    double gain = 0.5;
    /// Quantum granularity (real timers cannot honor arbitrary periods).
    util::Duration granularity = util::msec(1);
    /// Per-window observations are noisy (a window usually covers only part
    /// of a cycle, and the measurement load varies across a cycle), so the
    /// controller acts on an EWMA. Weight of the newest observation.
    double smoothing = 0.3;
};

class AdaptiveQuantumController {
public:
    explicit AdaptiveQuantumController(AdaptiveQuantumConfig cfg = {});

    /// One observation window: the scheduler consumed `alps_cpu` of CPU over
    /// `window` of wall time while running at `current_quantum`. Returns the
    /// quantum to use next.
    [[nodiscard]] util::Duration update(util::Duration current_quantum,
                                        util::Duration alps_cpu,
                                        util::Duration window);

    [[nodiscard]] const AdaptiveQuantumConfig& config() const { return cfg_; }
    /// Smoothed overhead estimate (0 until the first update).
    [[nodiscard]] double smoothed_overhead() const { return ewma_; }

private:
    AdaptiveQuantumConfig cfg_;
    double ewma_ = 0.0;
    bool primed_ = false;
};

}  // namespace alps::core
