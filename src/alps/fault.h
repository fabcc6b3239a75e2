// Deterministic fault injection for the ProcessControl channel.
//
// ALPS drives processes it does not own through fallible channels: signals
// can be lost in delivery or denied (EPERM), /proc reads can fail or return
// stale data, and a pid can be recycled between two measurements so the
// entity's CPU counter appears to jump backwards. FaultInjectingControl is a
// decorator that injects exactly these failure modes into any ProcessControl
// backend, driven by a seeded util::Rng so every campaign is reproducible
// from (seed, plan) alone. It is how the fault_campaign experiment and the
// robustness tests exercise the scheduler's degradation policy without a
// flaky host.
#pragma once

#include <cstdint>
#include <map>

#include "alps/process_control.h"
#include "util/rng.h"

namespace alps::core {

/// Per-operation fault probabilities, all in [0, 1]. The default plan is
/// all-zero (the decorator is then a transparent pass-through).
struct FaultPlan {
    std::uint64_t seed = 1;
    /// A read_progress call fails transiently (Sample::ok = false).
    double read_fail = 0.0;
    /// A read returns the *previous* successful sample again (a cached or
    /// torn /proc read) instead of fresh data.
    double stale_sample = 0.0;
    /// A read reports the entity's cumulative CPU lower than before, as if
    /// the pid had been recycled by a new process (then monotone again).
    double pid_reuse = 0.0;
    /// A read flips the blocked flag (wait-channel misattribution).
    double blocked_flip = 0.0;
    /// A suspend/resume reports success but is never delivered (lost
    /// signal — the worst case: the scheduler believes the state changed).
    double signal_lost = 0.0;
    /// A suspend/resume is refused with kDenied (EPERM) and not delivered.
    double signal_denied = 0.0;

    /// Convenience: every fault mode at the same probability `p`.
    [[nodiscard]] static FaultPlan uniform(double p, std::uint64_t seed = 1) {
        FaultPlan plan;
        plan.seed = seed;
        plan.read_fail = p;
        plan.stale_sample = p;
        plan.pid_reuse = p;
        plan.blocked_flip = p;
        plan.signal_lost = p;
        plan.signal_denied = p;
        return plan;
    }

    [[nodiscard]] bool any() const {
        return read_fail > 0 || stale_sample > 0 || pid_reuse > 0 ||
               blocked_flip > 0 || signal_lost > 0 || signal_denied > 0;
    }
};

/// What the decorator actually injected (for asserting campaigns did
/// something, and for the experiment's JSON output).
struct InjectedCounts {
    std::uint64_t reads_failed = 0;
    std::uint64_t stale_samples = 0;
    std::uint64_t pid_reuses = 0;
    std::uint64_t blocked_flips = 0;
    std::uint64_t signals_lost = 0;
    std::uint64_t signals_denied = 0;

    [[nodiscard]] std::uint64_t total() const {
        return reads_failed + stale_samples + pid_reuses + blocked_flips +
               signals_lost + signals_denied;
    }
};

/// ProcessControl decorator injecting the FaultPlan's failure modes.
///
/// Determinism: one Rng, consumed in call order. The decorated scheduler
/// must itself be deterministic (it is: its entity table is a flat vector
/// sorted by id, walked in that order every tick) for a campaign to be
/// reproducible — which the tests assert.
///
/// While disabled (the initial state and after disable()), every call is a
/// verbatim pass-through and the Rng is not consumed, so setup (manage/add)
/// and the post-campaign drain see a clean channel.
class FaultInjectingControl final : public ProcessControl {
public:
    FaultInjectingControl(ProcessControl& inner, FaultPlan plan)
        : inner_(inner), plan_(plan), rng_(plan.seed) {}

    /// Faults are injected only while enabled (default: off).
    void set_enabled(bool on) { enabled_ = on; }
    void disable() { enabled_ = false; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    [[nodiscard]] const InjectedCounts& injected() const { return injected_; }
    [[nodiscard]] const FaultPlan& plan() const { return plan_; }

    Sample read_progress(EntityId id) override;
    ControlResult suspend(EntityId id) override;
    ControlResult resume(EntityId id) override;

private:
    [[nodiscard]] bool roll(double p) { return p > 0.0 && rng_.next_double() < p; }
    ControlResult signal(EntityId id, bool is_resume);

    ProcessControl& inner_;
    FaultPlan plan_;
    util::Rng rng_;
    bool enabled_ = false;
    InjectedCounts injected_;
    /// Last successful (post-injection) sample per entity, replayed on a
    /// stale_sample fault.
    std::map<EntityId, Sample> last_sample_;
    /// Per-entity CPU offset subtracted from real samples; a pid_reuse fault
    /// raises it to just below the current reading, so the entity's clock
    /// jumps backwards once and then advances monotonically — exactly what a
    /// recycled pid looks like.
    std::map<EntityId, util::Duration> cpu_offset_;
};

}  // namespace alps::core
