#include "alps/fault.h"

#include "util/assert.h"

namespace alps::core {

Sample FaultInjectingControl::read_progress(EntityId id) {
    if (!enabled_) return inner_.read_progress(id);

    // Roll every read-path fault up front so the Rng consumption per call is
    // fixed regardless of which branch wins (keeps streams stable when one
    // probability is tweaked).
    const bool fail = roll(plan_.read_fail);
    const bool stale = roll(plan_.stale_sample);
    const bool reuse = roll(plan_.pid_reuse);
    const bool flip = roll(plan_.blocked_flip);

    if (fail) {
        ++injected_.reads_failed;
        Sample s;
        s.ok = false;
        return s;
    }

    Sample s = inner_.read_progress(id);
    if (!s.ok) return s;  // genuine backend failure passes through

    if (stale) {
        auto it = last_sample_.find(id);
        if (it != last_sample_.end()) {
            ++injected_.stale_samples;
            return it->second;
        }
    }

    if (s.alive) {
        if (reuse) {
            // Pretend a new process now owns the id: its CPU clock restarts
            // near zero. Raise the offset so the *adjusted* reading drops,
            // then stays monotone (the offset only ever grows).
            auto& off = cpu_offset_[id];
            if (s.cpu_time - off > util::Duration::zero()) {
                ++injected_.pid_reuses;
                off = s.cpu_time;
            }
        }
        auto it = cpu_offset_.find(id);
        if (it != cpu_offset_.end()) s.cpu_time = s.cpu_time - it->second;
        if (flip) {
            ++injected_.blocked_flips;
            s.blocked = !s.blocked;
        }
    }

    last_sample_[id] = s;
    return s;
}

ControlResult FaultInjectingControl::signal(EntityId id, bool is_resume) {
    if (!enabled_) {
        return is_resume ? inner_.resume(id) : inner_.suspend(id);
    }
    const bool lost = roll(plan_.signal_lost);
    const bool denied = roll(plan_.signal_denied);
    if (lost) {
        // The cruellest failure: reported delivered, never delivered.
        ++injected_.signals_lost;
        return ControlResult::kOk;
    }
    if (denied) {
        ++injected_.signals_denied;
        return ControlResult::kDenied;
    }
    return is_resume ? inner_.resume(id) : inner_.suspend(id);
}

ControlResult FaultInjectingControl::suspend(EntityId id) {
    return signal(id, /*is_resume=*/false);
}

ControlResult FaultInjectingControl::resume(EntityId id) {
    return signal(id, /*is_resume=*/true);
}

}  // namespace alps::core
