// A scripted ProcessControl backend for unit-testing the ALPS core without
// any kernel: the test advances each entity's CPU clock by hand (playing the
// role of the kernel scheduler) and the mock records every backend call.
// Faults can be scripted per entity: failing reads, lost or denied signals.
#pragma once

#include <map>

#include "alps/process_control.h"
#include "util/time.h"

namespace alps::testing {

class MockControl final : public core::ProcessControl {
public:
    struct Entity {
        util::Duration cpu{0};
        bool blocked = false;
        bool alive = true;
        bool suspended = false;
        int resumed_count = 0;
        int suspended_count = 0;
        int read_count = 0;  ///< read attempts, failed ones included
        // --- scripted faults (decremented as they fire; 0 = healthy) ---
        int fail_reads = 0;     ///< next N reads return ok=false
        int lose_signals = 0;   ///< next N suspend/resume report kOk, no effect
        int deny_signals = 0;   ///< next N suspend/resume return kDenied
    };

    core::Sample read_progress(core::EntityId id) override {
        ++reads;
        Entity& e = entities.at(id);
        ++e.read_count;
        core::Sample s;
        if (e.fail_reads > 0) {
            --e.fail_reads;
            s.ok = false;
            return s;
        }
        s.cpu_time = e.cpu;
        s.blocked = e.blocked;
        s.stopped = e.suspended;
        s.alive = e.alive;
        return s;
    }

    core::ControlResult suspend(core::EntityId id) override {
        ++suspends;
        Entity& e = entities[id];
        if (e.lose_signals > 0) {
            --e.lose_signals;
            return core::ControlResult::kOk;  // reported delivered; was not
        }
        if (e.deny_signals > 0) {
            --e.deny_signals;
            return core::ControlResult::kDenied;
        }
        if (!e.alive) return core::ControlResult::kGone;
        e.suspended = true;
        ++e.suspended_count;
        return core::ControlResult::kOk;
    }

    core::ControlResult resume(core::EntityId id) override {
        ++resumes;
        Entity& e = entities[id];
        if (e.lose_signals > 0) {
            --e.lose_signals;
            return core::ControlResult::kOk;
        }
        if (e.deny_signals > 0) {
            --e.deny_signals;
            return core::ControlResult::kDenied;
        }
        if (!e.alive) return core::ControlResult::kGone;
        e.suspended = false;
        ++e.resumed_count;
        return core::ControlResult::kOk;
    }

    /// Registers an entity the scheduler may talk about.
    Entity& ensure(core::EntityId id) { return entities[id]; }

    /// The "kernel": grants one quantum of CPU, split equally among entities
    /// that are resumed, alive, and not blocked (round-robin time-sharing on
    /// one CPU).
    void run_kernel_quantum(util::Duration quantum) {
        int active = 0;
        for (auto& [id, e] : entities) {
            if (e.alive && !e.suspended && !e.blocked) ++active;
        }
        if (active == 0) return;
        const util::Duration each{quantum.count() / active};
        for (auto& [id, e] : entities) {
            if (e.alive && !e.suspended && !e.blocked) e.cpu += each;
        }
    }

    int reads = 0;
    int suspends = 0;
    int resumes = 0;
    std::map<core::EntityId, Entity> entities;
};

}  // namespace alps::testing
