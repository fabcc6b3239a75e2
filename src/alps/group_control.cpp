#include "alps/group_control.h"

#include <algorithm>

#include "util/assert.h"

namespace alps::core {

EntityId GroupProcessControl::add_principal(std::string name, HostUid uid) {
    Principal& pr = principals_.emplace_back();
    pr.name = std::move(name);
    pr.uid = uid;
    const auto id = static_cast<EntityId>(principals_.size());
    refresh(id);
    return id;
}

GroupProcessControl::Principal& GroupProcessControl::get(EntityId id) {
    ALPS_EXPECT(id >= 1 && static_cast<std::size_t>(id) <= principals_.size());
    return principals_[static_cast<std::size_t>(id - 1)];
}

const GroupProcessControl::Principal& GroupProcessControl::get(EntityId id) const {
    ALPS_EXPECT(id >= 1 && static_cast<std::size_t>(id) <= principals_.size());
    return principals_[static_cast<std::size_t>(id - 1)];
}

int GroupProcessControl::refresh(EntityId principal) {
    Principal& pr = get(principal);
    // Allocation-free sampling: the host refills our reusable buffer (the
    // simulated kernel serves it straight from its per-uid cache). A failed
    // scan says nothing about membership, so it changes none: dropping the
    // members would charge them again, from zero, when the next scan finds
    // them.
    if (!host_.scan_user(pr.uid, refresh_scratch_)) return 0;
    const std::vector<HostPid>& current = refresh_scratch_;

    // Drop members that are gone (their charged consumption stays in cum).
    std::erase_if(pr.members, [&](const Member& m) {
        return std::find(current.begin(), current.end(), m.pid) == current.end();
    });
    for (HostPid pid : current) {
        const bool known = std::any_of(pr.members.begin(), pr.members.end(),
                                       [&](const Member& m) { return m.pid == pid; });
        if (known) continue;
        if (!pr.admitted) {
            // Admission: what the uid's processes consumed before ALPS
            // managed it is not charged. If the join-time read fails, the
            // first successful read becomes the baseline instead (so the
            // failure does not turn into a retroactive charge).
            const Sample s = host_.read_pid(pid);
            pr.members.push_back(Member{.pid = pid,
                                        .last_cpu = s.ok ? s.cpu_time : util::Duration{0},
                                        .baselined = s.ok});
            continue;
        }
        // A later newcomer is charged from zero: it was born into the uid
        // after admission (its CPU counter starts at birth), so everything
        // it has run is the principal's.
        pr.members.push_back(Member{.pid = pid});
        // The whole principal is one scheduling unit: late joiners inherit
        // its eligibility.
        if (pr.suspended) host_.stop_pid(pid);
    }
    pr.admitted = true;
    return static_cast<int>(current.size());
}

int GroupProcessControl::refresh_all() {
    int scanned = 0;
    for (std::size_t i = 1; i <= principals_.size(); ++i) {
        scanned += refresh(static_cast<EntityId>(i));
    }
    return scanned;
}

std::vector<HostPid> GroupProcessControl::members(EntityId principal) const {
    const Principal& pr = get(principal);
    std::vector<HostPid> out;
    out.reserve(pr.members.size());
    for (const Member& m : pr.members) out.push_back(m.pid);
    return out;
}

const std::string& GroupProcessControl::name(EntityId principal) const {
    return get(principal).name;
}

Sample GroupProcessControl::read_progress(EntityId id) {
    Principal& pr = get(id);
    bool all_blocked = true;
    bool any_stopped = false;
    std::size_t failed = 0;
    dead_scratch_.clear();
    std::vector<HostPid>& dead = dead_scratch_;
    for (Member& m : pr.members) {
        const Sample s = host_.read_pid(m.pid);
        if (!s.ok) {
            // One unreadable member must not poison the whole principal:
            // skip it this round (its consumption is picked up next time —
            // cumulative counters lose nothing).
            ++failed;
            continue;
        }
        if (!s.alive) {
            dead.push_back(m.pid);
            continue;
        }
        if (!m.baselined) {
            m.last_cpu = s.cpu_time;  // deferred join baseline
            m.baselined = true;
            if (!s.blocked) all_blocked = false;
            if (s.stopped) any_stopped = true;
            continue;
        }
        if (s.cpu_time < m.last_cpu) {
            // The member's pid was recycled: rebaseline it instead of
            // charging the principal a negative amount.
            m.last_cpu = s.cpu_time;
        }
        pr.cum += s.cpu_time - m.last_cpu;
        m.last_cpu = s.cpu_time;
        if (!s.blocked) all_blocked = false;
        if (s.stopped) any_stopped = true;
    }
    if (!dead.empty()) {
        std::erase_if(pr.members, [&](const Member& m) {
            return std::find(dead.begin(), dead.end(), m.pid) != dead.end();
        });
    }
    if (!pr.members.empty() && failed == pr.members.size()) {
        // Nothing readable at all: report a transient failure so the
        // scheduler retries rather than charging a zero-progress sample.
        Sample out;
        out.ok = false;
        return out;
    }
    Sample out;
    out.cpu_time = pr.cum;
    // An empty principal is not contending for the CPU either.
    out.blocked = all_blocked;
    out.stopped = any_stopped;
    out.alive = true;  // principals persist even with no processes
    return out;
}

ControlResult GroupProcessControl::signal_all(EntityId id, bool is_resume) {
    Principal& pr = get(id);
    pr.suspended = !is_resume;
    ControlResult worst = ControlResult::kOk;
    for (const Member& m : pr.members) {
        const ControlResult r =
            is_resume ? host_.cont_pid(m.pid) : host_.stop_pid(m.pid);
        if (r == ControlResult::kOk || r == ControlResult::kGone) continue;
        if (r == ControlResult::kDenied || worst == ControlResult::kOk) worst = r;
    }
    return worst;
}

ControlResult GroupProcessControl::suspend(EntityId id) {
    return signal_all(id, /*is_resume=*/false);
}

ControlResult GroupProcessControl::resume(EntityId id) {
    return signal_all(id, /*is_resume=*/true);
}

}  // namespace alps::core
