// Group resource principals (paper Section 5).
//
// The shared-web-server deployment decouples the resource principal from the
// process: the scheduled entity is a *user*, and CPU consumption by any of
// the user's processes counts against the user's allocation. This
// ProcessControl implementation:
//   * sums the CPU consumption of a principal's member processes (members
//     are baselined at join, so pre-join consumption is not charged);
//   * reports the principal blocked when every member is blocked (or it has
//     no members — an empty principal is not contending for the CPU);
//   * suspends/resumes all members together, stopping late joiners of a
//     suspended principal on arrival;
//   * can refresh a principal's membership from the host's per-user process
//     list (the paper does this once per second via kvm_getprocs).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alps/host.h"
#include "alps/process_control.h"

namespace alps::core {

class GroupProcessControl final : public ProcessControl {
public:
    explicit GroupProcessControl(ProcessHost& host) : host_(host) {}

    /// Creates a principal; if `uid` is given, refresh() tracks that user's
    /// processes. Returns the EntityId to register with the Scheduler.
    EntityId add_principal(std::string name, std::optional<HostUid> uid = std::nullopt);

    /// Manually adds/removes a member process.
    void add_member(EntityId principal, HostPid pid);
    void remove_member(EntityId principal, HostPid pid);

    /// Re-queries the host for the principal's uid and reconciles membership
    /// (joins new processes, drops dead ones). No-op for uid-less principals.
    /// Returns the number of processes scanned (for cost accounting).
    int refresh(EntityId principal);

    /// Refreshes every principal; returns total processes scanned.
    int refresh_all();

    [[nodiscard]] std::vector<HostPid> members(EntityId principal) const;
    [[nodiscard]] const std::string& name(EntityId principal) const;
    [[nodiscard]] std::size_t principal_count() const { return principals_.size(); }

    // --- ProcessControl ---
    /// Aggregates member samples. A member whose read fails is skipped (and
    /// counted) rather than poisoning the principal; only when *every*
    /// member read fails does the principal's sample come back not-ok. The
    /// principal reports stopped if any member is stopped, so a lost SIGCONT
    /// to one member surfaces to the scheduler's watchdog.
    Sample read_progress(EntityId id) override;
    /// Fan the signal out to all members; the result is the worst member
    /// outcome (kDenied > kTransient > kOk). A kGone member is not a
    /// failure — it is pruned at the next read/refresh.
    ControlResult suspend(EntityId id) override;
    ControlResult resume(EntityId id) override;

private:
    struct Member {
        HostPid pid = 0;
        util::Duration last_cpu{0};  ///< cumulative at last read (baseline at join)
        bool baselined = false;      ///< join-time read succeeded
    };
    struct Principal {
        std::string name;
        std::optional<HostUid> uid;
        std::vector<Member> members;
        util::Duration cum{0};  ///< principal's cumulative charged CPU
        bool suspended = false;
    };

    Principal& get(EntityId id);
    const Principal& get(EntityId id) const;
    void join(Principal& pr, HostPid pid);
    ControlResult signal_all(EntityId id, bool is_resume);

    ProcessHost& host_;
    std::map<EntityId, Principal> principals_;
    EntityId next_id_ = 1;
    /// Reused across refresh() calls so the once-per-second membership scan
    /// does not allocate.
    std::vector<HostPid> refresh_scratch_;
    std::vector<HostPid> dead_scratch_;
};

}  // namespace alps::core
