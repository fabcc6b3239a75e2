// Group resource principals (paper Section 5).
//
// The shared-web-server deployment decouples the resource principal from the
// process: the scheduled entity is a *user*, and CPU consumption by any of
// the user's processes counts against the user's allocation. Every principal
// is one uid. This ProcessControl implementation:
//   * charges a principal from its admission onwards: the processes the uid
//     has at admission are baselined at a join-time read (CPU they used
//     before ALPS managed the uid is not charged), and a process a later
//     refresh finds is charged from zero, so a worker forked between two
//     refreshes cannot run uncharged (a scan that fails changes no
//     membership, so it cannot make a member join again from zero);
//   * reports the principal blocked when every member is blocked (or it has
//     no members — an empty principal is not contending for the CPU);
//   * suspends/resumes all members together, stopping late joiners of a
//     suspended principal on arrival;
//   * refreshes a principal's membership from the host's per-user process
//     list (the paper does this once per second via kvm_getprocs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alps/host.h"
#include "alps/process_control.h"

namespace alps::core {

class GroupProcessControl final : public ProcessControl {
public:
    explicit GroupProcessControl(ProcessHost& host) : host_(host) {}

    /// Admits a principal for all of `uid`'s processes: scans them and
    /// baselines each at a join-time read. If the scan fails, the first
    /// refresh whose scan succeeds admits instead. Returns the EntityId to
    /// register with the Scheduler.
    EntityId add_principal(std::string name, HostUid uid);

    /// Re-queries the host for the principal's uid and reconciles membership:
    /// drops processes that are gone and joins newcomers, charged from zero.
    /// A failed scan leaves membership as it is and returns 0; otherwise
    /// returns the number of processes scanned (for cost accounting).
    int refresh(EntityId principal);

    /// Refreshes every principal; returns total processes scanned.
    int refresh_all();

    [[nodiscard]] std::vector<HostPid> members(EntityId principal) const;
    [[nodiscard]] const std::string& name(EntityId principal) const;

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
        util::Duration last_cpu{0};  ///< cumulative at last read (0 for late joiners)
        /// False only for an admission member whose join-time read failed:
        /// its first successful read becomes the baseline.
        bool baselined = true;
    };
    struct Principal {
        std::string name;
        HostUid uid = 0;
        std::vector<Member> members;
        util::Duration cum{0};  ///< principal's cumulative charged CPU
        bool suspended = false;
        /// Set by the first successful scan, which baselines what it finds.
        bool admitted = false;
    };

    Principal& get(EntityId id);
    const Principal& get(EntityId id) const;
    ControlResult signal_all(EntityId id, bool is_resume);

    ProcessHost& host_;
    /// Principal id i at index i - 1: ids are issued from 1 in order and a
    /// principal is never removed.
    std::vector<Principal> principals_;
    /// Reused across refresh() calls so the once-per-second membership scan
    /// does not allocate.
    std::vector<HostPid> refresh_scratch_;
    std::vector<HostPid> dead_scratch_;
};

}  // namespace alps::core
