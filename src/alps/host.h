// Minimal per-process surface of a host system, from the point of view of an
// unprivileged user process. Both backends implement it:
//   * alps::core::SimProcessHost  (sim_adapter.h) over the simulated kernel,
//   * alps::posix::PosixProcessHost (posix/) over a real /proc + signals.
//
// ProcessControl implementations (single-process and group-principal) are
// built on top of this, so the ALPS core is oblivious to the backend.
//
// read_pid is the only read path: each tick the scheduler reads every due
// entity once, in entity order. What a read costs the simulated ALPS comes
// from the Table-1 cost model (core::CostModel), not from how fast a backend
// performs it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "alps/process_control.h"

namespace alps::core {

using HostPid = std::int64_t;
using HostUid = std::int64_t;

class ProcessHost {
public:
    virtual ~ProcessHost() = default;

    /// Cumulative CPU time + blocked/stopped flags for one process
    /// (getrusage + kvm wchan). `alive=false` if the pid no longer exists;
    /// `ok=false` if the read failed transiently (retryable).
    virtual Sample read_pid(HostPid pid) = 0;

    /// Only perfbench's TimedHost uses these; they go with it (ROADMAP item 6).
    [[nodiscard]] virtual bool supports_batch_read() const { return false; }
    virtual void read_pids(std::span<const HostPid> pids, Sample* out) {
        for (std::size_t i = 0; i < pids.size(); ++i) out[i] = read_pid(pids[i]);
    }

    /// SIGSTOP / SIGCONT. Both report delivery failures (lost pids, denied
    /// signals) instead of swallowing them.
    virtual ControlResult stop_pid(HostPid pid) = 0;
    virtual ControlResult cont_pid(HostPid pid) = 0;

    /// Live pids owned by a user (kvm_getprocs analogue), for group-principal
    /// membership refresh.
    virtual std::vector<HostPid> pids_of_user(HostUid uid) = 0;

    /// Allocation-free variant for periodic refresh loops: clears and refills
    /// `out`. Backends with a cheap path (the simulated kernel's per-uid
    /// cache) override this; the default simply wraps the allocating call.
    virtual void pids_of_user(HostUid uid, std::vector<HostPid>& out) {
        out = pids_of_user(uid);
    }

    /// The scan group principals use: fills `out` like the call above, and
    /// returns false when the process table itself could not be read, in
    /// which case `out` says nothing about who the uid runs. Only the real
    /// backend's scan can fail; the default never does.
    virtual bool scan_user(HostUid uid, std::vector<HostPid>& out) {
        pids_of_user(uid, out);
        return true;
    }
};

/// The ordinary one-entity-per-process control: EntityId is the pid.
class PidProcessControl final : public ProcessControl {
public:
    explicit PidProcessControl(ProcessHost& host) : host_(host) {}

    Sample read_progress(EntityId id) override { return host_.read_pid(id); }
    ControlResult suspend(EntityId id) override { return host_.stop_pid(id); }
    ControlResult resume(EntityId id) override { return host_.cont_pid(id); }

private:
    ProcessHost& host_;
};

}  // namespace alps::core
