// ProcessHost over a real Linux system: /proc for progress, signals for
// control. Everything here is doable by an unprivileged user on their own
// processes — the paper's deployment constraint.
//
// The host keeps one handle per pid it reads or signals: a pidfd plus
// close-on-exec fds for /proc/<pid>/stat and /proc/<pid>/schedstat, so 3
// fds per managed pid. A handle names a process, not a pid number: once
// that process is reaped its /proc fds read ESRCH and its pidfd signals
// nobody, so a recycled pid can be neither misread nor signalled. A read is
// two preads into a stack buffer, parsed in place. Requires Linux >= 5.3
// (pidfd_open).
//
// The channels are fallible and the host says so: ESRCH, or a zombie/dead
// state, means the process is gone (alive = false, kGone) and closes its
// handle; EPERM on a signal is kDenied; anything else, fd exhaustion
// (EMFILE/ENFILE) while opening a handle included, is transient (Sample::ok
// = false, kTransient) and signals nothing. SIGSTOP goes out only through a
// handle that stays open until its process dies, so a process this host
// stopped can always be resumed.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <vector>

#include "alps/host.h"

namespace alps::posix {

class PosixProcessHost final : public core::ProcessHost {
public:
    PosixProcessHost() = default;
    ~PosixProcessHost() override;
    PosixProcessHost(const PosixProcessHost&) = delete;
    PosixProcessHost& operator=(const PosixProcessHost&) = delete;

    core::Sample read_pid(core::HostPid pid) override;
    core::ControlResult stop_pid(core::HostPid pid) override;
    core::ControlResult cont_pid(core::HostPid pid) override;
    std::vector<core::HostPid> pids_of_user(core::HostUid uid) override;
    /// Also closes the handles of exited processes whose pid it does not
    /// list, so members that leave a group by dying do not keep their fds.
    void pids_of_user(core::HostUid uid, std::vector<core::HostPid>& out) override;
    /// Fails when /proc cannot be opened or read, or a listed pid's entry
    /// cannot be examined for a reason other than its exit.
    bool scan_user(core::HostUid uid, std::vector<core::HostPid>& out) override;

private:
    struct Handle {
        pid_t pid;
        int pidfd;
        int stat_fd;
        int schedstat_fd;  ///< -1 on a kernel without schedstats
    };
    enum class Open { kOk, kGone, kTransient };

    /// Finds the handle for `pid`, opening it on first use; `out` points to
    /// it on kOk and is nullptr otherwise.
    Open acquire(core::HostPid pid, Handle*& out);
    static void close_fds(const Handle& h);
    void close_handle(Handle* h);
    core::ControlResult signal(core::HostPid pid, int sig);
    void close_exited(const std::vector<core::HostPid>& listed);

    std::vector<Handle> handles_;  ///< sorted by pid
    std::vector<pollfd> poll_scratch_;
};

}  // namespace alps::posix
