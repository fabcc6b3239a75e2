#include "posix/host.h"

#include <dirent.h>
#include <errno.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "posix/proc_stat.h"

namespace alps::posix {

namespace {

// Raw syscalls: glibc's <sys/pidfd.h> wrappers are missing before 2.36 and
// lack C linkage in 2.36 itself.

int pidfd_open(pid_t pid) {
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

/// errno of pidfd_send_signal, or 0 if it succeeded.
int send_signal(int pidfd, int sig) {
    return ::syscall(SYS_pidfd_send_signal, pidfd, sig, nullptr, 0) == 0 ? 0 : errno;
}

}  // namespace

PosixProcessHost::~PosixProcessHost() {
    for (const Handle& h : handles_) close_fds(h);
}

PosixProcessHost::Open PosixProcessHost::acquire(core::HostPid pid, Handle*& out) {
    out = nullptr;
    const auto it = std::lower_bound(handles_.begin(), handles_.end(), pid,
                                     [](const Handle& h, core::HostPid p) { return h.pid < p; });
    if (it != handles_.end() && it->pid == pid) {
        out = &*it;
        return Open::kOk;
    }
    if (pid <= 0 || pid > std::numeric_limits<pid_t>::max()) return Open::kGone;

    // Open the pidfd first, then the files, then check the pidfd's process
    // is still there: if it is, it held the pid throughout, so the files
    // name that same process.
    Handle h{static_cast<pid_t>(pid), -1, -1, -1};
    h.pidfd = pidfd_open(h.pid);
    if (h.pidfd < 0) return errno == ESRCH ? Open::kGone : Open::kTransient;
    int err = 0;
    h.stat_fd = open_proc_file(h.pid, "stat");
    if (h.stat_fd < 0) {
        err = errno;
    } else {
        h.schedstat_fd = open_proc_file(h.pid, "schedstat");
        if (h.schedstat_fd < 0 && errno != ENOENT) err = errno;
    }
    const bool gone = send_signal(h.pidfd, 0) == ESRCH;
    if (gone || err != 0) {
        close_fds(h);
        return gone ? Open::kGone : Open::kTransient;
    }
    out = &*handles_.insert(it, h);
    return Open::kOk;
}

void PosixProcessHost::close_fds(const Handle& h) {
    for (const int fd : {h.pidfd, h.stat_fd, h.schedstat_fd}) {
        if (fd >= 0) ::close(fd);
    }
}

void PosixProcessHost::close_handle(Handle* h) {
    close_fds(*h);
    handles_.erase(handles_.begin() + (h - handles_.data()));
}

core::Sample PosixProcessHost::read_pid(core::HostPid pid) {
    core::Sample s;
    Handle* h = nullptr;
    switch (acquire(pid, h)) {
        case Open::kOk: break;
        case Open::kGone: s.alive = false; return s;
        case Open::kTransient: s.ok = false; return s;
    }
    // A pread that fails with ESRCH means the process has been reaped; any
    // other failure (or an unparsable line) is transient.
    const auto failed = [&] {
        if (errno == ESRCH) {
            close_handle(h);
            s.alive = false;
        } else {
            s.ok = false;
        }
        return s;
    };
    char buf[kProcBufBytes];
    const auto stat_line = pread_file(h->stat_fd, buf);
    if (!stat_line) return failed();
    const auto stat = parse_proc_stat(*stat_line);
    if (!stat) {
        s.ok = false;
        return s;
    }
    if (state_is_dead(stat->state)) {
        close_handle(h);
        s.alive = false;
        return s;
    }
    s.alive = true;
    s.blocked = state_is_blocked(stat->state);
    s.stopped = stat->state == 'T' || stat->state == 't';
    // Prefer the nanosecond-precise schedstat; a kernel without schedstats
    // only has the clock-tick utime+stime (10 ms granularity).
    if (h->schedstat_fd < 0) {
        s.cpu_time = ticks_to_duration(stat->utime_ticks + stat->stime_ticks);
        return s;
    }
    const auto sched_line = pread_file(h->schedstat_fd, buf);
    if (!sched_line) return failed();
    const auto ns = parse_schedstat(*sched_line);
    if (!ns) {
        s.ok = false;
        return s;
    }
    s.cpu_time = *ns;
    return s;
}

core::ControlResult PosixProcessHost::signal(core::HostPid pid, int sig) {
    Handle* h = nullptr;
    switch (acquire(pid, h)) {
        case Open::kOk: break;
        case Open::kGone: return core::ControlResult::kGone;
        case Open::kTransient: return core::ControlResult::kTransient;
    }
    switch (send_signal(h->pidfd, sig)) {
        case 0: return core::ControlResult::kOk;
        case ESRCH: close_handle(h); return core::ControlResult::kGone;
        case EPERM: return core::ControlResult::kDenied;
        default: return core::ControlResult::kTransient;  // EINTR, EAGAIN, ...
    }
}

core::ControlResult PosixProcessHost::stop_pid(core::HostPid pid) { return signal(pid, SIGSTOP); }

core::ControlResult PosixProcessHost::cont_pid(core::HostPid pid) { return signal(pid, SIGCONT); }

void PosixProcessHost::close_exited(const std::vector<core::HostPid>& listed) {
    // A pidfd polls readable once its process has exited. An exited
    // process whose pid is still listed is a zombie, or its pid was reused:
    // that handle stays until a read or signal reports the process gone,
    // so the report is not lost.
    poll_scratch_.clear();
    for (const Handle& h : handles_) poll_scratch_.push_back({h.pidfd, POLLIN, 0});
    if (::poll(poll_scratch_.data(), poll_scratch_.size(), 0) <= 0) return;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
        const Handle& h = handles_[i];
        if (poll_scratch_[i].revents != 0 &&
            std::find(listed.begin(), listed.end(), h.pid) == listed.end()) {
            close_fds(h);
        } else {
            handles_[kept++] = h;
        }
    }
    handles_.resize(kept);
}

std::vector<core::HostPid> PosixProcessHost::pids_of_user(core::HostUid uid) {
    std::vector<core::HostPid> out;
    pids_of_user(uid, out);
    return out;
}

void PosixProcessHost::pids_of_user(core::HostUid uid, std::vector<core::HostPid>& out) {
    scan_user(uid, out);
}

bool PosixProcessHost::scan_user(core::HostUid uid, std::vector<core::HostPid>& out) {
    out.clear();
    DIR* dir = ::opendir("/proc");
    if (dir == nullptr) return false;  // e.g. out of file descriptors
    const int dir_fd = ::dirfd(dir);
    bool ok = true;
    while (true) {
        errno = 0;
        const dirent* entry = ::readdir(dir);
        if (entry == nullptr) {
            ok = errno == 0;
            break;
        }
        const char* name = entry->d_name;
        char* end = nullptr;
        const long pid = std::strtol(name, &end, 10);
        if (end == name || *end != '\0' || pid <= 0) continue;
        struct stat st{};
        if (::fstatat(dir_fd, name, &st, 0) != 0) {
            if (errno == ENOENT) continue;  // exited since readdir listed it
            ok = false;
            break;
        }
        if (static_cast<core::HostUid>(st.st_uid) == uid) out.push_back(pid);
    }
    ::closedir(dir);
    // An incomplete list must not close the handles of listed zombies.
    if (ok) close_exited(out);
    return ok;
}

}  // namespace alps::posix
