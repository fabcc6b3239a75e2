#include "harness/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "harness/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace_file.h"

namespace alps::harness {

namespace {

/// Retry backoff: initial delay, doubling per retry, capped.
constexpr int kBackoffInitialMs = 10;
constexpr int kBackoffMaxMs = 250;
/// Flight-recorder ring capacity per worker thread: the newest N telemetry
/// records survive into the crash dump.
constexpr std::size_t kTraceTailRecords = 65536;

/// How a single execution ended.
enum class RunClass {
    kOk,        ///< result frame received, task succeeded
    kFailed,    ///< result frame received, task threw (deterministic)
    kCrashed,   ///< worker died (signal / bad exit / torn protocol)
    kTimedOut,  ///< watchdog SIGKILLed the worker at the deadline
};

// ---------------------------------------------------------- child crash dump
//
// Installed in the forked worker only. On a fatal signal it dumps the tail
// of the worker's telemetry rings to a .alpstrace, then re-raises with the
// default disposition so the parent still sees the real signal. The dump
// path lives in static storage (no allocation on the signal path to find
// it); alarm() bounds a dump that itself wedges. Strict async-signal-safety
// is deliberately traded away here: the child is freshly forked and
// effectively single-threaded, and try_snapshot_tail refuses rather than
// deadlocks if the session mutex was mid-flight at crash time.

struct ChildCrashState {
    volatile std::sig_atomic_t armed = 0;
    char trace_path[512] = {};
    std::size_t tail_records = 0;
};
ChildCrashState g_child_crash;

constexpr int kCrashSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};

extern "C" void alps_child_crash_handler(int sig) {
    if (g_child_crash.armed != 0) {
        g_child_crash.armed = 0;
        ::alarm(5);  // if the dump wedges, SIGALRM (default: terminate) ends it
        alps::telemetry::dump_attached_session_tail(g_child_crash.trace_path,
                                                    g_child_crash.tail_records);
    }
    std::signal(sig, SIG_DFL);
    ::raise(sig);
}

void arm_child_crash_dump(const std::string& trace_path, std::size_t tail_records) {
    std::snprintf(g_child_crash.trace_path, sizeof g_child_crash.trace_path, "%s",
                  trace_path.c_str());
    g_child_crash.tail_records = tail_records;
    for (const int sig : kCrashSignals) std::signal(sig, alps_child_crash_handler);
    g_child_crash.armed = 1;
}

// --------------------------------------------------------------- I/O helpers

bool write_all_fd(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/// Pulls everything currently readable from a nonblocking fd into `buf`.
/// Returns false once the peer has closed every write end (EOF).
bool drain_fd(int fd, std::string& buf) {
    char tmp[4096];
    for (;;) {
        const ssize_t r = ::read(fd, tmp, sizeof tmp);
        if (r > 0) {
            buf.append(tmp, static_cast<std::size_t>(r));
            continue;
        }
        if (r == 0) return false;  // true EOF
        if (errno == EINTR) continue;
        return true;  // EAGAIN: nothing more right now
    }
}

std::string format_seconds(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", s);
    return buf;
}

std::string describe_wait_status(int wstatus) {
    if (WIFSIGNALED(wstatus)) {
        return "signal " + std::to_string(WTERMSIG(wstatus));
    }
    if (WIFEXITED(wstatus)) {
        return "exit code " + std::to_string(WEXITSTATUS(wstatus));
    }
    return "unknown wait status " + std::to_string(wstatus);
}

/// Serializes forensics bundles from concurrent sweep workers.
std::mutex g_forensics_mu;

}  // namespace

/// One execution's classified result.
struct RunSupervisor::Attempt {
    RunClass cls = RunClass::kCrashed;
    TaskOutcome outcome;     ///< meaningful for kOk / kFailed
    std::string detail;      ///< crash/timeout description ("signal 6", ...)
    std::string trace_path;  ///< flight-recorder dump that exists on disk; "" = none
};

RunSupervisor::RunSupervisor(SupervisorConfig cfg, ReproInfo repro,
                             telemetry::MetricsRegistry* metrics,
                             std::ostream* forensics_out)
    : cfg_(std::move(cfg)),
      repro_(std::move(repro)),
      metrics_(metrics),
      forensics_out_(forensics_out != nullptr ? forensics_out : &std::cerr) {
    if (cfg_.max_attempts < 1) cfg_.max_attempts = 1;
    if (cfg_.isolate && !cfg_.forensics_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.forensics_dir, ec);
        if (ec) cfg_.forensics_dir.clear();  // dumps off; bundles still print
    }
}

void RunSupervisor::bump(const char* counter) const {
    if (metrics_ != nullptr) metrics_->counter(counter).add(1);
}

std::string RunSupervisor::trace_path_for(std::size_t index, int attempt) const {
    if (cfg_.forensics_dir.empty()) return "";
    return (std::filesystem::path(cfg_.forensics_dir) /
            (repro_.experiment + "_task" + std::to_string(index) + "_attempt" +
             std::to_string(attempt) + ".alpstrace"))
        .string();
}

std::string RunSupervisor::repro_command(std::size_t task_index) const {
    std::string cmd = "alps-sweep --experiment " + repro_.experiment + " --seed " +
                      std::to_string(repro_.seed) + " --only-task " +
                      std::to_string(task_index) + " --isolate --max-attempts 1";
    if (cfg_.run_timeout_s > 0.0) {
        cmd += " --run-timeout " + format_seconds(cfg_.run_timeout_s);
    }
    if (repro_.full_scale) cmd += " --full";
    if (!repro_.kernel_policy.empty()) cmd += " --kernel-policy " + repro_.kernel_policy;
    return cmd;
}

RunSupervisor::Attempt RunSupervisor::run_inline(const Task& task,
                                                 const TaskContext& ctx) const {
    Attempt a;
    a.outcome.point = task.point;
    a.outcome.rep = task.rep;
    a.outcome.params = task.params;
    try {
        a.outcome.result = task.fn(ctx);
        a.cls = RunClass::kOk;
    } catch (const std::exception& e) {
        a.outcome.ok = false;
        a.outcome.error = e.what();
        a.cls = RunClass::kFailed;
    } catch (...) {
        a.outcome.ok = false;
        a.outcome.error = "unknown exception";
        a.cls = RunClass::kFailed;
    }
    return a;
}

RunSupervisor::Attempt RunSupervisor::run_isolated(const Task& task,
                                                   const TaskContext& ctx,
                                                   int attempt) const {
    Attempt a;
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        a.cls = RunClass::kCrashed;
        a.detail = std::string("pipe failed: ") + std::strerror(errno);
        return a;
    }

    const std::string trace_path = trace_path_for(ctx.index, attempt);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        a.cls = RunClass::kCrashed;
        a.detail = std::string("fork failed: ") + std::strerror(errno);
        return a;
    }

    if (pid == 0) {
        // ---- worker child. Parent state (pool, meter, journal, metrics
        // mutexes) is off-limits: run the task against fresh per-process
        // telemetry, write exactly one frame, _exit. _exit (not exit) skips
        // atexit/static destructors the parent owns — and LSan teardown.
        ::close(fds[0]);
        char attempt_env[16];
        std::snprintf(attempt_env, sizeof attempt_env, "%d", attempt - 1);
        ::setenv("ALPS_HARNESS_ATTEMPT", attempt_env, 1);
        ::setenv("ALPS_HARNESS_ISOLATED", "1", 1);

        telemetry::MetricsRegistry child_metrics;  // parent's may be mid-mutation
        TaskContext child_ctx = ctx;
        child_ctx.metrics = &child_metrics;

        // Flight recorder: a wrap-mode session so the newest records survive
        // into a crash dump. Skipped if a session is somehow already attached
        // (tracing disables isolation, so this is belt-and-braces).
        telemetry::SessionConfig scfg;
        scfg.ring_capacity = kTraceTailRecords;
        scfg.wrap = true;
        telemetry::Session flight(scfg);
        if (!telemetry::active() && !trace_path.empty()) {
            telemetry::attach(flight);
            telemetry::set_scope(static_cast<std::uint32_t>(ctx.index));
            arm_child_crash_dump(trace_path, kTraceTailRecords);
        }

        TaskOutcome out;
        out.point = task.point;
        out.rep = task.rep;
        out.params = task.params;
        try {
            out.result = task.fn(child_ctx);
        } catch (const std::exception& e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
        g_child_crash.armed = 0;

        std::string frame;
        wire::append_frame(frame, wire::encode_outcome(ctx.index, out));
        write_all_fd(fds[1], frame.data(), frame.size());
        ::_exit(0);
    }

    // ---- parent: collect the frame, reap, classify. The read end must not
    // rely on EOF — sibling workers forked later inherit this pipe's write
    // end, so it can stay open long after our child dies. Instead: poll for
    // bytes, watch the child via waitpid(WNOHANG), enforce the deadline on
    // the monotonic clock.
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

    using Clock = std::chrono::steady_clock;
    const bool has_deadline = cfg_.run_timeout_s > 0.0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg_.run_timeout_s));

    std::string buf;
    std::string payload_copy;
    bool have_frame = false;
    bool corrupt = false;
    bool exited = false;
    bool timed_out = false;
    int wstatus = 0;

    for (;;) {
        drain_fd(fds[0], buf);
        std::string_view payload;
        std::size_t next = 0;
        const wire::FrameStatus st = wire::extract_frame(buf, 0, payload, next);
        if (st == wire::FrameStatus::kOk) {
            payload_copy.assign(payload.data(), payload.size());
            have_frame = true;
            break;
        }
        if (st == wire::FrameStatus::kCorrupt) {
            corrupt = true;
            break;
        }
        if (exited) break;  // child gone, buffer drained, frame incomplete
        if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
            exited = true;
            continue;  // one more drain pass for bytes that raced the exit
        }
        if (has_deadline && Clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            timed_out = true;
            break;
        }
        struct pollfd p = {fds[0], POLLIN, 0};
        ::poll(&p, 1, 50);
    }
    ::close(fds[0]);
    if (!exited) {
        while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {}
    }

    if (timed_out) {
        a.cls = RunClass::kTimedOut;
        a.detail = "watchdog deadline " + format_seconds(cfg_.run_timeout_s) + "s";
    } else if (have_frame) {
        std::uint64_t echoed_index = 0;
        if (wire::decode_outcome(payload_copy, echoed_index, a.outcome) &&
            echoed_index == ctx.index) {
            a.cls = a.outcome.ok ? RunClass::kOk : RunClass::kFailed;
        } else {
            a.cls = RunClass::kCrashed;
            a.detail = "malformed result record";
        }
    } else {
        a.cls = RunClass::kCrashed;
        a.detail = corrupt ? "corrupt result frame" : describe_wait_status(wstatus);
    }

    if (a.cls == RunClass::kCrashed || a.cls == RunClass::kTimedOut) {
        std::error_code ec;
        if (!trace_path.empty() && std::filesystem::exists(trace_path, ec)) {
            a.trace_path = trace_path;
        }
    }
    return a;
}

void RunSupervisor::emit_forensics(const Attempt& attempt, const Task& task,
                                   std::size_t index, int attempt_no,
                                   bool quarantined) const {
    std::scoped_lock lock(g_forensics_mu);
    std::ostream& out = *forensics_out_;
    out << "=== run death: " << repro_.experiment << " task " << index << " ("
        << task.point << " rep " << task.rep << "), attempt " << attempt_no << "/"
        << cfg_.max_attempts << " ===\n";
    out << "  status: "
        << (attempt.cls == RunClass::kTimedOut ? "killed by watchdog after " +
                                                     format_seconds(cfg_.run_timeout_s) +
                                                     "s"
                                               : attempt.detail)
        << "\n";
    out << "  repro:  " << repro_command(index) << "\n";
    if (!attempt.trace_path.empty()) {
        out << "  trace:  " << attempt.trace_path << " (flight-recorder tail)\n";
    }
    if (quarantined) {
        out << "  action: quarantined after " << attempt_no
            << " attempt(s); sweep continues\n";
    } else {
        out << "  action: retrying\n";
    }
    out.flush();
}

TaskOutcome RunSupervisor::run(const Task& task, const TaskContext& ctx) const {
    int backoff_ms = kBackoffInitialMs;
    for (int attempt = 1;; ++attempt) {
        Attempt a = cfg_.isolate ? run_isolated(task, ctx, attempt)
                                 : run_inline(task, ctx);

        if (a.cls == RunClass::kOk || a.cls == RunClass::kFailed) {
            a.outcome.attempts = attempt;
            a.outcome.disposition = a.cls == RunClass::kOk ? "ok" : "failed";
            if (a.cls == RunClass::kFailed) bump("harness.runs_quarantined");
            return a.outcome;
        }

        if (a.cls == RunClass::kTimedOut) bump("harness.watchdog_kills");

        const bool out_of_attempts = attempt >= cfg_.max_attempts;
        emit_forensics(a, task, ctx.index, attempt, out_of_attempts);
        if (!out_of_attempts) {
            bump("harness.runs_retried");
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
            backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
            continue;
        }

        bump("harness.runs_quarantined");
        TaskOutcome out;
        out.point = task.point;
        out.rep = task.rep;
        out.params = task.params;
        out.ok = false;
        out.attempts = attempt;
        if (a.cls == RunClass::kTimedOut) {
            out.disposition = "timeout";
            out.error = "task exceeded " + format_seconds(cfg_.run_timeout_s) +
                        "s watchdog deadline on all " + std::to_string(attempt) +
                        " attempt(s)";
        } else {
            out.disposition = "crashed";
            out.error = "task crashed (" + a.detail + ") on all " +
                        std::to_string(attempt) + " attempt(s)";
        }
        return out;
    }
}

}  // namespace alps::harness
