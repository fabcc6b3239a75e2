#include "harness/runner.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "harness/journal.h"
#include "harness/supervisor.h"
#include "harness/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace_file.h"
#include "util/assert.h"

namespace alps::harness {

namespace {

unsigned effective_jobs(unsigned requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// A whole-string unsigned number. strtoull alone would fold "abc" to 0,
/// wrap "-1" to 2^64 - 1, and stop quietly at "12abc".
bool parse_unsigned(const char* v, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(v, &end, 0);
    return std::isdigit(static_cast<unsigned char>(v[0])) != 0 && *end == '\0' &&
           errno != ERANGE;
}

/// Records per telemetry ring: ALPS_TRACE_CAPACITY, a positive count, or
/// 4M records (128 MiB, ~a full fig4 sweep). A malformed value throws.
std::size_t trace_ring_capacity() {
    const char* v = std::getenv("ALPS_TRACE_CAPACITY");
    if (v == nullptr) return std::size_t{1} << 22;
    std::uint64_t n = 0;
    if (!parse_unsigned(v, n) || n == 0 ||
        n > static_cast<std::uint64_t>(std::numeric_limits<std::size_t>::max())) {
        throw std::runtime_error(std::string("ALPS_TRACE_CAPACITY: not a positive "
                                             "record count: ") +
                                 v);
    }
    return static_cast<std::size_t>(n);
}

/// Serialized progress/ETA line, overwritten in place on a terminal-ish
/// stream. Called from worker threads under its own mutex.
class ProgressMeter {
public:
    ProgressMeter(std::ostream* out, std::size_t total, std::string label)
        : out_(out), total_(total), label_(std::move(label)),
          start_(std::chrono::steady_clock::now()) {}

    void task_done() {
        if (out_ == nullptr) return;
        std::scoped_lock lock(mu_);
        ++done_;
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                .count();
        const double eta =
            done_ == 0 ? 0.0
                       : elapsed * static_cast<double>(total_ - done_) /
                             static_cast<double>(done_);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\r[%zu/%zu] %s  elapsed %.1fs  eta %.1fs   ", done_, total_,
                      label_.c_str(), elapsed, eta);
        *out_ << buf << std::flush;
        if (done_ == total_) *out_ << "\n";
    }

private:
    std::ostream* out_;
    std::size_t total_;
    std::string label_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::size_t done_ = 0;
};

}  // namespace

std::string current_git_sha() {
    FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (pipe == nullptr) return "unknown";
    char buf[64] = {};
    std::string sha;
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    ::pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

SweepReport run_sweep(const Experiment& experiment, const SweepOptions& raw_options,
                      std::ostream* progress) {
    const auto t0 = std::chrono::steady_clock::now();

    // ---- option normalization. The watchdog needs a killable process, so a
    // deadline implies isolation; tracing needs the task's telemetry rings in
    // *this* process, so it wins over isolation; --resume implies --journal;
    // --only-task is repro mode (one task, original index/seed, no journal).
    SweepOptions options = raw_options;
    if (options.run_timeout_s > 0.0) options.isolate = true;
    const bool tracing = !options.trace_path.empty();
    if (tracing && options.isolate) {
        std::cerr << "warning: --trace runs tasks in-process; isolation and the "
                     "watchdog are disabled for this sweep\n";
        options.isolate = false;
        options.run_timeout_s = 0.0;
    }
    if (options.resume) options.journal = true;
    if (options.only_task >= 0) {
        options.journal = false;
        options.resume = false;
    }

    const std::size_t ring_capacity = trace_ring_capacity();
    std::vector<Task> tasks = experiment.make_tasks(options);
    ALPS_EXPECT(!tasks.empty());

    // The slots this sweep actually covers, as *original* sweep indices —
    // --only-task keeps its task's index and therefore its derived seed, so
    // a repro run replays the exact same pure function.
    std::vector<std::size_t> selected;
    if (options.only_task >= 0) {
        if (static_cast<std::size_t>(options.only_task) >= tasks.size()) {
            throw std::runtime_error("--only-task " + std::to_string(options.only_task) +
                                     " out of range (sweep has " +
                                     std::to_string(tasks.size()) + " tasks)");
        }
        selected.push_back(static_cast<std::size_t>(options.only_task));
    } else {
        selected.resize(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i) selected[i] = i;
    }

    SweepReport report;
    report.experiment = experiment.name;
    report.seed = options.seed;
    report.full_scale = options.full_scale;
    // Tracing forces a single worker: per-thread rings and emission order
    // would otherwise interleave nondeterministically, and the acceptance
    // bar is that two same-seed traced runs diff clean.
    report.jobs = tracing ? 1 : effective_jobs(options.jobs);
    report.tasks.resize(selected.size());

    telemetry::MetricsRegistry metrics;
    telemetry::Session session({.ring_capacity = ring_capacity});
    if (tracing) telemetry::attach(session);

    // ---- journal: load (resume) and open for appending.
    SweepJournal journal;
    std::map<std::uint64_t, TaskOutcome> resumed;
    if (options.journal) {
        const std::string jdir = options.out_dir.empty() ? "." : options.out_dir;
        const std::string jpath = SweepJournal::path_for(jdir, experiment.name);
        JournalHeader header;
        header.experiment = experiment.name;
        header.seed = options.seed;
        header.full_scale = options.full_scale;
        header.kernel_policy = options.kernel_policy;
        header.task_count = tasks.size();
        std::size_t keep_bytes = 0;
        if (options.resume) {
            LoadedJournal loaded = SweepJournal::load(jpath);
            if (loaded.found) {
                if (!loaded.header.matches(header)) {
                    throw std::runtime_error(
                        "journal: " + jpath +
                        " belongs to a different sweep (experiment/seed/scale/"
                        "policy/task-count mismatch); delete it or drop --resume");
                }
                // The header cannot tell grids of equal size apart (--ncpus 16
                // vs 64): every recorded outcome must be the task its index
                // names in this sweep.
                for (const auto& [index, outcome] : loaded.outcomes) {
                    if (index >= tasks.size() || outcome.point != tasks[index].point ||
                        outcome.rep != tasks[index].rep ||
                        outcome.params != tasks[index].params) {
                        throw std::runtime_error(
                            "journal: " + jpath + " records task " +
                            std::to_string(index) + " as " + outcome.point + " rep " +
                            std::to_string(outcome.rep) +
                            ", which is not this sweep's task; delete it or drop "
                            "--resume");
                    }
                }
                if (loaded.discarded_bytes > 0) {
                    std::cerr << "journal: discarded " << loaded.discarded_bytes
                              << " invalid trailing byte(s) of " << jpath
                              << "; affected tasks re-run\n";
                }
                resumed = std::move(loaded.outcomes);
                keep_bytes = loaded.valid_bytes;
            } else if (loaded.discarded_bytes > 0) {
                std::cerr << "journal: " << jpath
                          << " is unreadable; starting fresh\n";
            }
        }
        journal.open(jpath, header, keep_bytes);
    }

    // ---- supervision counters + supervisor. Registered up front (even at
    // zero) whenever supervision/journaling is on, so the telemetry section
    // always answers "did anything get retried?".
    if (options.isolate || options.journal) {
        metrics.counter("harness.runs_retried");
        metrics.counter("harness.runs_quarantined");
        metrics.counter("harness.watchdog_kills");
        metrics.counter("harness.journal_resumes");
    }
    SupervisorConfig scfg;
    scfg.isolate = options.isolate;
    scfg.run_timeout_s = options.run_timeout_s;
    scfg.max_attempts = options.max_attempts;
    scfg.forensics_dir = options.out_dir.empty()
                             ? std::string("forensics")
                             : options.out_dir + "/forensics";
    ReproInfo repro;
    repro.experiment = experiment.name;
    repro.seed = options.seed;
    repro.full_scale = options.full_scale;
    repro.kernel_policy = options.kernel_policy;
    const RunSupervisor supervisor(scfg, repro, &metrics);

    ProgressMeter meter(options.quiet ? nullptr : progress, selected.size(),
                        experiment.name);
    {
        ThreadPool pool(report.jobs);
        for (std::size_t slot = 0; slot < selected.size(); ++slot) {
            const std::size_t orig = selected[slot];
            // Journal replay: a completed outcome round-trips bit-exactly, so
            // filling the slot is equivalent to re-running the (pure) task.
            const auto it = resumed.find(orig);
            if (it != resumed.end()) {
                report.tasks[slot] = it->second;
                metrics.counter("harness.journal_resumes").add(1);
                meter.task_done();
                continue;
            }
            // Each worker writes only to its own pre-sized slot; the vector is
            // never resized while the pool runs.
            pool.submit([&, slot, orig, tracing] {
                const Task& task = tasks[orig];
                TaskContext ctx;
                ctx.index = orig;
                ctx.seed = derive_task_seed(options.seed, orig);
                ctx.full_scale = options.full_scale;
                ctx.metrics = &metrics;
                if (tracing) {
                    telemetry::set_scope(static_cast<std::uint32_t>(orig));
                }
                const auto task_t0 = std::chrono::steady_clock::now();
                report.tasks[slot] = supervisor.run(task, ctx);
                const auto task_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - task_t0);
                metrics.histogram("harness.task_wall_us")
                    .record(static_cast<std::uint64_t>(task_us.count()));
                if (journal.is_open()) journal.append(orig, report.tasks[slot]);
                meter.task_done();
            });
        }
        pool.wait_idle();
        pool.export_metrics(metrics, "harness.pool.");
    }
    journal.close();

    if (tracing) {
        // The pool has joined, so every producer is quiescent; drain after
        // detach is the recorder's documented consumption contract.
        telemetry::detach();
        telemetry::TraceFile trace;
        trace.names = session.names();
        trace.dropped_records = session.dropped();
        trace.records = session.drain();
        metrics.counter("harness.trace_records").add(trace.records.size());
        metrics.counter("harness.trace_dropped_records").add(trace.dropped_records);
        try {
            telemetry::write_trace_file(options.trace_path, trace);
        } catch (const std::exception& e) {
            std::cerr << "warning: trace not written: " << e.what() << "\n";
        }
    }

    aggregate_points(report);
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    report.git_sha = current_git_sha();
    if (!metrics.empty()) report.telemetry = metrics.to_json();
    return report;
}

bool parse_sweep_args(int argc, char** argv, SweepOptions& options) {
    const auto usage = [&] {
        std::cerr << "usage: " << argv[0]
                  << " [--jobs N] [--seed S] [--full] [--out DIR] [--no-json]"
                     " [--quiet] [--trace FILE.alpstrace] [--kernel-policy NAME]"
                     " [--ncpus N] [--sites N] [--flash-crowd X]"
                     " [--isolate] [--run-timeout SECONDS]"
                     " [--max-attempts N] [--journal] [--resume]"
                     " [--only-task INDEX] [--json-payload-only]\n";
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Value parsers for flags that take one: each consumes the next
        // argument and returns false (after saying why) when it is missing or
        // malformed.
        const auto text = [&](std::string& out) {
            if (i + 1 >= argc) return false;
            out = argv[++i];
            return true;
        };
        // A whole-string unsigned number in [`min`, the option type's max]
        // ("abc" is not 0, the hardware-concurrency default, and the cast
        // must not truncate 4294967297 to 1).
        const auto count = [&](auto& out, std::uint64_t min = 0) {
            using T = std::remove_reference_t<decltype(out)>;
            if (i + 1 >= argc) return false;
            const char* v = argv[++i];
            std::uint64_t n = 0;
            if (!parse_unsigned(v, n)) {
                std::cerr << arg << ": not a non-negative integer: " << v << "\n";
                return false;
            }
            if (n < min || n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
                std::cerr << arg << ": out of range: " << v << "\n";
                return false;
            }
            out = static_cast<T>(n);
            return true;
        };
        // A finite number >= 0: strtod also reads "nan" and "inf", and NaN
        // passes every `< 0` test (a NaN --run-timeout disarms the watchdog).
        const auto non_negative = [&](double& out) {
            if (i + 1 >= argc) return false;
            const char* v = argv[++i];
            char* end = nullptr;
            out = std::strtod(v, &end);
            if (end == v || *end != '\0' || !std::isfinite(out) || out < 0.0) {
                std::cerr << arg << ": not a finite non-negative number: " << v << "\n";
                return false;
            }
            return true;
        };
        bool ok = true;
        if (arg == "--jobs") {
            ok = count(options.jobs);
        } else if (arg == "--seed") {
            ok = count(options.seed);
        } else if (arg == "--full") {
            options.full_scale = true;
        } else if (arg == "--out") {
            ok = text(options.out_dir);
        } else if (arg == "--no-json") {
            options.out_dir.clear();
        } else if (arg == "--trace") {
            ok = text(options.trace_path);
        } else if (arg == "--kernel-policy") {
            ok = text(options.kernel_policy);
        } else if (arg == "--ncpus") {
            ok = count(options.ncpus, 1);
        } else if (arg == "--sites") {
            ok = count(options.sites, 1);
        } else if (arg == "--flash-crowd") {
            ok = non_negative(options.flash_crowd);
        } else if (arg == "--isolate") {
            options.isolate = true;
        } else if (arg == "--run-timeout") {
            ok = non_negative(options.run_timeout_s);
        } else if (arg == "--max-attempts") {
            ok = count(options.max_attempts, 1);
        } else if (arg == "--journal") {
            options.journal = true;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--only-task") {
            ok = count(options.only_task);
        } else if (arg == "--json-payload-only") {
            options.json_payload_only = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            ok = false;
        }
        if (!ok) return usage();
    }
    return true;
}

int run_and_report(std::string_view name, const SweepOptions& options) {
    const Experiment* experiment = ExperimentRegistry::instance().find(name);
    if (experiment == nullptr) {
        std::cerr << "unknown experiment: " << name << " (try --list)\n";
        return 2;
    }
    SweepReport report;
    try {
        report = run_sweep(*experiment, options, &std::cerr);
    } catch (const std::runtime_error& e) {
        // Setup problems (bad --only-task, unusable journal), not task
        // failures — those are classified into the report.
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    const bool repro_mode = options.only_task >= 0;
    if (repro_mode) {
        // Presentation and evaluation expect the full grid; a single
        // replayed task just reports what it did.
        for (const TaskOutcome& t : report.tasks) {
            std::cout << "task " << options.only_task << " (" << t.point << " rep "
                      << t.rep << "): " << t.disposition << " after " << t.attempts
                      << " attempt(s)" << (t.ok ? "" : ": " + t.error) << "\n";
        }
    } else {
        if (experiment->present) experiment->present(report, std::cout);
        if (experiment->evaluate) experiment->evaluate(report, std::cout);
    }
    const int failures =
        report.failed_checks() +
        (experiment->tolerate_task_errors ? 0 : report.task_errors);
    if (!options.out_dir.empty()) {
        const std::string path =
            write_json_report(report, options.out_dir, !options.json_payload_only);
        if (!path.empty()) {
            std::cout << "(json written to " << path << ")\n";
        }
    }
    for (const TaskOutcome& t : report.tasks) {
        if (!t.ok) std::cerr << "task failed: " << t.point << ": " << t.error << "\n";
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace alps::harness
