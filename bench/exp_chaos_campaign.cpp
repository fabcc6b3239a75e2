// Chaos campaign: fault injection aimed at the harness itself.
//
// Where fault_campaign injects faults into the *scheduler's control channel*,
// this experiment injects faults into the *sweep's own runs* — tasks that
// abort(), wedge forever, or throw — to exercise the RunSupervisor end to
// end: crash classification, watchdog kills, retry-then-quarantine, and the
// guarantee that one dying task never poisons its siblings.
//
// The faulty behaviours key off the ALPS_HARNESS_ATTEMPT / _ISOLATED
// environment contract, which the supervisor sets only inside forked worker
// processes. Run without --isolate, every task is a clean deterministic
// computation — which is exactly what the kill-9/resume CI leg wants when it
// byte-compares an interrupted-and-resumed sweep against a clean baseline
// (only bad_input still fails, identically on both paths).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "telemetry/events.h"
#include "telemetry/recorder.h"
#include "util/rng.h"
#include "util/table.h"

namespace alps::bench {
namespace {

/// The supervisor's attempt counter (0-based), or -1 when this process is
/// not a supervised worker — the signal faulty modes use to stay harmless
/// in unsupervised sweeps.
int attempt_from_env() {
    const char* attempt = std::getenv("ALPS_HARNESS_ATTEMPT");
    if (attempt == nullptr || std::getenv("ALPS_HARNESS_ISOLATED") == nullptr) {
        return -1;
    }
    return std::atoi(attempt);
}

/// Deterministic busy-work: enough CPU per task (~0.1-0.3 s) that a parallel
/// sweep is killable mid-flight by the CI chaos leg, plus telemetry traffic
/// so a crashed worker's flight-recorder dump has content. Returns a
/// checksum that is a pure function of the seed.
double busy_work(std::uint64_t seed, bool full_scale) {
    util::Rng rng(seed);
    const int rounds = full_scale ? 400 : 100;
    std::uint64_t acc = 0;
    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < 1'000'000; ++i) acc += rng.next_u64() >> 32;
        if (telemetry::active()) {
            telemetry::set_now_ns(static_cast<std::uint64_t>(round) * 1000);
            telemetry::counter(telemetry::kNameCycle, 0, acc & 0xffff);
        }
    }
    return static_cast<double>(acc % 1'000'003);
}

struct Mode {
    const char* name;
    int reps;
};

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    const bool supervised = options.isolate;
    const bool watchdog = options.isolate && options.run_timeout_s > 0.0;
    std::vector<Mode> modes = {{"clean", 6},
                               {"flaky_crash", 2},
                               {"crash_loop", 2},
                               {"bad_input", 2}};
    // A stall is only recoverable when a watchdog exists to kill it; an
    // unsupervised or deadline-less sweep would hang forever, so the grid
    // includes it only when the kill path is armed.
    if (watchdog) modes.push_back({"flaky_stall", 2});

    std::vector<harness::Task> tasks;
    for (const Mode& mode : modes) {
        const std::string name = mode.name;
        for (int rep = 0; rep < mode.reps; ++rep) {
            harness::Task task;
            task.point = name;
            task.rep = rep;
            task.params = {{"mode", name}, {"supervised", supervised ? "1" : "0"}};
            task.fn = [name](const harness::TaskContext& ctx) {
                const int attempt = attempt_from_env();
                if (name == "flaky_crash" && attempt == 0) {
                    // Work first, then die: the flight-recorder dump should
                    // hold the telemetry trail leading up to the crash.
                    busy_work(ctx.seed, false);
                    std::abort();  // transient: the retry succeeds
                }
                if (name == "crash_loop" && attempt >= 0) {
                    busy_work(ctx.seed, false);
                    std::abort();  // every attempt dies -> quarantine
                }
                if (name == "flaky_stall" && attempt == 0) {
                    // Wedge until the watchdog's SIGKILL; chunked so the
                    // process stays interruptible for debuggers.
                    for (int i = 0; i < 36'000; ++i) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(100));
                    }
                }
                if (name == "bad_input") {
                    // Deterministic failure: retrying a pure function cannot
                    // help, so the supervisor must quarantine on attempt 1.
                    throw std::invalid_argument("chaos: deterministic bad input");
                }
                return harness::Result{}
                    .metric("work_checksum", busy_work(ctx.seed, ctx.full_scale))
                    .metric("attempt_seen", static_cast<double>(attempt));
            };
            tasks.push_back(std::move(task));
        }
    }
    return tasks;
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nChaos campaign: harness behaviour under run-level fault injection\n";
    util::TextTable t({"Mode", "Tasks", "Completed", "Quarantined", "Max attempts"});
    std::vector<std::string> seen;
    for (const harness::TaskOutcome& task : report.tasks) {
        bool found = false;
        for (const std::string& s : seen) found = found || s == task.point;
        if (found) continue;
        seen.push_back(task.point);
        int total = 0;
        int completed = 0;
        int quarantined = 0;
        int max_attempts = 0;
        for (const harness::TaskOutcome& u : report.tasks) {
            if (u.point != task.point) continue;
            ++total;
            if (u.ok) ++completed; else ++quarantined;
            max_attempts = std::max(max_attempts, u.attempts);
        }
        t.add_row({task.point, std::to_string(total), std::to_string(completed),
                   std::to_string(quarantined), std::to_string(max_attempts)});
    }
    t.print(out);
    out << "\nFaulty modes misbehave only under --isolate (the supervisor's\n"
           "worker-process environment contract); quarantined tasks are the\n"
           "expected output here, not a sweep failure.\n";
}

void evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report);

    bool supervised = false;
    for (const harness::TaskOutcome& t : report.tasks) {
        for (const auto& [k, v] : t.params) {
            if (k == "supervised" && v == "1") supervised = true;
        }
    }

    const auto count_if = [&](const std::string& point, auto pred) {
        int n = 0;
        for (const harness::TaskOutcome& t : report.tasks) {
            if (t.point == point && pred(t)) ++n;
        }
        return n;
    };
    const auto total = [&](const std::string& point) {
        return count_if(point, [](const harness::TaskOutcome&) { return true; });
    };

    // Always true, supervised or not: clean tasks complete, deterministic
    // failures quarantine on the first attempt without retries.
    const int clean_total = total("clean");
    const int clean_ok =
        count_if("clean", [](const harness::TaskOutcome& t) { return t.ok; });
    criteria.check("clean tasks complete", std::to_string(clean_total),
                   std::to_string(clean_ok), clean_ok == clean_total);
    const int bad_total = total("bad_input");
    const int bad_quarantined = count_if("bad_input", [](const harness::TaskOutcome& t) {
        return !t.ok && t.disposition == "failed" && t.attempts == 1;
    });
    criteria.check("deterministic failures quarantined without retry",
                   std::to_string(bad_total), std::to_string(bad_quarantined),
                   bad_quarantined == bad_total);

    if (supervised) {
        const int flaky_total = total("flaky_crash");
        const int flaky_recovered =
            count_if("flaky_crash", [](const harness::TaskOutcome& t) {
                return t.ok && t.attempts == 2 && t.disposition == "ok";
            });
        criteria.check("transient crashes recovered on retry 2",
                       std::to_string(flaky_total), std::to_string(flaky_recovered),
                       flaky_recovered == flaky_total);

        const int loop_total = total("crash_loop");
        const int loop_quarantined =
            count_if("crash_loop", [](const harness::TaskOutcome& t) {
                return !t.ok && t.disposition == "crashed" && t.attempts > 1;
            });
        criteria.check("persistent crashes quarantined after retries",
                       std::to_string(loop_total), std::to_string(loop_quarantined),
                       loop_quarantined == loop_total);

        const int stall_total = total("flaky_stall");
        const int stall_recovered =
            count_if("flaky_stall", [](const harness::TaskOutcome& t) {
                return t.ok && t.attempts == 2;
            });
        if (stall_total > 0) {
            criteria.check("watchdog-killed stalls recovered on retry",
                           std::to_string(stall_total), std::to_string(stall_recovered),
                           stall_recovered == stall_total);
        }
    }

    const int failed = criteria.print(out);
    out << (failed == 0
                ? "\nSUPERVISION POLICY HOLDS (0 failing criteria)\n"
                : "\nSUPERVISION POLICY VIOLATED (" + std::to_string(failed) +
                      " failing criteria)\n");
}

}  // namespace

void register_chaos_campaign_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "chaos_campaign",
        .description =
            "Robustness: the sweep harness itself under crashing/stalling tasks",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
        // Quarantined tasks are this experiment's subject matter, not a
        // failure: only the evaluate() criteria decide the exit code.
        .tolerate_task_errors = true,
    });
}

}  // namespace alps::bench
