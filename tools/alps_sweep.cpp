// alps-sweep — parallel experiment sweep runner.
//
//   alps-sweep --list
//   alps-sweep --list-policies
//   alps-sweep --experiment fig4 [--jobs N] [--seed S] [--full] [--out DIR]
//              [--no-json] [--quiet] [--kernel-policy NAME] [--ncpus N]
//              [--sites N] [--flash-crowd X]
//              [--isolate] [--run-timeout S] [--max-attempts N] [--journal]
//              [--resume] [--only-task I] [--json-payload-only]
//   alps-sweep --all [sweep flags]
//
// Runs registered experiments (see bench/experiments.h) across a thread pool
// and writes BENCH_<name>.json next to the paper-style text tables. Results
// are bit-identical for any --jobs value: every task derives its inputs from
// (sweep seed, task index) alone and the sink aggregates in task order; only
// the JSON's trailing "run" section (jobs, wall-clock, git sha) varies.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "os/policies/factory.h"

namespace {

void print_usage(std::ostream& out) {
    out << "usage: alps-sweep --experiment NAME [options]\n"
           "       alps-sweep --all [options]\n"
           "       alps-sweep --list\n"
           "       alps-sweep --list-policies\n"
           "options:\n"
           "  --jobs N     worker threads (default: hardware concurrency;\n"
           "               results are identical for every N)\n"
           "  --seed S     sweep seed; per-task seeds derive from (S, index)\n"
           "  --full       the paper's full-scale parameters\n"
           "  --out DIR    directory for BENCH_<name>.json (default: .)\n"
           "  --no-json    skip the JSON report\n"
           "  --quiet      no progress/ETA on stderr\n"
           "  --trace FILE record an .alpstrace of the sweep (forces --jobs 1\n"
           "               so same-seed traces are byte-identical; inspect\n"
           "               with alps-trace)\n"
           "  --kernel-policy NAME\n"
           "               kernel scheduling policy for experiments that honor\n"
           "               it (fig4: swaps the kernel under the whole figure;\n"
           "               policy_zoo: narrows the zoo to one row); see\n"
           "               --list-policies\n"
           "  --ncpus N    simulated core count for machine-size sweeps\n"
           "               (many_core, web_scale: runs only that grid column)\n"
           "  --sites N    hosted-site count for web_scale: runs only that\n"
           "               cluster size\n"
           "  --flash-crowd X\n"
           "               flash-crowd arrival multiplier for web_scale: runs\n"
           "               only points with that intensity (0 disables the\n"
           "               spike in the points it selects)\n"
           "supervision (see DESIGN.md §10):\n"
           "  --isolate    fork one worker process per task execution; crashes\n"
           "               and hangs are classified per task, retried, and\n"
           "               quarantined instead of killing the sweep\n"
           "  --run-timeout SECONDS\n"
           "               per-execution watchdog deadline (implies --isolate);\n"
           "               expiry SIGKILLs the worker and counts as a retry\n"
           "  --max-attempts N\n"
           "               executions per task before a crash/timeout\n"
           "               quarantines it (default 3)\n"
           "  --journal    append each finished task to BENCH_<name>.journal\n"
           "               (fsync'd, checksummed; survives kill -9)\n"
           "  --resume     skip tasks already completed in a matching journal;\n"
           "               the final JSON payload is byte-identical to an\n"
           "               uninterrupted run's\n"
           "  --only-task I\n"
           "               re-run exactly one task by sweep index with its\n"
           "               original seed (the forensics repro command)\n"
           "  --json-payload-only\n"
           "               omit the non-deterministic \"run\" section from the\n"
           "               JSON so interrupted+resumed and clean sweeps can be\n"
           "               byte-compared\n";
}

/// Renders the valid --kernel-policy values for error messages.
std::string known_policy_names() {
    std::string out;
    for (const auto& info : alps::os::policies::known_policies()) {
        if (!out.empty()) out += ", ";
        out += info.name;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace alps;
    bench::register_all_experiments();

    bool list = false;
    bool list_policies = false;
    bool all = false;
    std::vector<std::string> names;
    std::vector<char*> sweep_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            list = true;
        } else if (std::strcmp(argv[i], "--list-policies") == 0) {
            list_policies = true;
        } else if (std::strcmp(argv[i], "--all") == 0) {
            all = true;
        } else if (std::strcmp(argv[i], "--experiment") == 0) {
            if (i + 1 >= argc) {
                print_usage(std::cerr);
                return 2;
            }
            names.emplace_back(argv[++i]);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            print_usage(std::cout);
            return 0;
        } else {
            sweep_args.push_back(argv[i]);
        }
    }

    if (list) {
        for (const harness::Experiment* e :
             harness::ExperimentRegistry::instance().list()) {
            std::cout << e->name << " — " << e->description << "\n";
        }
        return 0;
    }
    if (list_policies) {
        for (const auto& info : os::policies::known_policies()) {
            std::cout << info.name << " — " << info.description << "\n";
        }
        return 0;
    }
    if (all) {
        for (const harness::Experiment* e :
             harness::ExperimentRegistry::instance().list()) {
            names.push_back(e->name);
        }
    }
    if (names.empty()) {
        print_usage(std::cerr);
        return 2;
    }

    harness::SweepOptions options;
    options.out_dir = ".";
    if (!harness::parse_sweep_args(static_cast<int>(sweep_args.size()),
                                   sweep_args.data(), options)) {
        return 2;
    }
    // The kernel factory would throw the same complaint from inside every
    // task; checking here fails once, up front, with the valid names.
    // policy_zoo rows that are not kernel policy names are still legal
    // --kernel-policy values: the stride-engine A/Bs and "<policy>-percpu4".
    const auto is_zoo_row = [](const std::string& name) {
        if (name == "stride-engine" || name == "stride-engine-eager") return true;
        constexpr std::string_view suffix = "-percpu4";
        return name.size() > suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
               os::policies::is_known_policy(
                   name.substr(0, name.size() - suffix.size()));
    };
    if (!options.kernel_policy.empty() && !is_zoo_row(options.kernel_policy) &&
        !os::policies::is_known_policy(options.kernel_policy)) {
        std::cerr << "unknown kernel policy: " << options.kernel_policy
                  << "\nvalid policies: " << known_policy_names()
                  << " (see --list-policies)\n";
        return 2;
    }

    int worst = 0;
    for (const std::string& name : names) {
        std::cout << "=== " << name << " ===\n";
        try {
            worst = std::max(worst, harness::run_and_report(name, options));
        } catch (const std::invalid_argument& e) {
            // The kernel policy factory (or another constructor-level
            // validator) rejected its configuration inside a task. The
            // pre-check above catches the common case up front; this is the
            // backstop for experiments that construct kernels in ways the
            // pre-check cannot see.
            std::cerr << "error: " << e.what() << "\nvalid policies: "
                      << known_policy_names() << " (see --list-policies)\n";
            return 2;
        }
    }
    return worst;
}
