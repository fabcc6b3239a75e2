// alps_perfbench: the repository benchmark. See README.md in this directory.
//
//   alps_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-dir DIR]
//
// NAME is web_flash_percore, web_flash_kernel, many_core_percore,
// posix_measure, or all. Prints each workload's metrics and outcomes by name
// with their units, then one JSON result line per workload (the last line of
// a single-workload run is its result).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "posix_workload.h"
#include "sim_workloads.h"

namespace {

using namespace alps::perfbench;

constexpr const char* kWorkloads[] = {"web_flash_percore", "web_flash_kernel",
                                      "many_core_percore", "posix_measure"};

bool run_workload(const std::string& name, const RunOptions& opts, WorkloadReport& out) {
    if (name == "web_flash_percore") {
        run_sim_workload(SimWorkload::kWebFlashPercore, opts, out);
    } else if (name == "web_flash_kernel") {
        run_sim_workload(SimWorkload::kWebFlashKernel, opts, out);
    } else if (name == "many_core_percore") {
        run_sim_workload(SimWorkload::kManyCorePercore, opts, out);
    } else if (name == "posix_measure") {
        run_posix_workload(opts, out);
    } else {
        return false;
    }
    return true;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

void print_report(const std::string& name, const RunOptions& opts, WorkloadReport& r) {
    for (const Metric& m : r.metrics) {
        r.gate(std::isfinite(m.value), m.name + " is a finite number");
    }
    std::printf("== %s  seed=%llu  seconds=%g  trace=%d\n", name.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    for (const Metric& m : r.metrics) {
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : r.outcomes) {
        std::printf("  outcome %-20s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : r.counters) {
        std::printf("  counter %-28s %.0f\n", m.name.c_str(), m.value);
    }
    for (const std::string& g : r.gate_failures) std::printf("  GATE FAILED: %s\n", g.c_str());
    std::string json = "{\"correct\": ";
    json += r.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        json += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " + value +
                ", \"unit\": " + json_string(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int usage() {
    std::fprintf(stderr,
                 "usage: alps_perfbench --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\nworkloads:");
    for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions opts;
    std::string workload;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload") {
                workload = value;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (flag == "--trace") {
                opts.trace = value == "1";
            } else if (flag == "--trace-dir") {
                opts.trace_dir = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (argc % 2 == 0 || workload.empty() || !(opts.seconds > 0.0)) return usage();

    std::vector<std::string> names;
    if (workload == "all") {
        names.assign(std::begin(kWorkloads), std::end(kWorkloads));
    } else {
        names.push_back(workload);
    }
    install_child_cleanup_handlers();
    for (const std::string& name : names) {
        WorkloadReport report;
        try {
            if (!run_workload(name, opts, report)) return usage();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "alps_perfbench: %s failed: %s\n", name.c_str(), e.what());
            return 1;
        }
        print_report(name, opts, report);
    }
    return 0;
}
