// Shared vocabulary of the perfbench workloads: metrics, gates, clocks and
// order statistics.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace alps::perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports: the JSON result line's fields plus the
/// human-readable outcome lines printed above it.
struct WorkloadReport {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> gate_failures;
    std::vector<Metric> metrics;  ///< the JSON metrics, in print order
    std::vector<Metric> outcomes;  ///< simulated/measured outcomes, printed only
    std::vector<Metric> counters;  ///< exact work counters, printed only

    /// A correctness gate: a failed gate counts as a failed operation.
    void gate(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        gate_failures.push_back(what);
    }
    [[nodiscard]] bool correct() const { return gate_failures.empty(); }
};

/// Run parameters shared by every workload.
struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir;  ///< where traced runs write their span files
};

/// The second seed every run also checks its invariants on; a fixed
/// function of the workload seed, never used while tuning.
[[nodiscard]] inline std::uint64_t held_out_seed(std::uint64_t seed) {
    return seed ^ 0x9e37'79b9'7f4a'7c15ULL;
}

/// Process CPU time (all threads, user + system). Short timings use this
/// clock: on a shared host, wall time also counts other tenants' load.
[[nodiscard]] inline double process_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] inline double wall_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss survives execve, so it would
/// also count a launcher that exec'd the benchmark.) 0 if unreadable.
[[nodiscard]] inline double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

/// Nearest-rank quantile of an unsorted sample (q in [0,1]); 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(q * n);
    if (rank >= v.size()) rank = v.size() - 1;
    return v[rank];
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest whole percentile of `n` samples that still has at least ten
/// samples beyond it (capped at 99); 0 when n <= 10.
[[nodiscard]] inline int tail_percentile(std::uint64_t n) {
    if (n <= 10) return 0;
    const auto p = static_cast<int>(100 * (n - 10) / n);
    return std::min(p, 99);
}

}  // namespace alps::perfbench
