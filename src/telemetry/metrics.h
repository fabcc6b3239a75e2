// The metrics registry: named counters, gauges, and log-bucketed histograms.
//
// One surface for cross-layer health and throughput numbers that used to be
// scattered (PR 2's HealthReport plumbing, hand-rolled bench timers): the
// scheduler, sim::Engine, os::Kernel, and the harness ThreadPool all export
// into a registry via their export_metrics() hooks, and the sweep runner
// serializes the registry into the BENCH_<name>.json "run" section.
//
// Instruments are cheap and thread-safe (relaxed atomics); registration
// takes a mutex and returns stable references, so call-sites look up once
// and update often. Counter and histogram updates commute, so totals
// accumulated by parallel sweep workers are deterministic for any --jobs
// value (gauges are last-write-wins — use them only for values that are the
// same on every path, or single-threaded).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace alps::telemetry {

/// Monotonic event count.
class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (last write wins).
class Gauge {
public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative integer samples (durations in ns
/// or µs, queue depths, ...). Bucket i holds values whose bit width is i
/// (i.e. v in [2^(i-1), 2^i - 1]; bucket 0 holds exactly 0), so quantiles
/// are exact to within a factor of 2 at any magnitude with 65 fixed-size
/// bucket counters and no allocation on record().
class Histogram {
public:
    void record(std::uint64_t v);

    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const {
        return sum_.load(std::memory_order_relaxed);
    }
    /// Approximate q-quantile (q in [0, 1]): the geometric midpoint of the
    /// bucket holding the rank. 0 on an empty histogram.
    [[nodiscard]] double quantile(double q) const;

private:
    static constexpr int kBuckets = 65;  ///< bit widths 0..64
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Finds or creates the named instrument. References stay valid for the
    /// registry's lifetime.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    [[nodiscard]] bool empty() const;
    void clear();

    /// Deterministic serialization: kinds in fixed order, names sorted
    /// (std::map iteration). Histograms render count/sum/p50/p95/p99.
    [[nodiscard]] util::Json to_json() const;

    /// Process-wide registry for code without an obvious owner. Sweeps use
    /// their own per-run registry so experiments cannot bleed into each
    /// other.
    static MetricsRegistry& global();

private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace alps::telemetry
