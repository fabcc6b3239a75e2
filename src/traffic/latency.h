// Per-site end-to-end latency pipeline.
//
// Every request is timestamped at arrival (table-row creation) and
// completion; the recorder lands the results per site. It keeps the exact
// response-time samples (µs resolution) so p50/p95/p99 are true order
// statistics — the telemetry histograms bucket by powers of two, fine for
// dashboards but too coarse for a capacity-planning figure — and exports
// both: exact quantile gauges and log-bucketed histograms, plus
// drop/timeout counters, into the metrics registry that BENCH_*.json
// serializes as run.telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "util/time.h"

namespace alps::traffic {

class LatencyRecorder {
public:
    explicit LatencyRecorder(std::size_t sites);

    /// One completed request: its end-to-end response time.
    void record(std::size_t site, util::Duration response);
    /// Rejected at the door (listen-queue backlog cap).
    void drop(std::size_t site);
    /// Shed at dispatch: it outwaited the queue deadline.
    void timeout(std::size_t site);

    [[nodiscard]] std::size_t sites() const { return sites_.size(); }
    [[nodiscard]] std::uint64_t completed(std::size_t site) const;
    [[nodiscard]] std::uint64_t drops(std::size_t site) const;
    [[nodiscard]] std::uint64_t timeouts(std::size_t site) const;

    [[nodiscard]] std::uint64_t total_completed() const;
    [[nodiscard]] std::uint64_t total_drops() const;
    [[nodiscard]] std::uint64_t total_timeouts() const;

    /// Exact response-time quantile (q in [0, 1]) for one site; zero when
    /// the site has no completions.
    [[nodiscard]] util::Duration quantile(std::size_t site, double q) const;
    /// Exact quantile over the merged samples of several sites.
    [[nodiscard]] util::Duration quantile_of(const std::vector<std::size_t>& sites,
                                             double q) const;

    /// Exports under `prefix`: aggregate `<prefix>.resp_us` histogram and
    /// completed/drops/timeouts counters, plus — when per_site — one block
    /// per site (`<prefix>.site0042.{p50_us,p95_us,p99_us}` exact-quantile
    /// gauges and a completed counter).
    void export_metrics(telemetry::MetricsRegistry& reg, const std::string& prefix,
                        bool per_site) const;

private:
    struct Site {
        std::vector<std::uint32_t> resp_us;  ///< exact samples, clamped u32
        std::uint64_t completed = 0;
        std::uint64_t drops = 0;
        std::uint64_t timeouts = 0;
    };

    std::vector<Site> sites_;
};

}  // namespace alps::traffic
