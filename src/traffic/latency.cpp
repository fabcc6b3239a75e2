#include "traffic/latency.h"

#include <algorithm>
#include <cstdio>

#include "util/assert.h"

namespace alps::traffic {

using util::Duration;

namespace {

constexpr std::uint32_t clamp_us(Duration d) {
    const std::int64_t us = d.count() / 1000;
    if (us <= 0) return 0;
    if (us >= 0xffffffffLL) return 0xffffffffu;
    return static_cast<std::uint32_t>(us);
}

/// Exact order statistic over a scratch copy (nth_element, not a full sort).
Duration quantile_of_samples(std::vector<std::uint32_t> samples, double q) {
    if (samples.empty()) return Duration::zero();
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return util::usec(samples[rank]);
}

}  // namespace

LatencyRecorder::LatencyRecorder(std::size_t sites) : sites_(sites) {
    ALPS_EXPECT(sites > 0);
}

void LatencyRecorder::record(std::size_t site, Duration response) {
    Site& s = sites_.at(site);
    s.resp_us.push_back(clamp_us(response));
    ++s.completed;
}

void LatencyRecorder::drop(std::size_t site) { ++sites_.at(site).drops; }

void LatencyRecorder::timeout(std::size_t site) { ++sites_.at(site).timeouts; }

std::uint64_t LatencyRecorder::completed(std::size_t site) const {
    return sites_.at(site).completed;
}
std::uint64_t LatencyRecorder::drops(std::size_t site) const {
    return sites_.at(site).drops;
}
std::uint64_t LatencyRecorder::timeouts(std::size_t site) const {
    return sites_.at(site).timeouts;
}

std::uint64_t LatencyRecorder::total_completed() const {
    std::uint64_t n = 0;
    for (const Site& s : sites_) n += s.completed;
    return n;
}
std::uint64_t LatencyRecorder::total_drops() const {
    std::uint64_t n = 0;
    for (const Site& s : sites_) n += s.drops;
    return n;
}
std::uint64_t LatencyRecorder::total_timeouts() const {
    std::uint64_t n = 0;
    for (const Site& s : sites_) n += s.timeouts;
    return n;
}

Duration LatencyRecorder::quantile(std::size_t site, double q) const {
    return quantile_of_samples(sites_.at(site).resp_us, q);
}

Duration LatencyRecorder::quantile_of(const std::vector<std::size_t>& sites,
                                      double q) const {
    std::vector<std::uint32_t> merged;
    std::size_t total = 0;
    for (const std::size_t i : sites) total += sites_.at(i).resp_us.size();
    merged.reserve(total);
    for (const std::size_t i : sites) {
        const auto& v = sites_.at(i).resp_us;
        merged.insert(merged.end(), v.begin(), v.end());
    }
    return quantile_of_samples(std::move(merged), q);
}

void LatencyRecorder::export_metrics(telemetry::MetricsRegistry& reg,
                                     const std::string& prefix,
                                     bool per_site) const {
    telemetry::Histogram& hist = reg.histogram(prefix + ".resp_us");
    for (const Site& s : sites_) {
        for (const std::uint32_t us : s.resp_us) hist.record(us);
    }
    reg.counter(prefix + ".completed").add(total_completed());
    reg.counter(prefix + ".drops").add(total_drops());
    reg.counter(prefix + ".timeouts").add(total_timeouts());
    if (!per_site) return;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        char key[32];
        std::snprintf(key, sizeof key, ".site%04zu.", i);
        const std::string base = prefix + key;
        reg.gauge(base + "p50_us").set(util::to_us(quantile(i, 0.50)));
        reg.gauge(base + "p95_us").set(util::to_us(quantile(i, 0.95)));
        reg.gauge(base + "p99_us").set(util::to_us(quantile(i, 0.99)));
        reg.counter(base + "completed").add(sites_[i].completed);
    }
}

}  // namespace alps::traffic
