#include "layers.h"

namespace alps::perfbench {

void append_layer_metrics(const Counters& counters, const SpanLog& log,
                          double overhead_pct, std::vector<Metric>& out) {
    const auto count = [&counters](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    for (const char* name :
         {"sim.events_scheduled", "sim.events_fired", "sim.events_cancelled"}) {
        out.push_back({name, count(name), "count"});
    }
    out.push_back({"sim.scheduled_per_fired",
                   ratio(count("sim.events_scheduled"), count("sim.events_fired")),
                   "ratio"});
    out.push_back({"sim.arena_high_water_mb",
                   count("sim.arena_high_water_bytes") / (1024.0 * 1024.0), "MB"});
    for (const char* name : {"os.context_switches", "os.steals", "os.migrations",
                             "alps.ticks", "alps.measurements"}) {
        out.push_back({name, count(name), "count"});
    }
    out.push_back({"alps.measurements_per_tick",
                   ratio(count("alps.measurements"), count("alps.ticks")), "ratio"});
    for (const char* name :
         {"alps.read_failures", "alps.retries", "alps.boundaries_missed",
          "traffic.arrivals", "traffic.peak_in_flight", "web.completed", "web.drops",
          "web.timeouts", "posix.reads", "posix.signals", "posix.read_failures"}) {
        out.push_back({name, count(name), "count"});
    }

    // Host time. Shares are of the traced run's root spans (run_until for a
    // simulation, the ticks for the posix loop); each layer's own time
    // excludes its child spans.
    const LayerTotals t = log.totals();
    const auto share = [&t](Layer l) {
        return t.root_s > 0.0 ? 100.0 * t.self_s[static_cast<std::size_t>(l)] / t.root_s
                              : 0.0;
    };
    const auto per_call_us = [&t](Layer l) {
        const auto i = static_cast<std::size_t>(l);
        return t.calls[i] > 0 ? 1e6 * t.self_s[i] / static_cast<double>(t.calls[i]) : 0.0;
    };
    out.push_back({"trace.host_s", t.root_s, "s"});
    out.push_back({"sim.dispatch_self_pct", share(Layer::kRunUntil), "%"});
    out.push_back({"web.submit_pct", share(Layer::kSubmit), "%"});
    out.push_back({"os.measure_pct", share(Layer::kMeasure), "%"});
    out.push_back({"os.signal_pct", share(Layer::kSignal), "%"});
    out.push_back({"os.pids_of_uid_pct", share(Layer::kPidsOfUid), "%"});
    out.push_back({"alps.tick_self_pct", share(Layer::kTick), "%"});
    out.push_back({"alps.refresh_pct", share(Layer::kRefresh), "%"});
    out.push_back({"posix.read_pct", share(Layer::kPosixRead), "%"});
    out.push_back({"posix.signal_pct", share(Layer::kPosixSignal), "%"});
    out.push_back({"alps.tick_self_us", per_call_us(Layer::kTick), "us/tick"});
    const std::vector<double> reads = log.durations_us(Layer::kPosixRead);
    out.push_back({"posix.read_us_p50", quantile(reads, 0.50), "us/read"});
    out.push_back({"posix.read_us_p99", quantile(reads, 0.99), "us/read"});
    out.push_back({"posix.signal_us", per_call_us(Layer::kPosixSignal), "us/signal"});
    out.push_back({"trace.overhead_pct", overhead_pct, "%"});
}

}  // namespace alps::perfbench
