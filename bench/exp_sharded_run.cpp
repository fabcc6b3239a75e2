// Sharded-engine determinism gate ("sharded_run"): the 8-group ALPS machine
// from workload::run_sharded_experiment at shard counts 1, 2, and 8, serial
// and threaded, across all four kernel policies.
//
// This is the sweep-scale version of tests/test_workload_sharded.cpp: every
// variant of one policy must produce the same consumed_checksum — per-process
// CPU down to the nanosecond, every cycle record — or evaluate() fails the
// sweep. Because the checksum is a simulated result (not a host timing), the
// BENCH_sharded_run.json payload is bit-identical across runs and --jobs,
// like every non-sim_perf report.
//
// Point naming: "<policy>/s<shards>" for serial, "<policy>/s<shards>t" for
// threaded. --shards narrows to one shard count (both modes); --kernel-policy
// narrows to one policy.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "os/policies/factory.h"
#include "util/table.h"
#include "workload/sharded.h"

namespace alps::bench {
namespace {

using sim::ShardedEngine;

constexpr unsigned kGroups = 8;
constexpr unsigned kShardCounts[] = {1, 2, 8};

struct Variant {
    unsigned shards = 1;
    bool threaded = false;
};

std::string point_name(std::string_view policy, const Variant& v) {
    return std::string(policy) + "/s" + std::to_string(v.shards) +
           (v.threaded ? "t" : "");
}

std::vector<Variant> all_variants() {
    std::vector<Variant> vs;
    for (const unsigned s : kShardCounts) {
        vs.push_back({s, false});
        if (s > 1) vs.push_back({s, true});
    }
    return vs;
}

harness::Result run_point(const harness::TaskContext& ctx, std::string_view policy,
                          const Variant& v, std::uint64_t policy_seed,
                          bool full) {
    workload::ShardedRunConfig cfg;
    cfg.groups = kGroups;
    cfg.shards = v.shards;
    cfg.mode = v.threaded ? ShardedEngine::RunMode::kThreaded
                          : ShardedEngine::RunMode::kSerial;
    cfg.measure_cycles = full ? 40 : 12;
    cfg.kernel_policy = std::string(policy);
    // NOT ctx.seed: the whole point is comparing this run against its
    // sibling shard counts, so the seed must be a function of the policy
    // row only (ctx.seed differs per task).
    cfg.policy_seed = policy_seed;
    cfg.metrics = ctx.metrics;
    const auto r = workload::run_sharded_experiment(cfg);
    // Metrics are doubles; a 64-bit digest cast to double would drop its low
    // bits and weaken the equality gate. Both 32-bit halves are exact.
    return harness::Result{}
        .metric("checksum_hi", static_cast<double>(r.consumed_checksum >> 32))
        .metric("checksum_lo",
                static_cast<double>(r.consumed_checksum & 0xffffffffULL))
        .metric("rms_error_pct", 100.0 * r.mean_rms_error)
        .metric("worst_rms_error_pct", 100.0 * r.worst_rms_error)
        .metric("overhead_pct", 100.0 * r.overhead_fraction)
        .metric("cycles", static_cast<double>(r.cycles_completed))
        .metric("epochs", static_cast<double>(r.epochs))
        .metric("cross_shard_messages",
                static_cast<double>(r.cross_shard_messages))
        .metric("nomad_hops", static_cast<double>(r.migrations_completed))
        .metric("events_fired", static_cast<double>(r.events_fired))
        .metric("timed_out", r.timed_out ? 1.0 : 0.0);
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions& options) {
    std::vector<harness::Task> tasks;
    for (const auto& info : os::policies::known_policies()) {
        const std::string policy(info.name);
        if (!options.kernel_policy.empty() && policy != options.kernel_policy) {
            continue;
        }
        // Seed per policy row, derived from the sweep seed so --seed still
        // varies the whole experiment coherently.
        const std::uint64_t policy_seed =
            options.seed * 0x9e3779b97f4a7c15ULL + std::hash<std::string>{}(policy);
        for (const Variant& v : all_variants()) {
            if (options.shards > 0 &&
                v.shards != static_cast<unsigned>(options.shards)) {
                continue;
            }
            harness::Task task;
            task.point = point_name(policy, v);
            task.rep = 0;
            task.params = {{"policy", policy},
                           {"shards", std::to_string(v.shards)},
                           {"mode", v.threaded ? "threaded" : "serial"},
                           {"groups", std::to_string(kGroups)}};
            const bool full = options.full_scale;
            task.fn = [policy, v, policy_seed, full](const harness::TaskContext& ctx) {
                return run_point(ctx, policy, v, policy_seed, full);
            };
            tasks.push_back(std::move(task));
        }
    }
    return tasks;
}

std::string checksum_text(const harness::SweepReport& report,
                          const std::string& point) {
    const auto hi = static_cast<std::uint64_t>(report.metric_mean(point, "checksum_hi"));
    const auto lo = static_cast<std::uint64_t>(report.metric_mean(point, "checksum_lo"));
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>((hi << 32) | lo));
    return buf;
}

void present(const harness::SweepReport& report, std::ostream& out) {
    out << "\nSharded engine determinism: " << kGroups
        << " kernel groups + per-group ALPS, identical machine at every "
           "shard count.\n'checksum' digests per-process CPU and every "
           "cycle record; rows of one policy must match exactly.\n\n";
    util::TextTable t({"Point", "Checksum", "RMS err %", "Overhead %", "Hops",
                       "Msgs", "Epochs"});
    for (const auto& info : os::policies::known_policies()) {
        for (const Variant& v : all_variants()) {
            const std::string point = point_name(info.name, v);
            if (report.find_point(point) == nullptr) continue;
            t.add_row({point, checksum_text(report, point),
                       util::fmt(report.metric_mean(point, "rms_error_pct"), 2),
                       util::fmt(report.metric_mean(point, "overhead_pct"), 3),
                       util::fmt(report.metric_mean(point, "nomad_hops"), 0),
                       util::fmt(report.metric_mean(point, "cross_shard_messages"), 0),
                       util::fmt(report.metric_mean(point, "epochs"), 0)});
        }
    }
    t.print(out);
}

/// The gate: within each policy row, every shard count and mode must agree
/// on the checksum (and must not have timed out). Returns the number of
/// violated rows, i.e. 0 = pass, shell-style.
int evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report);
    for (const auto& info : os::policies::known_policies()) {
        std::map<std::string, std::string> sums;
        bool timed_out = false;
        for (const Variant& v : all_variants()) {
            const std::string point = point_name(info.name, v);
            if (report.find_point(point) == nullptr) continue;
            sums[point] = checksum_text(report, point);
            timed_out |= report.metric_mean(point, "timed_out") != 0.0;
        }
        if (sums.size() < 2) continue;  // narrowed run: nothing to compare
        const std::string& first = sums.begin()->second;
        const bool identical =
            std::all_of(sums.begin(), sums.end(),
                        [&](const auto& kv) { return kv.second == first; });
        std::string measured;
        if (identical) {
            measured = first;
        } else {
            for (const auto& [point, sum] : sums) {
                if (!measured.empty()) measured += ", ";
                measured += point + "=" + sum;
            }
        }
        if (timed_out) measured += " (timed out)";
        criteria.check(std::string(info.name) + " bit-identical across " +
                           std::to_string(sums.size()) + " shard/mode variants",
                       "one checksum", measured, identical && !timed_out);
    }
    return criteria.print(out);
}

}  // namespace

void register_sharded_run_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "sharded_run",
        .description =
            "Sharded-engine determinism gate: 8-group ALPS machine bit-identical "
            "at 1/2/8 shards, serial and threaded, on every kernel policy",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
