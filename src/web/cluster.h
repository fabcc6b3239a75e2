// Production-scale web hosting on one simulated machine (the web_scale
// sweep): hundreds to thousands of WebSites share a per-CPU-queue kernel,
// driven open-loop by traffic::Generators (flat Poisson arrivals with
// flash-crowd spikes) instead of the §5 fixed client pools.
//
// The capacity-planning question it answers: one site ("site A", index 0)
// buys a protected share; a deterministic subset of the others is hit by a
// flash crowd that pushes the machine past saturation. How well does each
// deployment defend site A's latency percentiles?
//
//   * kernel-only  — no ALPS; the native policy arbitrates the overload.
//   * one global ALPS — a single group scheduler over every site (one
//     principal per uid). Its cycle spans total-shares quanta of *machine*
//     CPU time, and one driver process ticks for every principal.
//   * one ALPS per core — each core runs its own group scheduler over the
//     sites homed there, driver and site processes hard-pinned
//     (Proc::pinned) so steal/rebalance cannot blur the partition.
//
// All requests live in one shared traffic::RequestTable (flat SoA, no
// per-request allocation) and land in one traffic::LatencyRecorder, whose
// per-site p50/p95/p99 blocks are exported to run.telemetry.
#pragma once

#include <cstdint>

#include "alps/cost_model.h"
#include "telemetry/metrics.h"
#include "traffic/service.h"
#include "util/shares.h"
#include "util/time.h"

namespace alps::web {

enum class Deploy {
    kKernelOnly,
    kGlobalAlps,
    kPerCoreAlps,
};

[[nodiscard]] const char* deploy_name(Deploy d);

struct WebScaleConfig {
    int sites = 96;
    int ncpus = 8;
    Deploy deploy = Deploy::kKernelOnly;

    // ---- per-site service demands ----
    // Lighter than the §5 site (5 ms CPU vs 10 ms) so a single machine can
    // host ~1000 sites at realistic per-site request rates.
    util::Duration parse_cpu = util::msec(2);
    util::Duration render_cpu = util::msec(3);
    util::Duration db_time = util::msec(20);
    /// Distribution the phase means are drawn through (heavy-tailed Pareto
    /// by default: this sweep is about tail latency).
    traffic::ServiceModel service{traffic::ServiceKind::kPareto};
    int initial_workers = 2;
    int max_workers = 8;
    /// Listen-queue cap; arrivals beyond it are dropped (counted).
    std::size_t max_backlog = 500;
    /// Requests older than this are shed at worker pickup (counted).
    util::Duration queue_timeout = util::sec(15);

    // ---- open-loop traffic ----
    double base_rps = 4.0;  ///< per-site steady (flat Poisson) arrival rate
    // Flash crowd: sites in row r = i / ncpus with r % flash_stride == 1
    // spike together — exactly one site per core per member row, so the
    // surge is spread evenly across scheduling domains and membership is
    // independent of the deployment. Site 0 (row 0) is never a member.
    double flash_multiplier = 8.0;  ///< <= 1 disables the spike
    int flash_stride = 8;
    util::Duration flash_start = util::sec(15);
    util::Duration flash_ramp = util::sec(2);
    util::Duration flash_hold = util::sec(10);
    util::Duration flash_decay = util::sec(3);

    // ---- shares ----
    util::Share protected_share = 8;  ///< site A's purchase
    util::Share default_share = 1;
    /// Site A's traffic relative to the base rate. Two constraints bound it:
    ///   * A cycle only completes when *every* principal exhausts its
    ///     allowance, so a share far above demand strands cycle time —
    ///     everyone else sits suspended while the light protected site
    ///     drains the remainder alone (measured: a 48-site global
    ///     deployment collapses to ~13% machine utilization with an 8x
    ///     share over 1x traffic).
    ///   * A share *equal* to the demand ratio is a knife edge: site A
    ///     exhausts its allowance with everyone else each cycle and spends
    ///     the cycle tail suspended.
    /// The default buys ~33% headroom (traffic 6x under share 8): others
    /// exhaust first, site A never suspends, and the stranded slice of the
    /// cycle stays ~2%. That headroom IS the capacity-planning answer the
    /// sweep quantifies.
    double protected_rps_mult = 6.0;

    // ---- ALPS deployment ----
    util::Duration quantum = util::msec(100);
    util::Duration refresh_period = util::sec(1);
    /// The real ALPS daemon runs at elevated priority. At nice 0 a driver on
    /// a saturated core queues behind the very workers it schedules and
    /// sleeps through quantum boundaries wholesale (tens of thousands at
    /// q=10 ms per-core on an overloaded 1000-site machine).
    int driver_nice = -20;
    core::CostModel cost{};
    /// §2.4 forfeit-on-block accounting. Off here: it is designed for
    /// I/O-bound processes inside a busy application, but an open-loop site
    /// is *idle-blocked* between requests — with it on, every quiet site is
    /// charged its whole allowance within a tick or two and suspended before
    /// its next request arrives, collapsing the cluster to a fraction of the
    /// machine (utilization drops under 20% at 48 sites).
    bool io_accounting = false;

    // ---- run ----
    util::Duration warmup = util::sec(5);
    util::Duration measure = util::sec(45);
    std::uint64_t seed = 11;
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Export per-site p50/p95/p99 blocks (site0000..) in addition to the
    /// aggregate histogram.
    bool per_site_telemetry = true;
};

struct WebScaleResult {
    // Volume over the whole run (arrivals include dropped submissions).
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t drops = 0;
    std::uint64_t timeouts = 0;
    std::size_t peak_in_flight = 0;
    int flash_sites = 0;  ///< flash-crowd member count

    // Latency percentiles (ms) over the full run's samples.
    double protected_p50_ms = 0.0;
    double protected_p95_ms = 0.0;
    double protected_p99_ms = 0.0;
    double flash_p99_ms = 0.0;   ///< merged over flash-member sites
    double steady_p99_ms = 0.0;  ///< merged over the unprotected rest

    // Throughput over the measure window only.
    double protected_rps = 0.0;
    double total_rps = 0.0;

    double cpu_utilization = 0.0;     ///< busy fraction of ncpus x measure
    double overhead_fraction = 0.0;   ///< ALPS driver CPU / machine capacity
    /// Quantum boundaries the driver(s) slept through because a tick was
    /// still running or runnable — the §4.2 breakdown symptom. A global
    /// driver ticking a thousand principals on a fine quantum lives here.
    std::uint64_t boundaries_missed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
};

[[nodiscard]] WebScaleResult run_web_scale_experiment(const WebScaleConfig& cfg);

}  // namespace alps::web
