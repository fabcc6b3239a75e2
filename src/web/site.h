// A dynamic-content web site on the simulated host (paper Section 5).
//
// Models one Apache-prefork-style server owned by one user account:
//   * a master process that regulates a pool of worker processes (up to
//     max_workers, like the paper's 50);
//   * workers that loop: take a request, burn CPU parsing the PHP script,
//     block on the (remote) database, burn CPU rendering the page, reply;
//   * a listen queue feeding the workers.
// Clients and the database live off-host (separate machines in the paper),
// so they cost no CPU here: the DB is a latency, the clients are events.
//
// Requests are rows in a traffic::RequestTable — a flat SoA table shared by
// every site of a cluster, so production-scale runs (thousands of sites,
// hundreds of thousands of in-flight requests) allocate nothing per
// request. Each row carries the end-to-end latency pipeline's timestamps
// (arrival / dispatch / DB wait / completion), landed per site in a
// traffic::LatencyRecorder. A standalone site (tests, the §5 experiment)
// owns a private table and recorder.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel.h"
#include "traffic/latency.h"
#include "traffic/service.h"
#include "traffic/table.h"
#include "util/rng.h"
#include "util/time.h"

namespace alps::web {

/// One stage of servicing a request: either CPU on the web host or a blocking
/// wait on the remote database.
struct RequestPhase {
    bool db = false;            ///< true: block for `mean`; false: burn CPU
    util::Duration mean{0};
};

/// A class of requests (RUBBoS-style: "read a story" vs "submit a comment"),
/// drawn per request with probability proportional to `weight`.
struct RequestClass {
    std::string name = "request";
    double weight = 1.0;
    std::vector<RequestPhase> phases;
};

struct SiteConfig {
    std::string name = "site";
    os::Uid uid = 1000;
    int max_workers = 50;  ///< the paper's per-site Apache limit
    int initial_workers = 8;
    int min_spare = 2;   ///< grow the pool when idle workers drop below this
    int max_spare = 20;  ///< shrink when more than this many sit idle
    int spawn_batch = 4;
    /// CPU demand per request: script parse/db-query marshalling, then page
    /// rendering (means; actual draws follow `service`).
    /// Used to synthesize a single request class when `classes` is empty.
    util::Duration parse_cpu = util::msec(4);
    util::Duration render_cpu = util::msec(6);
    /// Remote database latency per request (the worker blocks).
    util::Duration db_time = util::msec(50);
    /// Explicit request mix; empty = one class from the three fields above.
    std::vector<RequestClass> classes;
    /// Distribution the phase means are drawn through. The default
    /// (exponential, 10 µs floor) is the seed model's draw, bit-identically;
    /// production runs use the heavy-tailed kind, unit tests the
    /// deterministic one.
    traffic::ServiceModel service{};
    std::uint64_t seed = 7;
    // ---- cluster placement (per-CPU-queue kernels) ----
    /// Scheduling domain for this site's master and workers; -1 = kernel
    /// default placement.
    int home_cpu = -1;
    /// Hard-pin the processes there (Proc::pinned: exempt from
    /// steal/rebalance) — the one-ALPS-per-core deployments.
    bool pinned = false;
    // ---- open-loop overload controls ----
    /// Listen-queue cap: submissions beyond it are dropped at the door
    /// (counted per site). 0 = unbounded.
    std::size_t max_backlog = 0;
    /// Shed requests that outwait this in the listen queue (checked at
    /// dispatch). 0 = never.
    util::Duration queue_timeout{0};
    /// Row index in the shared table/recorder (a cluster sets this; a
    /// standalone site keeps 0).
    std::uint32_t site_index = 0;
};

/// The RUBBoS-like bulletin-board mix: mostly story reads (parse, one DB
/// query, render) with a fraction of comment submissions (two DB round
/// trips with validation CPU in between).
[[nodiscard]] std::vector<RequestClass> bulletin_board_mix(double submission_fraction = 0.15);

/// One hosted site: master + worker pool + listen queue + statistics.
class WebSite {
public:
    /// `table` / `recorder` may be shared across a cluster's sites; nullptr
    /// gives the site a private one (recorder sized site_index + 1).
    WebSite(os::Kernel& kernel, SiteConfig cfg,
            traffic::RequestTable* table = nullptr,
            traffic::LatencyRecorder* recorder = nullptr);
    ~WebSite();

    WebSite(const WebSite&) = delete;
    WebSite& operator=(const WebSite&) = delete;

    /// Submits one request; returns false when the backlog cap dropped it.
    /// Callable from event context.
    bool submit();

    /// One per-site hook invoked (with the response time) as each request
    /// completes — the closed-loop client pool's feedback path. May be
    /// empty. Replaces any previous hook.
    void set_completion_hook(std::function<void(util::Duration)> hook);

    [[nodiscard]] const SiteConfig& config() const { return cfg_; }
    [[nodiscard]] os::Uid uid() const { return cfg_.uid; }
    [[nodiscard]] std::uint64_t completed() const { return completed_; }
    /// Completions per request class, in the order of the effective mix.
    [[nodiscard]] const std::vector<std::uint64_t>& completed_by_class() const {
        return completed_by_class_;
    }
    /// The request mix in effect (synthesized when cfg.classes was empty).
    [[nodiscard]] const std::vector<RequestClass>& request_mix() const {
        return classes_;
    }
    [[nodiscard]] util::Duration total_response_time() const { return total_response_; }
    [[nodiscard]] int worker_count() const { return workers_alive_; }
    [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
    /// Completions per whole simulated second since t=0.
    [[nodiscard]] const std::vector<std::uint64_t>& per_second_completions() const {
        return per_second_;
    }
    [[nodiscard]] std::uint64_t drops() const;
    [[nodiscard]] std::uint64_t timeouts() const;
    [[nodiscard]] traffic::RequestTable& table() { return *table_; }
    [[nodiscard]] traffic::LatencyRecorder& recorder() { return *recorder_; }

private:
    class WorkerBehavior;
    class MasterBehavior;
    friend class WorkerBehavior;
    friend class MasterBehavior;

    void spawn_worker();
    void regulate();  ///< master's housekeeping step
    void record_completion(util::TimePoint now, traffic::ReqId id);
    util::Duration draw(util::Duration mean);
    std::size_t draw_class();

    os::Kernel& kernel_;
    SiteConfig cfg_;
    util::Rng rng_;
    std::vector<RequestClass> classes_;  ///< effective mix
    double weight_total_ = 0.0;

    std::unique_ptr<traffic::RequestTable> owned_table_;
    std::unique_ptr<traffic::LatencyRecorder> owned_recorder_;
    traffic::RequestTable* table_ = nullptr;
    traffic::LatencyRecorder* recorder_ = nullptr;

    traffic::IdRing queue_;              ///< listen queue (request ids)
    std::vector<os::WaitChannel> idle_;  ///< idle workers' wait channels
    int workers_alive_ = 0;
    int workers_spawned_ = 0;
    int retire_pending_ = 0;

    std::uint64_t completed_ = 0;
    std::vector<std::uint64_t> completed_by_class_;
    util::Duration total_response_{0};
    std::vector<std::uint64_t> per_second_;
    std::function<void(util::Duration)> on_complete_;

    os::Pid master_pid_ = os::kNoPid;
};

}  // namespace alps::web
