#include <gtest/gtest.h>

#include <iostream>
#include <memory>

#include "os/kernel.h"
#include "sim/engine.h"
#include "util/assert.h"
#include "web/clients.h"
#include "web/experiment.h"
#include "web/site.h"

namespace alps::web {
namespace {

using util::msec;
using util::sec;
using util::TimePoint;

struct Host {
    sim::Engine engine;
    os::Kernel kernel{engine};
    void run_for(util::Duration d) { engine.run_until(engine.now() + d); }
};

SiteConfig small_site() {
    SiteConfig cfg;
    cfg.name = "s";
    cfg.uid = 500;
    cfg.max_workers = 8;
    cfg.initial_workers = 2;
    cfg.service.kind = traffic::ServiceKind::kDeterministic;  // unit-test demands
    return cfg;
}

TEST(WebSite, SpawnsInitialWorkersAndMaster) {
    Host h;
    WebSite site(h.kernel, small_site());
    EXPECT_EQ(site.worker_count(), 2);
    // 2 workers + 1 master belong to the site's uid.
    EXPECT_EQ(h.kernel.pids_of_uid(500).size(), 3u);
}

TEST(WebSite, ServesOneRequest) {
    Host h;
    WebSite site(h.kernel, small_site());
    h.run_for(msec(10));
    bool done = false;
    util::Duration response{};
    site.set_completion_hook([&](util::Duration r) {
        done = true;
        response = r;
    });
    EXPECT_TRUE(site.submit());
    h.run_for(sec(1));
    EXPECT_TRUE(done);
    EXPECT_EQ(site.completed(), 1u);
    // parse 4 ms + db 50 ms + render 6 ms = 60 ms on an idle host.
    EXPECT_GE(response, msec(60));
    EXPECT_LT(response, msec(80));
    // The latency pipeline saw the same request: full response recorded.
    EXPECT_EQ(site.recorder().completed(0), 1u);
    const util::Duration p50 = site.recorder().quantile(0, 0.5);
    EXPECT_GE(p50, response - util::usec(1));  // µs-resolution sample
    EXPECT_LE(p50, response + util::usec(1));
    EXPECT_EQ(site.table().in_flight(), 0u);  // row released at completion
}

TEST(WebSite, RequestsQueueWhenWorkersBusy) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.initial_workers = 1;
    cfg.min_spare = 0;  // no pool growth
    WebSite site(h.kernel, cfg);
    h.run_for(msec(10));
    int done = 0;
    site.set_completion_hook([&](util::Duration) { ++done; });
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(site.submit());
    EXPECT_GE(site.queue_length(), 4u);  // one taken by the lone worker
    EXPECT_EQ(site.table().in_flight(), 5u);
    h.run_for(sec(2));
    EXPECT_EQ(done, 5);  // all served sequentially
    // Queued requests waited measurably longer than the first.
    EXPECT_GT(site.recorder().quantile(0, 0.99), site.recorder().quantile(0, 0.01));
}

TEST(WebSite, BacklogCapDropsAtTheDoor) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.initial_workers = 1;
    cfg.min_spare = 0;
    cfg.max_backlog = 3;
    WebSite site(h.kernel, cfg);
    h.run_for(msec(10));
    int accepted = 0;
    for (int i = 0; i < 10; ++i) accepted += site.submit() ? 1 : 0;
    // 1 in service + 3 queued; the rest bounced.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(site.drops(), 6u);
    h.run_for(sec(2));
    EXPECT_EQ(site.completed(), 4u);
}

TEST(WebSite, QueueDeadlineShedsStaleRequests) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.initial_workers = 1;
    cfg.min_spare = 0;
    cfg.queue_timeout = msec(80);  // ~one 60 ms request deep
    WebSite site(h.kernel, cfg);
    h.run_for(msec(10));
    for (int i = 0; i < 6; ++i) EXPECT_TRUE(site.submit());
    h.run_for(sec(2));
    // The head-of-line request and its immediate successor clear the 80 ms
    // deadline; deeper ones are shed at pickup and released from the table.
    EXPECT_GT(site.timeouts(), 0u);
    EXPECT_EQ(site.completed() + site.timeouts(), 6u);
    EXPECT_EQ(site.table().in_flight(), 0u);
}

TEST(WebSite, MasterGrowsPoolUnderLoad) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.initial_workers = 2;
    cfg.min_spare = 2;
    cfg.spawn_batch = 2;
    WebSite site(h.kernel, cfg);
    ClientConfig cc;
    cc.count = 30;
    cc.think_mean = msec(200);
    ClientPool clients(h.engine, site, cc);
    h.run_for(sec(10));
    EXPECT_GT(site.worker_count(), 2);
    EXPECT_LE(site.worker_count(), cfg.max_workers);
    EXPECT_GT(site.completed(), 50u);
}

TEST(WebSite, MasterRetiresIdleWorkers) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.initial_workers = 2;
    cfg.max_spare = 1;
    WebSite site(h.kernel, cfg);
    // Grow the pool with a burst, then let it idle.
    ClientConfig cc;
    cc.count = 30;
    cc.think_mean = msec(100);
    {
        // Clients keep submitting for the pool to grow...
        ClientPool clients(h.engine, site, cc);
        h.run_for(sec(6));
    }
    const int peak = site.worker_count();
    EXPECT_GT(peak, 2);
    // ... the pool keeps shrinking once load stops (the ClientPool object is
    // gone but its pending callbacks complete; think timers stop firing when
    // destroyed? they do not — so instead verify shrink over a long quiet
    // stretch relative to the peak).
    h.run_for(sec(60));
    EXPECT_LT(site.worker_count(), peak);
}

TEST(WebSite, LegacyFieldsSynthesizeOneClass) {
    Host h;
    WebSite site(h.kernel, small_site());
    ASSERT_EQ(site.request_mix().size(), 1u);
    const auto& phases = site.request_mix()[0].phases;
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_FALSE(phases[0].db);
    EXPECT_TRUE(phases[1].db);
    EXPECT_FALSE(phases[2].db);
}

TEST(WebSite, BulletinBoardMixShape) {
    const auto mix = bulletin_board_mix(0.2);
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_EQ(mix[0].name, "read-story");
    EXPECT_NEAR(mix[0].weight, 0.8, 1e-12);
    EXPECT_EQ(mix[1].name, "submit-comment");
    // The submission path has two DB round trips.
    int db_phases = 0;
    for (const auto& ph : mix[1].phases) db_phases += ph.db ? 1 : 0;
    EXPECT_EQ(db_phases, 2);
    EXPECT_THROW(bulletin_board_mix(1.0), util::ContractViolation);
    EXPECT_THROW(bulletin_board_mix(-0.1), util::ContractViolation);
}

TEST(WebSite, MixedRequestsCompleteInProportion) {
    // Two classes told apart by response time alone: a 1 ms page, and the
    // same page behind a 2 s database call. One submission every 50 ms
    // keeps ~10 slow requests in flight, well under the 40 workers, so
    // nothing queues and a fast request never comes near 1 s.
    Host h;
    SiteConfig cfg = small_site();
    cfg.classes = {{"fast", 0.75, {{false, msec(1)}}},
                   {"slow", 0.25, {{false, msec(1)}, {true, sec(2)}}}};
    cfg.max_workers = 40;
    cfg.initial_workers = 40;
    WebSite site(h.kernel, cfg);
    std::uint64_t fast = 0;
    std::uint64_t slow = 0;
    site.set_completion_hook([&](util::Duration r) {
        EXPECT_TRUE(r < msec(100) || r >= sec(2)) << util::to_sec(r);
        ++(r < sec(1) ? fast : slow);
    });
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(site.submit());
        h.run_for(msec(50));
    }
    h.run_for(sec(3));
    const auto total = fast + slow;
    EXPECT_EQ(total, 1000u);
    EXPECT_EQ(total, site.completed());
    // ~25% slow (statistical).
    const double frac = static_cast<double>(slow) / static_cast<double>(total);
    EXPECT_NEAR(frac, 0.25, 0.05);
}

TEST(WebSite, MultiPhaseRequestServiceTime) {
    Host h;
    SiteConfig cfg = small_site();
    cfg.service.kind = traffic::ServiceKind::kDeterministic;
    cfg.classes = {{"multi", 1.0,
                    {{false, msec(2)}, {true, msec(20)}, {false, msec(1)},
                     {true, msec(20)}, {false, msec(1)}}}};
    WebSite site(h.kernel, cfg);
    h.run_for(msec(10));
    util::Duration response{};
    site.set_completion_hook([&](util::Duration r) { response = r; });
    EXPECT_TRUE(site.submit());
    h.run_for(sec(1));
    EXPECT_EQ(site.completed(), 1u);
    // 2+1+1 ms CPU + 2x20 ms DB = 44 ms on an idle host.
    EXPECT_GE(response, msec(44));
    EXPECT_LT(response, msec(60));
}

TEST(WebSite, InvalidMixViolatesContract) {
    Host h;
    SiteConfig bad = small_site();
    bad.classes = {{"empty", 1.0, {}}};
    EXPECT_THROW(WebSite(h.kernel, bad), util::ContractViolation);
    bad.classes = {{"zero-weight", 0.0, {{false, msec(1)}}}};
    EXPECT_THROW(WebSite(h.kernel, bad), util::ContractViolation);
    bad.classes = {{"zero-phase", 1.0, {{false, util::Duration::zero()}}}};
    EXPECT_THROW(WebSite(h.kernel, bad), util::ContractViolation);
}

TEST(WebSite, ContractViolations) {
    Host h;
    SiteConfig bad = small_site();
    bad.initial_workers = 0;
    EXPECT_THROW(WebSite(h.kernel, bad), util::ContractViolation);
    // A shared recorder must be sized past the site's row index.
    traffic::LatencyRecorder tiny(1);
    SiteConfig shared = small_site();
    shared.site_index = 3;
    EXPECT_THROW(WebSite(h.kernel, shared, nullptr, &tiny),
                 util::ContractViolation);
}

// ----------------------------------------------------------------------------
// The Section-5 experiment

TEST(WebExperiment, KernelAloneSharesRoughlyEvenly) {
    WebExperimentConfig cfg;
    cfg.use_alps = false;
    cfg.warmup = sec(5);
    cfg.measure = sec(20);
    const WebExperimentResult r = run_web_experiment(cfg);
    std::cout << "kernel-only: " << r.throughput_rps[0] << " " << r.throughput_rps[1]
              << " " << r.throughput_rps[2] << " req/s\n";
    const double total = r.throughput_rps[0] + r.throughput_rps[1] + r.throughput_rps[2];
    ASSERT_GT(total, 50.0);
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(r.throughput_rps[static_cast<std::size_t>(i)] / total, 1.0 / 3.0,
                    0.06);
    }
    EXPECT_GT(r.cpu_utilization, 0.95);  // the CPU is the bottleneck (paper §5)
}

TEST(WebExperiment, AlpsEnforcesOneTwoThree) {
    WebExperimentConfig cfg;
    cfg.use_alps = true;
    cfg.warmup = sec(5);
    cfg.measure = sec(30);
    const WebExperimentResult r = run_web_experiment(cfg);
    std::cout << "ALPS {1,2,3}: " << r.throughput_rps[0] << " " << r.throughput_rps[1]
              << " " << r.throughput_rps[2] << " req/s, overhead "
              << r.alps_overhead_fraction * 100 << "%\n";
    const double total = r.throughput_rps[0] + r.throughput_rps[1] + r.throughput_rps[2];
    ASSERT_GT(total, 50.0);
    EXPECT_NEAR(r.throughput_rps[0] / total, 1.0 / 6.0, 0.04);
    EXPECT_NEAR(r.throughput_rps[1] / total, 2.0 / 6.0, 0.04);
    EXPECT_NEAR(r.throughput_rps[2] / total, 3.0 / 6.0, 0.04);
    // "acceptable accuracy and overhead" — 100 ms quantum keeps it tiny.
    EXPECT_LT(r.alps_overhead_fraction, 0.01);
}

TEST(WebExperiment, AlpsCostsLittleTotalThroughput) {
    WebExperimentConfig base;
    base.warmup = sec(5);
    base.measure = sec(20);
    base.use_alps = false;
    const auto off = run_web_experiment(base);
    base.use_alps = true;
    const auto on = run_web_experiment(base);
    const double t_off =
        off.throughput_rps[0] + off.throughput_rps[1] + off.throughput_rps[2];
    const double t_on = on.throughput_rps[0] + on.throughput_rps[1] + on.throughput_rps[2];
    // The paper's measured totals: 99 req/s without ALPS, 106 with; ours
    // should agree within ~15% of each other.
    EXPECT_NEAR(t_on / t_off, 1.0, 0.15);
}

TEST(WebExperiment, ShareDistributionIsConfigurable) {
    WebExperimentConfig cfg;
    cfg.shares = {1, 1, 4};
    cfg.warmup = sec(5);
    cfg.measure = sec(30);
    const WebExperimentResult r = run_web_experiment(cfg);
    const double total = r.throughput_rps[0] + r.throughput_rps[1] + r.throughput_rps[2];
    EXPECT_NEAR(r.throughput_rps[0] / total, 1.0 / 6.0, 0.05);
    EXPECT_NEAR(r.throughput_rps[1] / total, 1.0 / 6.0, 0.05);
    EXPECT_NEAR(r.throughput_rps[2] / total, 4.0 / 6.0, 0.05);
}

}  // namespace
}  // namespace alps::web
