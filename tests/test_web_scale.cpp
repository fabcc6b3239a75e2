// Tests for the web_scale cluster experiment (src/web/cluster.*): result
// determinism, flash-crowd membership, the pinned-process exemption from
// idle-steal/rebalance under the per-core deployment, share-driven
// protection, and jobs-independence of the registered sweep. Also: the
// registered paper/extension studies (fig6_io, multi_alps, web_section5,
// mechanisms) are jobs-independent and pass their criteria.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sink.h"
#include "web/cluster.h"

namespace alps {
namespace {

/// Small enough to run in well under a second, large enough that the flash
/// crowd saturates the machine: 32 sites x 8 rps x 5 ms = 1.28 s/s of CPU on
/// 4 cores steady (32%), plus 4 member sites at x8 during the spike.
web::WebScaleConfig small_config() {
    web::WebScaleConfig cfg;
    cfg.sites = 32;
    cfg.ncpus = 4;
    cfg.base_rps = 8.0;
    cfg.quantum = util::msec(10);
    cfg.warmup = util::sec(2);
    cfg.measure = util::sec(12);
    cfg.flash_start = util::sec(4);
    cfg.flash_ramp = util::sec(1);
    cfg.flash_hold = util::sec(5);
    cfg.flash_decay = util::sec(1);
    cfg.seed = 77;
    return cfg;
}

void expect_identical(const web::WebScaleResult& a, const web::WebScaleResult& b) {
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
    EXPECT_EQ(a.flash_sites, b.flash_sites);
    EXPECT_EQ(a.protected_p50_ms, b.protected_p50_ms);
    EXPECT_EQ(a.protected_p95_ms, b.protected_p95_ms);
    EXPECT_EQ(a.protected_p99_ms, b.protected_p99_ms);
    EXPECT_EQ(a.flash_p99_ms, b.flash_p99_ms);
    EXPECT_EQ(a.steady_p99_ms, b.steady_p99_ms);
    EXPECT_EQ(a.protected_rps, b.protected_rps);
    EXPECT_EQ(a.total_rps, b.total_rps);
    EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
    EXPECT_EQ(a.overhead_fraction, b.overhead_fraction);
    EXPECT_EQ(a.boundaries_missed, b.boundaries_missed);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.steals, b.steals);
}

TEST(WebScale, ResultIsDeterministic) {
    // Bitwise, not approximate: every arrival, service draw, and percentile
    // derives from (seed, site index) alone.
    auto cfg = small_config();
    cfg.deploy = web::Deploy::kPerCoreAlps;
    const auto a = web::run_web_scale_experiment(cfg);
    const auto b = web::run_web_scale_experiment(cfg);
    EXPECT_GT(a.arrivals, 1000u);
    EXPECT_GT(a.completed, 0u);
    expect_identical(a, b);
}

TEST(WebScale, FlashMembershipIsOneSitePerCorePerMemberRow) {
    // Rows r = i/ncpus with r % stride == 1 spike: 32 sites / 4 cpus =
    // 8 rows, stride 8 selects row 1 only -> 4 member sites, and site 0
    // (row 0, the protected site) is never one of them.
    auto cfg = small_config();
    cfg.deploy = web::Deploy::kKernelOnly;
    const auto r = web::run_web_scale_experiment(cfg);
    EXPECT_EQ(r.flash_sites, 4);

    auto off = cfg;
    off.flash_multiplier = 0.0;
    EXPECT_EQ(web::run_web_scale_experiment(off).flash_sites, 0);
}

TEST(WebScale, PinnedDeploymentNeverStealsOrMigrates) {
    // The per-core deployment hard-pins every site process and driver
    // (Proc::pinned); the kernel's idle-steal and rebalance must leave all
    // of them alone even while flash-crowd cores run deep queues next to
    // idle neighbors. The unpinned kernel-only run on the same traffic is
    // the control proving those paths would otherwise fire.
    auto cfg = small_config();
    cfg.deploy = web::Deploy::kPerCoreAlps;
    const auto pinned = web::run_web_scale_experiment(cfg);
    EXPECT_EQ(pinned.steals, 0u);
    EXPECT_EQ(pinned.migrations, 0u);

    cfg.deploy = web::Deploy::kKernelOnly;
    const auto unpinned = web::run_web_scale_experiment(cfg);
    EXPECT_GT(unpinned.steals + unpinned.migrations, 0u);
}

TEST(WebScale, ProtectionFollowsTheShare) {
    // Revoking site A's purchase (share 8 -> 1) with identical traffic and
    // placement must cost it at least 2x in p99 during the overload.
    auto cfg = small_config();
    cfg.deploy = web::Deploy::kPerCoreAlps;
    const auto bought = web::run_web_scale_experiment(cfg);

    auto revoked = cfg;
    revoked.protected_share = 1;
    const auto free_tier = web::run_web_scale_experiment(revoked);
    EXPECT_GT(free_tier.protected_p99_ms, 2.0 * bought.protected_p99_ms)
        << "share 8 p99 " << bought.protected_p99_ms << " ms vs share 1 p99 "
        << free_tier.protected_p99_ms << " ms";
}

TEST(WebScale, SweepIsJobsIndependent) {
    // The registered experiment's JSON payload must be byte-identical
    // whether its tasks run serially or race across three workers.
    bench::register_all_experiments();
    const harness::Experiment* e =
        harness::ExperimentRegistry::instance().find("web_scale");
    ASSERT_NE(e, nullptr);
    harness::SweepOptions options;
    options.seed = 0x3b5;
    options.quiet = true;
    // One machine, headline intensity only: 5 points instead of 9.
    options.flash_crowd = 8.0;
    options.jobs = 1;
    const auto serial = harness::run_sweep(*e, options, nullptr);
    options.jobs = 3;
    const auto parallel = harness::run_sweep(*e, options, nullptr);
    EXPECT_EQ(serial.task_errors, 0);
    EXPECT_EQ(harness::report_to_json(serial, /*include_run=*/false).dump(2),
              harness::report_to_json(parallel, /*include_run=*/false).dump(2));
}

/// The studies with criteria: the payload is byte-identical serial and across
/// three workers, and evaluate() fails no criterion at the reduced scale.
class RegisteredStudy : public ::testing::TestWithParam<const char*> {};

TEST_P(RegisteredStudy, JobsIndependentAndCriteriaPass) {
    bench::register_all_experiments();
    const harness::Experiment* e =
        harness::ExperimentRegistry::instance().find(GetParam());
    ASSERT_NE(e, nullptr);
    harness::SweepOptions options;
    options.quiet = true;
    options.jobs = 1;
    auto serial = harness::run_sweep(*e, options, nullptr);
    options.jobs = 3;
    const auto parallel = harness::run_sweep(*e, options, nullptr);
    EXPECT_EQ(serial.task_errors, 0);
    EXPECT_EQ(harness::report_to_json(serial, /*include_run=*/false).dump(2),
              harness::report_to_json(parallel, /*include_run=*/false).dump(2));
    std::ostringstream verdicts;
    e->evaluate(serial, verdicts);
    EXPECT_EQ(serial.failed_checks(), 0) << verdicts.str();
}

INSTANTIATE_TEST_SUITE_P(Studies, RegisteredStudy,
                         ::testing::Values("fig6_io", "multi_alps", "web_section5",
                                           "mechanisms"),
                         [](const ::testing::TestParamInfo<const char*>& study) {
                             return std::string(study.param);
                         });

}  // namespace
}  // namespace alps
