// Unit tests for the open-loop traffic subsystem: arrival-process
// statistics (Poisson mean/CV, flash-crowd shape and determinism), heavy-tailed service draws (Pareto tail index via a
// log-log CCDF regression), and the SoA request table's slot-reuse and
// generation invariants. Run under ASan by check.sh like every tier-1
// test, which is what makes the table-reuse tests meaningful.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "traffic/arrival.h"
#include "traffic/generator.h"
#include "traffic/latency.h"
#include "traffic/service.h"
#include "traffic/table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace alps::traffic {
namespace {

using util::Duration;
using util::msec;
using util::sec;
using util::TimePoint;
using util::usec;

// ----------------------------------------------------------------------------
// Arrival process

std::vector<TimePoint> draw_arrivals(const ArrivalConfig& cfg, std::uint64_t seed,
                                     Duration horizon) {
    ArrivalProcess proc(cfg, util::Rng(seed));
    std::vector<TimePoint> out;
    TimePoint t{};
    const TimePoint end = TimePoint{} + horizon;
    for (;;) {
        t = proc.next(t);
        if (t >= end) break;
        out.push_back(t);
    }
    return out;
}

TEST(Arrival, PoissonInterarrivalMeanAndCv) {
    ArrivalConfig cfg;
    cfg.base_rps = 200.0;
    const auto arrivals = draw_arrivals(cfg, 42, sec(200));  // ~40k draws
    ASSERT_GT(arrivals.size(), 30000u);
    util::RunningStats gaps;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        gaps.add(util::to_sec(arrivals[i] - arrivals[i - 1]));
    }
    // Mean interarrival = 1/λ = 5 ms; an exponential's CV is 1.
    EXPECT_NEAR(gaps.mean(), 1.0 / 200.0, 0.0002);
    EXPECT_NEAR(gaps.stddev() / gaps.mean(), 1.0, 0.03);
}

TEST(Arrival, StrictlyIncreasingAndDeterministic) {
    ArrivalConfig cfg;
    cfg.base_rps = 500.0;
    const auto a = draw_arrivals(cfg, 7, sec(20));
    const auto b = draw_arrivals(cfg, 7, sec(20));
    EXPECT_EQ(a, b);  // same seed, same stream, bit-identical
    for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
    const auto c = draw_arrivals(cfg, 8, sec(20));
    EXPECT_NE(a, c);  // different seed, different sample path
}

TEST(Arrival, RateEnvelopeIsPureAndSeedIndependent) {
    ArrivalConfig cfg;
    cfg.base_rps = 100.0;
    FlashCrowd spike;
    spike.start = TimePoint{} + sec(10);
    spike.ramp = sec(2);
    spike.hold = sec(5);
    spike.decay = sec(3);
    spike.multiplier = 6.0;
    cfg.spikes.push_back(spike);

    // The envelope is a pure function of config and time: no rng anywhere.
    for (int i = 0; i <= 40; ++i) {
        const TimePoint t = TimePoint{} + sec(1) * i;
        EXPECT_DOUBLE_EQ(rate_envelope(cfg, t), rate_envelope(cfg, t));
    }
    // Shape: quiet before the spike, ×multiplier during the hold, and the
    // bound dominates every instantaneous rate.
    const double before = rate_envelope(cfg, spike.start - sec(5));
    const double during = rate_envelope(cfg, spike.start + sec(4));
    EXPECT_GT(during, 4.0 * before);
    for (int i = 0; i <= 400; ++i) {
        const TimePoint t = TimePoint{} + msec(100) * i;
        EXPECT_LE(rate_envelope(cfg, t), rate_bound(cfg) + 1e-9);
    }
}

TEST(Arrival, FlashCrowdConcentratesArrivals) {
    ArrivalConfig cfg;
    cfg.base_rps = 100.0;
    FlashCrowd spike;
    spike.start = TimePoint{} + sec(20);
    spike.ramp = sec(1);
    spike.hold = sec(8);
    spike.decay = sec(1);
    spike.multiplier = 10.0;
    cfg.spikes.push_back(spike);

    // The spike window must see ~multiplier× the base arrival density,
    // whatever the seed: the envelope is deterministic, only the noise
    // around it varies.
    for (const std::uint64_t seed : {1ULL, 99ULL, 123456789ULL}) {
        const auto arrivals = draw_arrivals(cfg, seed, sec(40));
        std::uint64_t in_hold = 0, in_quiet = 0;
        const TimePoint h0 = spike.start + spike.ramp;
        const TimePoint h1 = h0 + spike.hold;
        for (const TimePoint t : arrivals) {
            if (t >= h0 && t < h1) ++in_hold;
            if (t >= TimePoint{} + sec(4) && t < TimePoint{} + sec(12)) ++in_quiet;
        }
        // Both windows are 8 s wide; hold runs at 1000 rps vs 100 rps.
        ASSERT_GT(in_quiet, 0u);
        const double ratio = static_cast<double>(in_hold) / static_cast<double>(in_quiet);
        EXPECT_NEAR(ratio, 10.0, 1.5) << "seed " << seed;
    }
}

// ----------------------------------------------------------------------------
// Service-time models

TEST(Service, ExponentialMatchesSeedModelDraw) {
    // The default model must reproduce the seed web model's draw exactly:
    // one rng.exponential(mean), floored at 10 µs.
    ServiceModel m;
    util::Rng a(5), b(5);
    for (int i = 0; i < 1000; ++i) {
        const Duration want = std::max(a.exponential(msec(4)), usec(10));
        EXPECT_EQ(m.draw(b, msec(4)), want);
    }
}

TEST(Service, ParetoTailIndexViaCcdfRegression) {
    ServiceModel m;
    m.kind = ServiceKind::kPareto;
    m.shape = 2.2;
    util::Rng rng(31);
    std::vector<double> xs;
    xs.reserve(200000);
    for (int i = 0; i < 200000; ++i) {
        xs.push_back(util::to_sec(m.draw(rng, msec(10))));
    }
    std::sort(xs.begin(), xs.end());
    // Empirical mean ≈ requested mean.
    EXPECT_NEAR(util::mean(xs), 0.010, 0.001);
    // On log-log axes the CCDF of a Pareto is a line of slope -α. Fit the
    // tail (top 10%, trimming the last few points where the empirical CCDF
    // gets noisy).
    std::vector<double> lx, ly;
    const std::size_t n = xs.size();
    for (std::size_t i = n - n / 10; i < n - 50; ++i) {
        lx.push_back(std::log(xs[i]));
        ly.push_back(std::log(static_cast<double>(n - i) / static_cast<double>(n)));
    }
    const util::LinearFit fit = util::linear_fit(lx, ly);
    EXPECT_NEAR(fit.slope, -2.2, 0.15);
    EXPECT_GT(fit.r_squared, 0.99);
}

// ----------------------------------------------------------------------------
// Request table

TEST(Table, SlotsAreReusedWithoutGrowth) {
    RequestTable t;
    t.reserve(8);
    // Churn far more requests than live slots: the column arrays must not
    // grow past the high-water mark of concurrent in-flight rows.
    std::vector<ReqId> live;
    for (int round = 0; round < 1000; ++round) {
        while (live.size() < 8) {
            live.push_back(t.create(0, 0, TimePoint{} + usec(round)));
        }
        for (int i = 0; i < 5; ++i) {
            t.release(live.back());
            live.pop_back();
        }
    }
    EXPECT_EQ(t.rows(), 8u);
    EXPECT_EQ(t.peak_in_flight(), 8u);
    EXPECT_EQ(t.created() - t.released(), t.in_flight());
    EXPECT_EQ(t.in_flight(), live.size());
}

TEST(Table, GenerationsInvalidateStaleHandles) {
    RequestTable t;
    const ReqId a = t.create(3, 1, TimePoint{} + msec(1));
    EXPECT_TRUE(t.valid(a));
    EXPECT_EQ(t.site(a), 3u);
    EXPECT_EQ(t.klass(a), 1u);
    t.release(a);
    EXPECT_FALSE(t.valid(a));
    // The slot comes back with a bumped generation: the old handle stays
    // dead even though the storage is reused.
    const ReqId b = t.create(4, 0, TimePoint{} + msec(2));
    EXPECT_TRUE(t.valid(b));
    EXPECT_NE(a, b);
    EXPECT_FALSE(t.valid(a));
    EXPECT_FALSE(t.valid(kNoRequest));
}

TEST(Table, TimestampPipelinePerRow) {
    RequestTable t;
    const TimePoint t0 = TimePoint{} + msec(10);
    const ReqId id = t.create(0, 0, t0);
    EXPECT_EQ(t.arrival(id), t0);
    t.release(id);
    EXPECT_EQ(t.in_flight(), 0u);
}

TEST(Table, IdRingIsFifoAcrossGrowth) {
    IdRing ring;
    RequestTable t;
    std::vector<ReqId> ids;
    // Push through several doublings with interleaved pops to force the
    // wrap-around copy path.
    std::size_t popped = 0;
    for (int i = 0; i < 200; ++i) {
        ids.push_back(t.create(0, 0, TimePoint{} + usec(i)));
        ring.push(ids.back());
        if (i % 3 == 2) {
            EXPECT_EQ(ring.pop(), ids[popped++]);
        }
    }
    while (!ring.empty()) EXPECT_EQ(ring.pop(), ids[popped++]);
    EXPECT_EQ(popped, ids.size());
}

// ----------------------------------------------------------------------------
// Latency recorder

TEST(Latency, ExactQuantilesAndCounters) {
    LatencyRecorder rec(2);
    for (int i = 1; i <= 100; ++i) {
        rec.record(0, msec(i));
    }
    rec.record(1, msec(500));
    rec.drop(0);
    rec.timeout(1);
    EXPECT_EQ(rec.completed(0), 100u);
    // Rank convention: index = q·(n−1)+0.5, so the even-count median takes
    // the upper of the two middle samples.
    EXPECT_EQ(rec.quantile(0, 0.5), msec(51));
    EXPECT_EQ(rec.quantile(0, 0.95), msec(95));
    EXPECT_EQ(rec.quantile(0, 0.99), msec(99));
    EXPECT_EQ(rec.drops(0), 1u);
    EXPECT_EQ(rec.timeouts(1), 1u);
    // Merged quantile spans both sites' samples.
    EXPECT_EQ(rec.quantile_of({0, 1}, 1.0), msec(500));
    EXPECT_EQ(rec.total_completed(), 101u);
}

// ----------------------------------------------------------------------------
// Derived streams

TEST(Streams, DerivedSeedsAreDistinctAndStable) {
    const std::uint64_t master = 11;
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t k = 0; k < 4096; ++k) {
        seeds.push_back(util::derive_stream_seed(master, k));
    }
    std::vector<std::uint64_t> uniq = seeds;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_EQ(uniq.size(), seeds.size());
    // Stable across calls (it is the persistence contract for BENCH seeds).
    EXPECT_EQ(util::derive_stream_seed(master, 0), util::derive_stream_seed(11, 0));
    EXPECT_NE(util::derive_stream_seed(master, 0), util::derive_stream_seed(12, 0));
}

}  // namespace
}  // namespace alps::traffic
