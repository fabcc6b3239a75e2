#include <gtest/gtest.h>

#include "metrics/cycle_log.h"
#include "metrics/exact_cycle_log.h"
#include "metrics/slope_analysis.h"
#include "metrics/threshold.h"
#include "util/assert.h"

namespace alps::metrics {
namespace {

using core::CycleRecord;
using util::Duration;
using util::msec;
using util::sec;
using util::TimePoint;

CycleRecord make_record(std::vector<util::Share> shares, std::vector<Duration> consumed,
                        std::uint64_t index = 0) {
    CycleRecord rec;
    rec.index = index;
    rec.shares = std::move(shares);
    rec.consumed = std::move(consumed);
    rec.ids.resize(rec.shares.size());
    for (std::size_t i = 0; i < rec.ids.size(); ++i) {
        rec.ids[i] = static_cast<core::EntityId>(i + 1);
    }
    return rec;
}

// ----------------------------------------------------------------------------
// Per-cycle scoring (cycle_rms_error, cycle_fractions)

TEST(CycleLog, PerfectCycleHasZeroError) {
    const auto rec = make_record({1, 2, 3}, {msec(10), msec(20), msec(30)});
    EXPECT_DOUBLE_EQ(cycle_rms_error(rec), 0.0);
}

TEST(CycleLog, KnownErrorValue) {
    // Shares 1:1, consumption 15/5 of a 20 total: ideal 10/10, rel errs ±0.5.
    const auto rec = make_record({1, 1}, {msec(15), msec(5)});
    EXPECT_NEAR(cycle_rms_error(rec), 0.5, 1e-12);
}

TEST(CycleLog, EmptyCycleIsZero) {
    const auto rec = make_record({1, 2}, {Duration::zero(), Duration::zero()});
    EXPECT_DOUBLE_EQ(cycle_rms_error(rec), 0.0);
}

TEST(CycleLog, FractionsSumToOne) {
    const auto rec = make_record({1, 2, 3}, {msec(12), msec(18), msec(30)});
    const auto f = cycle_fractions(rec);
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-12);
    EXPECT_NEAR(f[0], 0.2, 1e-12);
}

// ----------------------------------------------------------------------------
// ExactCycleLog

TEST(ExactCycleLog, DifferencesConsecutiveSnapshots) {
    std::map<core::EntityId, Duration> cpu{{1, msec(0)}, {2, msec(0)}};
    ExactCycleLog log([&](core::EntityId id) { return cpu.at(id); });

    // First record establishes the baseline and is not logged.
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 0));
    EXPECT_EQ(log.cycle_count(), 0u);

    cpu[1] = msec(10);
    cpu[2] = msec(30);
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 1));
    ASSERT_EQ(log.cycle_count(), 1u);
    EXPECT_EQ(log.records()[0].consumed[0], msec(10));
    EXPECT_EQ(log.records()[0].consumed[1], msec(30));

    cpu[1] = msec(15);
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 2));
    ASSERT_EQ(log.cycle_count(), 2u);
    EXPECT_EQ(log.records()[1].consumed[0], msec(5));
    EXPECT_EQ(log.records()[1].consumed[1], Duration::zero());
}

TEST(ExactCycleLog, NewEntityMidRunRebaselines) {
    std::map<core::EntityId, Duration> cpu{{1, msec(0)}};
    ExactCycleLog log([&](core::EntityId id) { return cpu.at(id); });
    log.observe(make_record({1}, {Duration::zero()}, 0));
    cpu[1] = msec(10);
    log.observe(make_record({1}, {Duration::zero()}, 1));
    EXPECT_EQ(log.cycle_count(), 1u);

    // Entity 2 appears: the cycle that introduces it is skipped.
    cpu[2] = msec(100);
    cpu[1] = msec(20);
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 2));
    EXPECT_EQ(log.cycle_count(), 1u);

    cpu[1] = msec(25);
    cpu[2] = msec(105);
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 3));
    ASSERT_EQ(log.cycle_count(), 2u);
    EXPECT_EQ(log.records()[1].consumed[1], msec(5));  // not the pre-join 100
}

TEST(ExactCycleLog, NullReaderViolatesContract) {
    EXPECT_THROW(ExactCycleLog(nullptr), util::ContractViolation);
}

TEST(ExactCycleLog, MeanSkipsWarmupAndHonorsLimit) {
    std::map<core::EntityId, Duration> cpu{{1, msec(0)}, {2, msec(0)}};
    ExactCycleLog log([&](core::EntityId id) { return cpu.at(id); });
    const auto end_cycle = [&](std::uint64_t index) {
        log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, index));
    };
    end_cycle(0);  // baseline
    cpu[1] += msec(20);
    end_cycle(1);  // 20/0: err 1.0
    cpu[1] += msec(10);
    cpu[2] += msec(10);
    end_cycle(2);  // 10/10: err 0.0
    cpu[1] += msec(15);
    cpu[2] += msec(5);
    end_cycle(3);  // 15/5: err 0.5
    EXPECT_EQ(log.cycle_count(), 3u);
    EXPECT_NEAR(log.mean_rms_relative_error(0), 0.5, 1e-12);
    EXPECT_NEAR(log.mean_rms_relative_error(1), 0.25, 1e-12);
    EXPECT_NEAR(log.mean_rms_relative_error(1, 1), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(log.mean_rms_relative_error(5), 0.0);  // past the end
}

TEST(ExactCycleLog, MeanErrorMatchesCycleLogMath) {
    std::map<core::EntityId, Duration> cpu{{1, msec(0)}, {2, msec(0)}};
    ExactCycleLog log([&](core::EntityId id) { return cpu.at(id); });
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 0));
    cpu[1] = msec(15);
    cpu[2] = msec(5);
    log.observe(make_record({1, 1}, {Duration::zero(), Duration::zero()}, 1));
    EXPECT_NEAR(log.mean_rms_relative_error(), 0.5, 1e-12);
}

// ----------------------------------------------------------------------------
// Slope analysis (Table 3 machinery)

TEST(ConsumptionSeries, RateIsLeastSquaresSlope) {
    ConsumptionSeries s;
    for (int i = 0; i <= 10; ++i) {
        // 40% CPU rate: cumulative 0.4 s per second.
        s.add(TimePoint{} + sec(i), Duration{sec(i).count() * 4 / 10});
    }
    EXPECT_NEAR(s.rate(TimePoint{}, TimePoint{} + sec(11)), 0.4, 1e-9);
}

TEST(ConsumptionSeries, WindowBoundsAreHalfOpen) {
    ConsumptionSeries s;
    s.add(TimePoint{} + sec(1), msec(100));
    s.add(TimePoint{} + sec(2), msec(200));
    s.add(TimePoint{} + sec(3), msec(300));
    EXPECT_EQ(s.points_in(TimePoint{} + sec(1), TimePoint{} + sec(3)), 2u);
    EXPECT_EQ(s.points_in(TimePoint{} + sec(1), TimePoint{} + sec(4)), 3u);
    EXPECT_THROW((void)s.rate(TimePoint{} + sec(1), TimePoint{} + sec(2)),
                 util::ContractViolation);  // only 1 point
}

TEST(AnalyzePhase, RecoversWithinGroupFractions) {
    // Rates 0.1 / 0.2 / 0.3 with shares 1:2:3 -> zero relative error.
    std::vector<ConsumptionSeries> series(3);
    for (int p = 0; p < 3; ++p) {
        for (int i = 0; i <= 10; ++i) {
            series[static_cast<std::size_t>(p)].add(
                TimePoint{} + sec(i), Duration{sec(i).count() * (p + 1) / 10});
        }
    }
    const std::vector<const ConsumptionSeries*> ptrs{&series[0], &series[1], &series[2]};
    const auto res =
        analyze_phase(ptrs, {1, 2, 3}, TimePoint{}, TimePoint{} + sec(11));
    for (int p = 0; p < 3; ++p) {
        EXPECT_NEAR(res[static_cast<std::size_t>(p)].fraction,
                    (p + 1) / 6.0, 1e-9);
        EXPECT_NEAR(res[static_cast<std::size_t>(p)].relative_error, 0.0, 1e-9);
    }
}

TEST(AnalyzePhase, ReportsRelativeError) {
    // Both at the same rate but shares 1:3 -> fractions 0.5/0.5 vs 0.25/0.75.
    std::vector<ConsumptionSeries> series(2);
    for (int p = 0; p < 2; ++p) {
        for (int i = 0; i <= 4; ++i) {
            series[static_cast<std::size_t>(p)].add(TimePoint{} + sec(i),
                                                    Duration{sec(i).count() / 2});
        }
    }
    const std::vector<const ConsumptionSeries*> ptrs{&series[0], &series[1]};
    const auto res = analyze_phase(ptrs, {1, 3}, TimePoint{}, TimePoint{} + sec(5));
    EXPECT_NEAR(res[0].relative_error, 1.0, 1e-9);        // 0.5 vs 0.25
    EXPECT_NEAR(res[1].relative_error, 1.0 / 3.0, 1e-9);  // 0.5 vs 0.75
}

TEST(AnalyzePhase, MismatchedInputsViolateContract) {
    ConsumptionSeries s;
    const std::vector<const ConsumptionSeries*> ptrs{&s};
    EXPECT_THROW(analyze_phase(ptrs, {1, 2}, TimePoint{}, TimePoint{} + sec(1)),
                 util::ContractViolation);
    EXPECT_THROW(analyze_phase({}, {}, TimePoint{}, TimePoint{} + sec(1)),
                 util::ContractViolation);
}

// ----------------------------------------------------------------------------
// Threshold solver (§4.2)

TEST(Threshold, PaperFitsGivePaperPredictions) {
    // The paper's fitted lines and predicted thresholds 39 / 54 / 75.
    EXPECT_NEAR(breakdown_threshold({0.0639, 0.0604, 1.0}), 39.0, 1.0);
    EXPECT_NEAR(breakdown_threshold({0.0338, 0.0340, 1.0}), 54.0, 1.0);
    EXPECT_NEAR(breakdown_threshold({0.0172, 0.0160, 1.0}), 75.0, 1.0);
}

TEST(Threshold, SatisfiesDefiningEquation) {
    const util::LinearFit fit{0.05, 0.1, 1.0};
    const double n = breakdown_threshold(fit);
    const double lhs = fit.slope * n + fit.intercept;
    EXPECT_NEAR(lhs, 100.0 / (n + 1.0), 1e-9);
}

TEST(Threshold, NonPositiveSlopeViolatesContract) {
    EXPECT_THROW((void)breakdown_threshold({0.0, 1.0, 1.0}), util::ContractViolation);
    EXPECT_THROW((void)breakdown_threshold({-0.1, 1.0, 1.0}), util::ContractViolation);
}

}  // namespace
}  // namespace alps::metrics
