// Tier-1 coverage of the paper's claims: every registered experiment with an
// evaluate hook runs at the reduced scale and must fail none of its criteria.
// The criterion count of each is pinned, so a claim cannot quietly drop out
// of its experiment's verdict table.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sink.h"

namespace alps {
namespace {

struct Claims {
    const char* experiment;
    std::size_t criteria;
};

void PrintTo(const Claims& claims, std::ostream* out) { *out << claims.experiment; }

constexpr Claims kClaims[] = {
    {"fig4", 4},         {"fig8_fig9", 3},  {"fig6_io", 2},        {"multi_alps", 2},
    {"web_section5", 4}, {"mechanisms", 5}, {"fault_campaign", 6},
};

/// Its tasks crash and stall on purpose; check.sh drives it under --isolate.
constexpr const char* kNotInProcess = "chaos_campaign";

class PaperClaims : public ::testing::TestWithParam<Claims> {};

TEST_P(PaperClaims, HoldAtReducedScale) {
    bench::register_all_experiments();
    const harness::Experiment* e =
        harness::ExperimentRegistry::instance().find(GetParam().experiment);
    ASSERT_NE(e, nullptr);
    ASSERT_TRUE(e->evaluate);
    harness::SweepOptions options;
    options.quiet = true;
    options.jobs = 4;
    harness::SweepReport report = harness::run_sweep(*e, options, nullptr);
    EXPECT_EQ(report.task_errors, 0);
    std::ostringstream verdicts;
    e->evaluate(report, verdicts);
    EXPECT_EQ(report.checks.size(), GetParam().criteria) << verdicts.str();
    EXPECT_EQ(report.failed_checks(), 0) << verdicts.str();
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperClaims, ::testing::ValuesIn(kClaims),
                         [](const ::testing::TestParamInfo<Claims>& claims) {
                             return std::string(claims.param.experiment);
                         });

TEST(PaperClaims, EveryEvaluatedExperimentIsCovered) {
    bench::register_all_experiments();
    for (const harness::Experiment* e : harness::ExperimentRegistry::instance().list()) {
        if (!e->evaluate || e->name == kNotInProcess) continue;
        EXPECT_TRUE(std::any_of(std::begin(kClaims), std::end(kClaims),
                                [e](const Claims& c) { return e->name == c.experiment; }))
            << e->name << " has criteria this test does not run";
    }
}

}  // namespace
}  // namespace alps
