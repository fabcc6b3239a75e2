#include "util/shares.h"

#include <gtest/gtest.h>

#include "util/assert.h"

namespace alps::util {
namespace {

TEST(Shares, PaperCycleExample) {
    // §2.1: shares n, 2n, 3n make a 6n-quantum cycle. The paper divides by
    // the gcd first (a 6Q cycle); the scheduler keeps the raw sum.
    const std::vector<Share> s{4, 8, 12};
    EXPECT_EQ(total_shares(s), 24);
    EXPECT_EQ(ideal_fractions(s), ideal_fractions(std::vector<Share>{1, 2, 3}));
}

TEST(Shares, NonPositiveShareViolatesContract) {
    const std::vector<Share> s{1, 0};
    EXPECT_THROW((void)total_shares(s), ContractViolation);
}

TEST(Shares, IdealFractionsSumToOne) {
    const std::vector<Share> s{1, 2, 3};
    const auto f = ideal_fractions(s);
    EXPECT_DOUBLE_EQ(f[0], 1.0 / 6.0);
    EXPECT_DOUBLE_EQ(f[1], 2.0 / 6.0);
    EXPECT_DOUBLE_EQ(f[2], 3.0 / 6.0);
    EXPECT_DOUBLE_EQ(f[0] + f[1] + f[2], 1.0);
}

}  // namespace
}  // namespace alps::util
