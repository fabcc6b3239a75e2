#include "util/table.h"

#include <gtest/gtest.h>

#include "util/assert.h"

namespace alps::util {
namespace {

TEST(TextTable, RendersAlignedColumns) {
    TextTable t({"name", "x"});
    t.add_row({"a", "1.5"});
    t.add_row({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name   | x   |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2   |"), std::string::npos);
}

TEST(TextTable, PadsMultiByteCellsByDisplayWidth) {
    // Σ and · are two bytes each in UTF-8 but one column on screen: every
    // row's borders must line up column for column.
    TextTable t({"criterion", "ok"});
    t.add_row({"Σa·Q == t_c", "yes"});
    t.add_row({"plain ascii row", "no"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| Σa·Q == t_c     | yes |"), std::string::npos) << out;
    EXPECT_NE(out.find("| plain ascii row | no  |"), std::string::npos) << out;
}

TEST(TextTable, RowArityMismatchViolatesContract) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, CellsWithCommasRejected) {
    TextTable t({"a"});
    EXPECT_THROW(t.add_row({"1,2"}), ContractViolation);
}

TEST(TextTable, EmptyHeadersViolateContract) {
    EXPECT_THROW(TextTable({}), ContractViolation);
}

TEST(Fmt, RoundsToRequestedDecimals) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.14159, 0), "3");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
    EXPECT_EQ(fmt(2.0, 3), "2.000");
}

}  // namespace
}  // namespace alps::util
