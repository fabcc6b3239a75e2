// Robustness sweeps for the /proc parsers: random and adversarial inputs
// must never crash, hang, or return nonsense-accepted results.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "posix/proc_stat.h"
#include "util/rng.h"

namespace alps::posix {
namespace {

class ProcStatFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProcStatFuzzTest, RandomBytesNeverCrash) {
    util::Rng rng(GetParam());
    for (int iter = 0; iter < 2000; ++iter) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
        std::string input;
        input.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            // Printable-ish byte soup with the structural characters
            // over-represented so parser branches actually get hit.
            const auto roll = rng.uniform_int(0, 9);
            if (roll < 2) {
                input.push_back(' ');
            } else if (roll == 2) {
                input.push_back('(');
            } else if (roll == 3) {
                input.push_back(')');
            } else if (roll < 7) {
                input.push_back(static_cast<char>('0' + rng.uniform_int(0, 9)));
            } else {
                input.push_back(static_cast<char>(rng.uniform_int(32, 126)));
            }
        }
        const auto st = parse_proc_stat(input);
        if (st.has_value()) {
            // Anything accepted must be structurally sane: the state is one
            // visible character, never a separator.
            EXPECT_TRUE(std::isgraph(static_cast<unsigned char>(st->state)));
        }
        (void)parse_schedstat(input);
    }
}

TEST_P(ProcStatFuzzTest, MutatedValidLinesStaySane) {
    util::Rng rng(GetParam() ^ 0x5eed);
    const std::string valid =
        "1234 (myproc) R 1 1234 1234 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 "
        "12345 1000000 100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string input = valid;
        const int mutations = static_cast<int>(rng.uniform_int(1, 8));
        for (int m = 0; m < mutations; ++m) {
            const auto pos = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(input.size()) - 1));
            switch (rng.uniform_int(0, 2)) {
                case 0:
                    input[pos] = static_cast<char>(rng.uniform_int(32, 126));
                    break;
                case 1:
                    input.erase(pos, 1);
                    break;
                default:
                    input.insert(pos, 1,
                                 static_cast<char>(rng.uniform_int(32, 126)));
                    break;
            }
            if (input.empty()) break;
        }
        const auto st = parse_proc_stat(input);
        if (st.has_value()) {
            EXPECT_TRUE(std::isgraph(static_cast<unsigned char>(st->state)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcStatFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace alps::posix
