#include "posix/cli.h"

#include <gtest/gtest.h>

namespace alps::posix::cli {
namespace {

using util::msec;
using util::sec;

std::optional<core::HostUid> fake_lookup(const std::string& name) {
    if (name == "alice") return 1001;
    if (name == "bob") return 1002;
    return std::nullopt;
}

std::optional<Options> parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"alpsctl"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parse_args(static_cast<int>(argv.size()), argv.data(), fake_lookup);
}

TEST(CliAssignment, ParsesNameEqualsShare) {
    const auto a = parse_assignment("1234=3");
    ASSERT_TRUE(a);
    EXPECT_EQ(a->first, "1234");
    EXPECT_EQ(a->second, 3);
}

TEST(CliAssignment, RejectsMalformed) {
    EXPECT_FALSE(parse_assignment("1234"));
    EXPECT_FALSE(parse_assignment("=3"));
    EXPECT_FALSE(parse_assignment("x="));
    EXPECT_FALSE(parse_assignment("x=0"));
    EXPECT_FALSE(parse_assignment("x=-1"));
    EXPECT_FALSE(parse_assignment("x=abc"));
}

TEST(CliDuration, ParsesUnits) {
    EXPECT_EQ(parse_duration("10", msec(1)), msec(10));
    EXPECT_EQ(parse_duration("10ms", sec(1)), msec(10));  // suffix wins
    EXPECT_EQ(parse_duration("5s", msec(1)), sec(5));
    EXPECT_EQ(parse_duration("30", sec(1)), sec(30));
    EXPECT_FALSE(parse_duration("0", sec(1)));
    EXPECT_FALSE(parse_duration("-3", sec(1)));
    EXPECT_FALSE(parse_duration("abc", sec(1)));
    EXPECT_FALSE(parse_duration("", sec(1)));
}

TEST(CliDuration, RejectsCountThatOverflowsNanoseconds) {
    // INT64_MAX ns is 9223372036.85 s: the largest whole second fits, the
    // next one (and anything larger) would wrap negative.
    EXPECT_EQ(parse_duration("9223372036s", msec(1)), sec(9'223'372'036));
    EXPECT_FALSE(parse_duration("9223372037s", msec(1)));
    EXPECT_FALSE(parse_duration("9300000000s", msec(1)));
    EXPECT_FALSE(parse_duration("9300000000", sec(1)));
    EXPECT_FALSE(parse_duration("9223372036855ms", sec(1)));
}

TEST(CliUser, ResolvesNumericAndNamed) {
    EXPECT_EQ(resolve_user("1001", fake_lookup), 1001);
    EXPECT_EQ(resolve_user("alice", fake_lookup), 1001);
    EXPECT_EQ(resolve_user("bob", fake_lookup), 1002);
    EXPECT_FALSE(resolve_user("mallory", fake_lookup));
    EXPECT_FALSE(resolve_user("-5", fake_lookup));
}

TEST(CliArgs, PidMode) {
    const auto opt = parse({"--duration", "30", "--quantum", "20ms", "111=1", "222=3"});
    ASSERT_TRUE(opt);
    EXPECT_EQ(opt->duration, sec(30));
    EXPECT_EQ(opt->quantum, msec(20));
    EXPECT_TRUE(opt->lazy);
    ASSERT_EQ(opt->pid_targets.size(), 2u);
    EXPECT_EQ(opt->pid_targets[0].pid, 111);
    EXPECT_EQ(opt->pid_targets[0].share, 1);
    EXPECT_EQ(opt->pid_targets[1].pid, 222);
    EXPECT_EQ(opt->pid_targets[1].share, 3);
    EXPECT_TRUE(opt->user_targets.empty());
}

TEST(CliArgs, UserMode) {
    const auto opt = parse({"--user", "alice=1", "--user", "bob=3", "--quiet"});
    ASSERT_TRUE(opt);
    EXPECT_TRUE(opt->quiet);
    ASSERT_EQ(opt->user_targets.size(), 2u);
    EXPECT_EQ(opt->user_targets[0].uid, 1001);
    EXPECT_EQ(opt->user_targets[1].uid, 1002);
    EXPECT_EQ(opt->user_targets[1].share, 3);
}

TEST(CliArgs, EagerFlag) {
    const auto opt = parse({"--eager", "1=1"});
    ASSERT_TRUE(opt);
    EXPECT_FALSE(opt->lazy);
}

TEST(CliArgs, DefaultsApply) {
    const auto opt = parse({"42=7"});
    ASSERT_TRUE(opt);
    EXPECT_EQ(opt->quantum, msec(10));
    EXPECT_EQ(opt->duration, sec(10));
    EXPECT_TRUE(opt->lazy);
    EXPECT_FALSE(opt->quiet);
}

TEST(CliArgs, RejectsEmptyAndMixedAndUnknown) {
    EXPECT_FALSE(parse({}));
    EXPECT_FALSE(parse({"--user", "alice=1", "42=1"}));  // mixed modes
    EXPECT_FALSE(parse({"--user", "mallory=1"}));        // unknown user
    EXPECT_FALSE(parse({"--quantum"}));                  // missing value
    EXPECT_FALSE(parse({"--duration", "x"}));
    EXPECT_FALSE(parse({"0=1"}));    // pid must be positive
    EXPECT_FALSE(parse({"-9=1"}));   // not an option, not a valid pid
}

TEST(CliArgs, RejectsOverflowingQuantumAndDuration) {
    EXPECT_FALSE(parse({"--duration", "9300000000s", "42=1"}));
    EXPECT_FALSE(parse({"--quantum", "9300000000s", "42=1"}));
    EXPECT_FALSE(parse({"--quantum", "9223372036855", "42=1"}));  // bare = ms
}

TEST(CliArgs, RejectsSharesWhoseCycleOverflowsNanoseconds) {
    // INT64_MAX / 10 ms = 922337203685 shares fit in one S·Q cycle.
    EXPECT_TRUE(parse({"42=922337203685"}));
    EXPECT_FALSE(parse({"42=922337203686"}));
    EXPECT_FALSE(parse({"42=9223372036854775807"}));
    // The total counts, in either mode, and against the quantum given.
    EXPECT_FALSE(parse({"42=922337203685", "43=1"}));
    EXPECT_FALSE(parse({"--user", "alice=922337203000", "--user", "bob=1000"}));
    EXPECT_TRUE(parse({"--quantum", "1", "42=9223372036854"}));
    EXPECT_FALSE(parse({"--quantum", "1", "42=9223372036855"}));
    EXPECT_FALSE(parse({"42=922337203685", "--quantum", "20"}));  // fits at 10 ms
}

TEST(CliArgs, RejectsRepeatedPid) {
    EXPECT_FALSE(parse({"--duration", "1", "111=1", "111=2"}));
    EXPECT_FALSE(parse({"111=1", "222=1", "111=1"}));
}

TEST(CliArgs, RejectsRepeatedUser) {
    EXPECT_FALSE(parse({"--user", "alice=1", "--user", "alice=2"}));
    // The same account by name and by number is the same principal.
    EXPECT_FALSE(parse({"--user", "alice=1", "--user", "1001=2"}));
}

}  // namespace
}  // namespace alps::posix::cli
