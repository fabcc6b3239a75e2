#include "os/bsd_policy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.h"

namespace alps::os {
namespace {

using util::msec;
using util::sec;

Proc make_proc(Pid pid, double estcpu = 0.0, int nice = 0) {
    Proc p;
    p.pid = pid;
    p.nice = nice;
    p.estcpu = estcpu;
    p.state = RunState::kRunnable;
    return p;
}

TEST(BsdPolicy, NewProcessStartsAtBasePriority) {
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    EXPECT_DOUBLE_EQ(p.estcpu, 0.0);
    EXPECT_DOUBLE_EQ(p.usrpri, BsdPolicy::kPuser);
}

TEST(BsdPolicy, ChargeRaisesEstcpuAndWorsensPriority) {
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    pol.charge(p, msec(100));  // 10 stat ticks
    EXPECT_DOUBLE_EQ(p.estcpu, 10.0);
    EXPECT_DOUBLE_EQ(p.usrpri, BsdPolicy::kPuser + 10.0 / 4.0);
}

TEST(BsdPolicy, EstcpuClampsAtLimit) {
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    pol.charge(p, sec(60));
    EXPECT_DOUBLE_EQ(p.estcpu, BsdPolicy::kEstcpuLimit);
    EXPECT_LE(p.usrpri, BsdPolicy::kMaxPri);
}

TEST(BsdPolicy, NiceWorsensPriority) {
    BsdPolicy pol;
    Proc nice0 = make_proc(1, 0.0, 0);
    Proc nice10 = make_proc(2, 0.0, 10);
    pol.add(nice0);
    pol.add(nice10);
    EXPECT_GT(nice10.usrpri, nice0.usrpri);
}

TEST(BsdPolicy, FifoWithinPriorityQueue) {
    BsdPolicy pol;
    Proc a = make_proc(1), b = make_proc(2);
    pol.add(a);
    pol.add(b);
    pol.enqueue(a);
    pol.enqueue(b);
    EXPECT_EQ(pol.peek(), &a);
    EXPECT_EQ(pol.pop(), &a);
    EXPECT_EQ(pol.pop(), &b);
    EXPECT_EQ(pol.pop(), nullptr);
}

TEST(BsdPolicy, LowerPriorityValueWinsAcrossQueues) {
    BsdPolicy pol;
    Proc good = make_proc(1);
    Proc bad = make_proc(2);
    pol.add(good);
    pol.add(bad);
    // add() zeroes estcpu, so install the history afterwards and recompute.
    bad.estcpu = 200.0;
    pol.charge(bad, util::Duration::zero());
    pol.enqueue(bad);
    pol.enqueue(good);
    EXPECT_EQ(pol.pop(), &good);
}

TEST(BsdPolicy, DoubleEnqueueViolatesContract) {
    BsdPolicy pol;
    Proc a = make_proc(1);
    pol.add(a);
    pol.enqueue(a);
    EXPECT_THROW(pol.enqueue(a), util::ContractViolation);
}

TEST(BsdPolicy, DequeueRemoves) {
    BsdPolicy pol;
    Proc a = make_proc(1), b = make_proc(2);
    pol.add(a);
    pol.add(b);
    pol.enqueue(a);
    pol.enqueue(b);
    pol.dequeue(a);
    EXPECT_EQ(pol.pop(), &b);
    EXPECT_EQ(pol.pop(), nullptr);
}

TEST(BsdPolicy, PreemptsOnlyAcrossQueues) {
    BsdPolicy pol;
    Proc a = make_proc(1);
    Proc b = make_proc(2);
    Proc c = make_proc(3);
    pol.add(a);
    pol.add(b);
    pol.add(c);
    b.estcpu = 2.0;   // usrpri 50.5 -> same queue as 50
    c.estcpu = 40.0;  // usrpri 60 -> worse queue
    pol.charge(b, util::Duration::zero());
    pol.charge(c, util::Duration::zero());
    EXPECT_FALSE(pol.preempts(b, a));  // same queue: no preemption
    EXPECT_FALSE(pol.preempts(c, a));
    EXPECT_TRUE(pol.preempts(a, c));   // strictly better queue preempts
    EXPECT_TRUE(pol.yields_to(a, b));  // equal queue: round-robin yield
    EXPECT_FALSE(pol.yields_to(a, c));
}

TEST(BsdPolicy, SecondTickDecaysEstcpu) {
    BsdPolicy pol;
    Proc p = make_proc(1, 100.0);
    pol.add(p);
    p.estcpu = 100.0;
    Proc* procs[] = {&p};
    pol.second_tick(procs, /*loadavg=*/1.0, util::TimePoint{} + sec(10));
    // decay = 2/(2+1) = 2/3
    EXPECT_NEAR(p.estcpu, 100.0 * 2.0 / 3.0, 1e-9);
}

TEST(BsdPolicy, HigherLoadDecaysSlower) {
    BsdPolicy pol;
    Proc p1 = make_proc(1, 100.0);
    Proc p2 = make_proc(2, 100.0);
    p1.estcpu = p2.estcpu = 100.0;
    Proc* procs1[] = {&p1};
    Proc* procs2[] = {&p2};
    pol.second_tick(procs1, 1.0, util::TimePoint{} + sec(10));
    pol.second_tick(procs2, 10.0, util::TimePoint{} + sec(10));
    EXPECT_LT(p1.estcpu, p2.estcpu);
}

TEST(BsdPolicy, SecondTickSkipsSleepers) {
    BsdPolicy pol;
    Proc p = make_proc(1, 100.0);
    p.estcpu = 100.0;
    p.state = RunState::kSleeping;
    Proc* procs[] = {&p};
    pol.second_tick(procs, 1.0, util::TimePoint{} + sec(10));
    EXPECT_DOUBLE_EQ(p.estcpu, 100.0);  // handled at wakeup instead
}

TEST(BsdPolicy, WakeupCreditDecaysPerSleptSecond) {
    BsdPolicy pol;
    Proc* none[] = {static_cast<Proc*>(nullptr)};
    (void)none;
    // Establish the load factor the policy uses for wakeup credit.
    Proc loadsetter = make_proc(9);
    Proc* procs[] = {&loadsetter};
    pol.second_tick(procs, 1.0, util::TimePoint{} + sec(10));  // decay factor 2/3 remembered

    Proc p = make_proc(1, 90.0);
    p.estcpu = 90.0;
    pol.on_wakeup(p, sec(2));
    EXPECT_NEAR(p.estcpu, 90.0 * (2.0 / 3.0) * (2.0 / 3.0), 1e-9);
}

TEST(BsdPolicy, ShortSleepEarnsNoCredit) {
    BsdPolicy pol;
    Proc p = make_proc(1, 90.0);
    p.estcpu = 90.0;
    pol.on_wakeup(p, msec(900));
    EXPECT_DOUBLE_EQ(p.estcpu, 90.0);
}

TEST(BsdPolicy, RemoveWhileQueuedIsSafe) {
    BsdPolicy pol;
    Proc a = make_proc(1);
    pol.add(a);
    pol.enqueue(a);
    pol.remove(a);
    EXPECT_EQ(pol.pop(), nullptr);
}

// on_wakeup special-cases sleeps of 1-3 whole seconds to avoid a per-wakeup
// libm pow() call. The replacement must be *bit-identical* to what the
// uncached std::pow(d, seconds) produced — estcpu feeds the priority, so one
// ULP would change dispatch order and break replay determinism. The decay
// factor is 2L/(2L+1) for loadavg L, always in (0, 1).
//
// All pow() calls below go through volatile exponents: with a literal
// exponent the compiler folds pow(d, 2.0) into d*d at compile time, which is
// precisely the substitution whose validity is in question.
TEST(BsdPolicy, WakeupIdentityShortcutIsBitExactOverDecayDomain) {
    // Dense sweep over the reachable decay-factor domain: L in steps of
    // 1/1024 covers every load shape the kernel's 1-minute average produces,
    // plus the exact values common in tests and small simulations. libm
    // returns x for pow(x, 1) exactly, so seconds==1 may shortcut to d.
    for (int i = 1; i <= 64 * 1024; ++i) {
        const double load = static_cast<double>(i) / 1024.0;
        const double d = (2.0 * load) / (2.0 * load + 1.0);
        volatile double one = 1.0;
        ASSERT_EQ(std::pow(d, one), d) << "load " << load;
    }
}

TEST(BsdPolicy, MultiplicationIsNotLibmPowWhichIsWhyPowersAreCached) {
    // libm's pow is not correctly rounded here: pow(d, 2) differs from the
    // (correctly rounded) d*d for a small fraction of decay factors, and
    // pow(d, 3) from d*d*d for a large one. Witnesses for both exist in the
    // domain, so on_wakeup must cache libm's values rather than multiply —
    // the cache exists to reproduce pow()'s bits, warts and all.
    bool square_mismatch = false;
    bool cube_mismatch = false;
    for (int i = 1; i <= 64 * 1024 && !(square_mismatch && cube_mismatch); ++i) {
        const double load = static_cast<double>(i) / 1024.0;
        const double d = (2.0 * load) / (2.0 * load + 1.0);
        volatile double two = 2.0;
        volatile double three = 3.0;
        square_mismatch = square_mismatch || std::pow(d, two) != d * d;
        cube_mismatch = cube_mismatch || std::pow(d, three) != d * d * d;
    }
    EXPECT_TRUE(square_mismatch);
    EXPECT_TRUE(cube_mismatch);
}

TEST(BsdPolicy, WakeupShortcutsMatchPowForOneToThreeSeconds) {
    // End-to-end check through on_wakeup: for every decay factor in a sweep
    // and every sleep of 1, 2, 3 (and 4, the general path) seconds, the
    // resulting estcpu equals the reference estcpu * pow(d, seconds) exactly.
    for (int i = 1; i <= 512; ++i) {
        const double load = static_cast<double>(i) / 64.0;
        BsdPolicy pol;
        Proc loadsetter = make_proc(99);
        Proc* procs[] = {&loadsetter};
        pol.second_tick(procs, load, util::TimePoint{} + sec(10));
        const double d = (2.0 * load) / (2.0 * load + 1.0);
        for (int seconds = 1; seconds <= 4; ++seconds) {
            Proc p = make_proc(1);
            pol.add(p);
            p.estcpu = 200.0 + static_cast<double>(i) / 8.0;
            const double expect =
                p.estcpu * std::pow(d, static_cast<double>(seconds));
            pol.on_wakeup(p, sec(seconds));
            ASSERT_EQ(p.estcpu, expect)
                << "load " << load << " seconds " << seconds;
        }
    }
}

}  // namespace
}  // namespace alps::os
