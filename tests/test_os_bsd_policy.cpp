#include "os/bsd_policy.h"

#include <gtest/gtest.h>

#include "util/assert.h"

namespace alps::os {
namespace {

using util::Duration;
using util::msec;
using util::sec;

/// Load average 1.0 in fixed point: loadfac = 2L = 4096, a decay of 2/3.
constexpr std::int64_t kLoadOne = kFscale;

Proc make_proc(Pid pid, Duration estcpu = Duration::zero(), int nice = 0) {
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
    EXPECT_EQ(p.estcpu, Duration::zero());
    EXPECT_EQ(p.usrpri, BsdPolicy::kPuser);
}

TEST(BsdPolicy, ChargeRaisesEstcpuAndWorsensPriority) {
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    pol.charge(p, msec(100));  // 10 stat ticks
    EXPECT_EQ(p.estcpu, msec(100));
    EXPECT_EQ(p.usrpri, BsdPolicy::kPuser + 10 / 4);
}

TEST(BsdPolicy, EstcpuClampsAtLimit) {
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    pol.charge(p, sec(60));
    EXPECT_EQ(p.estcpu, msec(2550));  // ESTCPULIM: 255 stat ticks
    EXPECT_EQ(p.usrpri, BsdPolicy::kPuser + 255 / 4);
    // schedcpu's nice term cannot push it past the limit either: at load 10
    // 2.55 s decays by 20/21 to 2.43 s, and nice 19 adds 19 ticks.
    Proc niced = make_proc(2, Duration::zero(), 19);
    pol.add(niced);
    pol.charge(niced, sec(60));
    Proc* procs[] = {&niced};
    pol.second_tick(procs, 10 * kLoadOne, util::TimePoint{} + sec(10));
    EXPECT_EQ(niced.estcpu, msec(2550));
    EXPECT_EQ(niced.usrpri, BsdPolicy::kMaxPri);  // 50 + 63 + 38, clamped
}

TEST(BsdPolicy, NiceWorsensPriority) {
    BsdPolicy pol;
    Proc nice0 = make_proc(1, Duration::zero(), 0);
    Proc nice10 = make_proc(2, Duration::zero(), 10);
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
    bad.estcpu = sec(2);
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
    b.estcpu = msec(30);   // usrpri 50 + 0 -> same queue as 50
    c.estcpu = msec(400);  // usrpri 60 -> worse queue
    pol.charge(b, util::Duration::zero());
    pol.charge(c, util::Duration::zero());
    EXPECT_FALSE(pol.preempts(b, a));  // same queue: no preemption
    EXPECT_FALSE(pol.preempts(c, a));
    EXPECT_TRUE(pol.preempts(a, c));   // strictly better queue preempts
    EXPECT_TRUE(pol.yields_to(a, b));  // equal queue: round-robin yield
    EXPECT_FALSE(pol.yields_to(a, c));
}

TEST(BsdPolicy, SecondTickDecaysEstcpu) {
    // decay_cpu(4096, 1 s) = 4096 · 10^9 / 6144 ns, truncated.
    BsdPolicy pol;
    Proc p = make_proc(1);
    pol.add(p);
    p.estcpu = sec(1);
    Proc* procs[] = {&p};
    pol.second_tick(procs, kLoadOne, util::TimePoint{} + sec(10));
    EXPECT_EQ(p.estcpu, Duration{666'666'666});
    EXPECT_EQ(p.usrpri, BsdPolicy::kPuser + 66 / 4);
}

TEST(BsdPolicy, SecondTickAddsNiceTicks) {
    BsdPolicy pol;
    Proc niced = make_proc(1, Duration::zero(), 5);
    Proc favoured = make_proc(2, Duration::zero(), -5);
    pol.add(niced);
    pol.add(favoured);
    niced.estcpu = favoured.estcpu = msec(900);
    Proc* procs[] = {&niced, &favoured};
    pol.second_tick(procs, kLoadOne, util::TimePoint{} + sec(10));
    EXPECT_EQ(niced.estcpu, msec(600) + msec(50));      // 2/3, plus 5 ticks
    EXPECT_EQ(favoured.estcpu, msec(600) - msec(50));   // 2/3, minus 5 ticks
}

TEST(BsdPolicy, HigherLoadDecaysSlower) {
    BsdPolicy pol;
    Proc p1 = make_proc(1, sec(1));
    Proc p2 = make_proc(2, sec(1));
    Proc* procs1[] = {&p1};
    Proc* procs2[] = {&p2};
    pol.second_tick(procs1, kLoadOne, util::TimePoint{} + sec(10));
    pol.second_tick(procs2, 10 * kLoadOne, util::TimePoint{} + sec(10));
    EXPECT_EQ(p1.estcpu, Duration{666'666'666});  // 2/3
    EXPECT_EQ(p2.estcpu, Duration{952'380'952});  // 20/21
}

TEST(BsdPolicy, SecondTickSkipsSleepers) {
    BsdPolicy pol;
    Proc p = make_proc(1, sec(1));
    p.state = RunState::kSleeping;
    Proc* procs[] = {&p};
    pol.second_tick(procs, kLoadOne, util::TimePoint{} + sec(10));
    EXPECT_EQ(p.estcpu, sec(1));  // handled at wakeup instead
}

TEST(BsdPolicy, WakeupCreditDecaysPerSleptSecond) {
    // updatepri at load 1.0: one truncating 2/3 decay per whole second
    // slept, from 900 ms.
    BsdPolicy pol;
    Proc loadsetter = make_proc(9);
    Proc* procs[] = {&loadsetter};
    pol.second_tick(procs, kLoadOne, util::TimePoint{} + sec(10));  // load remembered
    const auto woken_after = [&](Duration slept) {
        Proc p = make_proc(1, msec(900));
        pol.on_wakeup(p, slept);
        return p.estcpu;
    };
    EXPECT_EQ(woken_after(sec(1)), Duration{600'000'000});
    EXPECT_EQ(woken_after(msec(1999)), Duration{600'000'000});
    EXPECT_EQ(woken_after(sec(2)), Duration{400'000'000});
    EXPECT_EQ(woken_after(sec(3)), Duration{266'666'666});
    // 177777777, 118518518, 79012345, 52674896, 35116597, 23411064, then:
    EXPECT_EQ(woken_after(sec(10)), Duration{15'607'376});
}

TEST(BsdPolicy, WakeupDecayStopsAtZero) {
    // At load 0 (before any schedcpu) one slept second zeroes estcpu, and a
    // year-long sleep costs no more decays than that.
    BsdPolicy pol;
    Proc p = make_proc(1, sec(2));
    pol.on_wakeup(p, sec(365 * 24 * 3600));
    EXPECT_EQ(p.estcpu, Duration::zero());
    EXPECT_EQ(p.usrpri, BsdPolicy::kPuser);
}

TEST(BsdPolicy, ShortSleepEarnsNoCredit) {
    BsdPolicy pol;
    Proc p = make_proc(1, msec(900));
    pol.on_wakeup(p, msec(900));
    EXPECT_EQ(p.estcpu, msec(900));
}

TEST(BsdPolicy, RemoveWhileQueuedIsSafe) {
    BsdPolicy pol;
    Proc a = make_proc(1);
    pol.add(a);
    pol.enqueue(a);
    pol.remove(a);
    EXPECT_EQ(pol.pop(), nullptr);
}

}  // namespace
}  // namespace alps::os
