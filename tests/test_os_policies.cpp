// The kernel policy zoo: lottery, stride, and CFS-vruntime as pluggable
// SchedPolicy implementations, the name->policy factory, and the Kernel's
// loud rejection of unknown policy names.
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "os/policies/cfs.h"
#include "os/policies/factory.h"
#include "os/policies/lottery.h"
#include "os/policies/stride.h"
#include "os/policies/weight.h"
#include "sim/engine.h"
#include "util/assert.h"
#include "util/rng.h"

namespace alps::os {
namespace {

using policies::CfsPolicy;
using policies::LotteryPolicy;
using policies::StridePolicy;
using util::Duration;
using util::msec;
using util::sec;
using util::to_sec;

Proc make_proc(Pid pid, int nice = 0) {
    Proc p;
    p.pid = pid;
    p.nice = nice;
    p.state = RunState::kRunnable;
    return p;
}

/// A whole machine under one policy; `pol` stays valid for ticket surgery.
template <typename Policy>
struct Machine {
    sim::Engine engine;
    Policy* pol;
    Kernel kernel;

    explicit Machine(typename Policy::Config cfg = {})
        : kernel(engine, [&] {
              auto p = std::make_unique<Policy>(cfg);
              pol = p.get();
              return p;
          }()) {}

    Pid hog(const std::string& name, int nice = 0) {
        return kernel.spawn(name, 0, std::make_unique<CpuBoundBehavior>(), nice);
    }
    void run_for(Duration d) { engine.run_until(engine.now() + d); }
    double cpu(Pid pid) { return to_sec(kernel.cpu_time(pid)); }
};

// ----- factory & kernel validation ----------------------------------------

TEST(PolicyFactory, ListsTheFourPolicies) {
    const auto infos = policies::known_policies();
    ASSERT_EQ(infos.size(), 4u);
    EXPECT_EQ(infos[0].name, "bsd");
    for (const auto& info : infos) {
        EXPECT_TRUE(policies::is_known_policy(info.name));
        EXPECT_NE(policies::make_policy(info.name), nullptr);
    }
    EXPECT_FALSE(policies::is_known_policy("o(1)"));
}

TEST(PolicyFactory, UnknownNameThrowsNamingTheChoices) {
    try {
        (void)policies::make_policy("fancy");
        FAIL() << "make_policy accepted an unknown name";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fancy"), std::string::npos);
        EXPECT_NE(what.find("lottery"), std::string::npos);
    }
}

TEST(PolicyFactory, KernelRejectsUnknownPolicyNameLoudly) {
    // The satellite fix: a mistyped experiment config must throw, never
    // silently run the whole experiment under BSD.
    sim::Engine engine;
    KernelConfig cfg;
    cfg.policy = "lotery";  // sic
    EXPECT_THROW(Kernel(engine, nullptr, cfg), std::invalid_argument);
    cfg.policy = "stride";
    EXPECT_NO_THROW(Kernel(engine, nullptr, cfg));
}

// ----- lottery -------------------------------------------------------------

TEST(LotteryPolicy, CpuProportionalToTickets) {
    Machine<LotteryPolicy> m;
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.pol->set_tickets(m.kernel.proc(a), 300);
    m.pol->set_tickets(m.kernel.proc(b), 100);
    m.run_for(sec(60));  // 600 draws: sigma of a's fraction ~ 1.8 %
    const double fa = m.cpu(a) / (m.cpu(a) + m.cpu(b));
    EXPECT_NEAR(fa, 0.75, 0.06);
}

TEST(LotteryPolicy, DefaultGrantFollowsNice) {
    // add() grants nice_to_weight(nice) base tickets, so entitlement
    // semantics match stride and CFS without explicit ticket surgery.
    Machine<LotteryPolicy> m;
    const Pid normal = m.hog("normal", 0);
    const Pid niced = m.hog("niced", 5);
    EXPECT_EQ(m.pol->effective_tickets(m.kernel.proc(normal)), policies::nice_to_weight(0));
    EXPECT_EQ(m.pol->effective_tickets(m.kernel.proc(niced)), policies::nice_to_weight(5));
}

TEST(LotteryPolicy, CompensationInflatesShortStints) {
    // Driven directly (no kernel): a proc that wins, runs 10 ms of a 100 ms
    // quantum, and re-queues holds a 10x compensation factor until the next
    // win consumes it (paper §3.4).
    LotteryPolicy pol({.quantum = msec(100)});
    Proc p = make_proc(1);
    pol.add(p);
    pol.enqueue(p);
    ASSERT_EQ(pol.pop(), &p);
    pol.charge(p, msec(10));
    pol.enqueue(p);
    EXPECT_DOUBLE_EQ(pol.compensation(p), 10.0);
    ASSERT_EQ(pol.pop(), &p);  // the win consumes the compensation
    pol.charge(p, msec(100));
    pol.enqueue(p);
    EXPECT_DOUBLE_EQ(pol.compensation(p), 1.0);  // full quantum: none
    pol.dequeue(p);
    pol.remove(p);
}

TEST(LotteryPolicy, SameSeedRunsAreBitIdentical) {
    // The determinism the zoo's JSON baseline rests on: the draw stream is a
    // pure function of the seed and the event order.
    const auto run = [](std::uint64_t seed) {
        Machine<LotteryPolicy> m({.seed = seed});
        const Pid a = m.hog("a");
        const Pid b = m.hog("b");
        const Pid c = m.hog("c");
        m.run_for(sec(10));
        return std::array<Duration, 3>{m.kernel.cpu_time(a), m.kernel.cpu_time(b),
                                       m.kernel.cpu_time(c)};
    };
    const auto first = run(42);
    EXPECT_EQ(first, run(42));
    EXPECT_NE(first, run(43));
}

TEST(LotteryPolicy, ProportionalInExpectation) {
    Machine<LotteryPolicy> m({.quantum = msec(10)});
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.pol->set_tickets(m.kernel.proc(a), 1);
    m.pol->set_tickets(m.kernel.proc(b), 3);
    m.run_for(sec(40));  // 4000 drawings
    EXPECT_NEAR(m.cpu(a) / 40.0, 0.25, 0.03);  // statistical: ~sqrt(p q / n) noise
    EXPECT_NEAR(m.cpu(b) / 40.0, 0.75, 0.03);
}

TEST(LotteryPolicy, SeededRunsAreReproducible) {
    const auto run = [] {
        Machine<LotteryPolicy> m({.quantum = msec(10)});
        const Pid a = m.hog("a");
        const Pid b = m.hog("b");
        m.pol->set_tickets(m.kernel.proc(a), 1);
        m.pol->set_tickets(m.kernel.proc(b), 2);
        m.run_for(sec(3));
        return m.kernel.cpu_time(a);
    };
    EXPECT_EQ(run(), run());
}

TEST(LotteryPolicy, HigherVarianceThanStride) {
    // The same 1:1 pair under both ticket policies: the lottery's per-second
    // allocation wanders around 0.5 s, stride's stays put.
    const auto per_second_variance = [](auto& m) {
        const Pid a = m.hog("a");
        m.hog("b");
        double sum_sq = 0.0;
        double prev = 0.0;
        for (int s = 0; s < 30; ++s) {
            m.run_for(sec(1));
            const double got = m.cpu(a) - prev;
            prev = m.cpu(a);
            sum_sq += (got - 0.5) * (got - 0.5);
        }
        return sum_sq / 30.0;
    };
    Machine<LotteryPolicy> lottery;
    Machine<StridePolicy> stride;
    EXPECT_GT(per_second_variance(lottery), per_second_variance(stride));
}

// ----- stride --------------------------------------------------------------

TEST(StridePolicy, CpuProportionalToTickets) {
    Machine<StridePolicy> m;
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.pol->set_tickets(m.kernel.proc(a), 300);
    m.pol->set_tickets(m.kernel.proc(b), 100);
    m.run_for(sec(10));  // deterministic: tight tolerance
    const double fa = m.cpu(a) / (m.cpu(a) + m.cpu(b));
    EXPECT_NEAR(fa, 0.75, 0.02);
}

TEST(StridePolicy, ProportionalForUnequalTickets) {
    Machine<StridePolicy> m({.quantum = msec(10)});
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    const Pid c = m.hog("c");
    m.pol->set_tickets(m.kernel.proc(a), 1);
    m.pol->set_tickets(m.kernel.proc(b), 2);
    m.pol->set_tickets(m.kernel.proc(c), 3);
    m.run_for(sec(12));
    EXPECT_NEAR(m.cpu(a) / 12.0, 1.0 / 6.0, 0.01);
    EXPECT_NEAR(m.cpu(b) / 12.0, 2.0 / 6.0, 0.01);
    EXPECT_NEAR(m.cpu(c) / 12.0, 3.0 / 6.0, 0.01);
}

TEST(StridePolicy, SkewedTicketsStayProportional) {
    // 21:1:1:1:1 — each small holder is owed only 4 % of the CPU.
    Machine<StridePolicy> m({.quantum = msec(10)});
    std::vector<Pid> small;
    for (int i = 0; i < 4; ++i) {
        small.push_back(m.hog("small"));
        m.pol->set_tickets(m.kernel.proc(small.back()), 1);
    }
    const Pid big = m.hog("big");
    m.pol->set_tickets(m.kernel.proc(big), 21);
    m.run_for(sec(25));
    EXPECT_NEAR(m.cpu(big) / 25.0, 21.0 / 25.0, 0.01);
    for (const Pid p : small) EXPECT_NEAR(m.cpu(p) / 25.0, 1.0 / 25.0, 0.005);
}

TEST(StridePolicy, DeterministicAndExactOverShortWindows) {
    // Equal tickets: within one quantum of each other at every boundary.
    const Duration q = msec(10);
    Machine<StridePolicy> m({.quantum = q});
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    for (int step = 0; step < 100; ++step) {
        m.run_for(q);
        const Duration lead = m.kernel.cpu_time(a) - m.kernel.cpu_time(b);
        EXPECT_LE(std::abs(lead.count()), q.count()) << "after quantum " << step;
    }
}

TEST(StridePolicy, TicketContracts) {
    Machine<StridePolicy> m;
    const Pid a = m.hog("a");
    EXPECT_THROW(m.pol->set_tickets(m.kernel.proc(a), 0), util::ContractViolation);
    EXPECT_THROW(m.pol->set_tickets(m.kernel.proc(a), -5), util::ContractViolation);
}

TEST(StridePolicy, LateJoinerOwesNoBackCredit) {
    // B joins 5 s in with equal tickets. The remain/global-pass mechanism
    // must give it a fair share from its join onward — not half of history.
    Machine<StridePolicy> m;
    const Pid a = m.hog("a");
    m.run_for(sec(5));
    const Pid b = m.hog("b");
    m.run_for(sec(10));
    EXPECT_NEAR(m.cpu(a), 10.0, 0.3);  // 5 alone + 5 of the shared 10
    EXPECT_NEAR(m.cpu(b), 5.0, 0.3);
    EXPECT_NEAR(m.cpu(a) + m.cpu(b), 15.0, 1e-6);
}

TEST(StridePolicy, LateArrivalJoinsAtCurrentVirtualTime) {
    Machine<StridePolicy> m({.quantum = msec(10)});
    const Pid a = m.hog("a");
    m.run_for(sec(5));
    const Pid b = m.hog("b");
    m.run_for(sec(4));
    // b must not catch up on the 5 s it missed: it gets ~half of the last 4 s.
    EXPECT_NEAR(m.cpu(b), 2.0, 0.1);
    EXPECT_NEAR(m.cpu(a), 7.0, 0.1);
}

TEST(StridePolicy, TicketChangeShiftsTheRatio) {
    // Reissuing tickets mid-run (client_modify) takes effect from there on.
    Machine<StridePolicy> m;
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    m.pol->set_tickets(m.kernel.proc(a), 200);
    m.pol->set_tickets(m.kernel.proc(b), 200);
    m.run_for(sec(4));
    const double a_before = m.cpu(a);
    const double b_before = m.cpu(b);
    EXPECT_NEAR(a_before, b_before, 0.2);
    m.pol->set_tickets(m.kernel.proc(a), 100);
    m.pol->set_tickets(m.kernel.proc(b), 300);
    m.run_for(sec(6));  // 1:3 from here on
    EXPECT_NEAR((m.cpu(a) - a_before) / 6.0, 0.25, 0.03);
    EXPECT_NEAR((m.cpu(b) - b_before) / 6.0, 0.75, 0.03);
}

TEST(StridePolicy, SleeperNeitherBanksNorForfeits) {
    // A process asleep for a long stretch must come back with its old
    // remain, not a banked claim on the missed CPU (the paper's client_wait
    // semantics, via the charge-time remain snapshot).
    sim::Engine engine;
    KernelConfig kcfg;
    kcfg.policy = "stride";
    Kernel kernel(engine, nullptr, kcfg);
    const Pid a = kernel.spawn("a", 0, std::make_unique<CpuBoundBehavior>());
    const Pid b = kernel.spawn("b", 0, std::make_unique<CpuBoundBehavior>());
    engine.run_until(engine.now() + sec(2));
    kernel.send_signal(b, Signal::kStop);  // b leaves the competition
    engine.run_until(engine.now() + sec(6));
    kernel.send_signal(b, Signal::kCont);
    const Duration a_at_resume = kernel.cpu_time(a);
    const Duration b_at_resume = kernel.cpu_time(b);
    engine.run_until(engine.now() + sec(4));
    // After resuming, b gets its proportional half of the remaining time —
    // about 2 of the last 4 s — rather than catching up on the 6 s it slept,
    // and a keeps the complementary half.
    EXPECT_NEAR(to_sec(kernel.cpu_time(b) - b_at_resume), 2.0, 0.3);
    EXPECT_NEAR(to_sec(kernel.cpu_time(a) - a_at_resume), 2.0, 0.3);
}

TEST(StridePolicy, SleeperGetsNoBankedCredit) {
    Machine<StridePolicy> m({.quantum = msec(10)});
    const Pid hog = m.hog("hog");
    const Pid io = m.kernel.spawn(
        "io", 0, std::make_unique<PhasedIoBehavior>(msec(10), msec(190)));
    m.pol->set_tickets(m.kernel.proc(hog), 1);
    m.pol->set_tickets(m.kernel.proc(io), 1);
    m.run_for(sec(10));
    // The sleeper demands only 5% of the CPU; the hog gets the rest (not 50%).
    EXPECT_GT(m.cpu(hog), 9.0);
    EXPECT_NEAR(m.cpu(io), 0.5, 0.1);
}

// ----- CFS -----------------------------------------------------------------

TEST(CfsPolicy, NiceWeightsGiveProportionalCpu) {
    Machine<CfsPolicy> m;
    const Pid normal = m.hog("normal", 0);
    const Pid niced = m.hog("niced", 5);
    m.run_for(sec(30));
    const double w0 = static_cast<double>(policies::nice_to_weight(0));
    const double w5 = static_cast<double>(policies::nice_to_weight(5));
    const double fa = m.cpu(normal) / (m.cpu(normal) + m.cpu(niced));
    EXPECT_NEAR(fa, w0 / (w0 + w5), 0.02);
}

TEST(CfsPolicy, EqualWeightsShareEvenly) {
    Machine<CfsPolicy> m;
    const Pid a = m.hog("a");
    const Pid b = m.hog("b");
    const Pid c = m.hog("c");
    m.run_for(sec(9));
    EXPECT_NEAR(m.cpu(a), 3.0, 0.1);
    EXPECT_NEAR(m.cpu(b), 3.0, 0.1);
    EXPECT_NEAR(m.cpu(c), 3.0, 0.1);
}

TEST(CfsPolicy, LateJoinerStartsAtMinVruntime) {
    // min-vruntime normalization: a process spawned after 10 s of history
    // must not monopolize the CPU to "catch up" to the incumbents' vruntime.
    Machine<CfsPolicy> m;
    const Pid a = m.hog("a");
    m.run_for(sec(10));
    const double a_before = m.cpu(a);
    const Pid b = m.hog("b");
    m.run_for(sec(4));
    EXPECT_NEAR(to_sec(m.kernel.cpu_time(b)), 2.0, 0.3);
    EXPECT_NEAR(m.cpu(a) - a_before, 2.0, 0.3);
}

// ----- split-invariant charging --------------------------------------------

/// Every Proc field a policy writes.
auto policy_fields(const Proc& p) {
    return std::make_tuple(p.estcpu, p.usrpri, p.weight, p.vtime, p.carry, p.remain, p.comp,
                           p.stint, p.rq_index, p.heap_pos);
}

/// The domain's own clock: stride's global pass or CFS's min_vruntime.
std::int64_t domain_clock(const SchedPolicy& pol) {
    if (const auto* stride = dynamic_cast<const StridePolicy*>(&pol)) return stride->global_pass();
    if (const auto* cfs = dynamic_cast<const CfsPolicy*>(&pol)) return cfs->min_vruntime();
    return 0;
}

/// Twin domains of `policy` replay one random history of dispatches,
/// schedcpu ticks and sleeps over six processes with nice != 0, while the
/// others wait queued. Each dispatch charges its runner for a and then b on
/// the split twin, and once for a + b on the whole twin; every policy field
/// of every process and the domain clock must stay equal.
void expect_split_invariant(std::string_view policy, std::uint64_t seed) {
    constexpr std::size_t kProcs = 6;
    util::Rng rng(seed);
    const std::unique_ptr<SchedPolicy> split = policies::make_policy(policy);
    const std::unique_ptr<SchedPolicy> whole = policies::make_policy(policy);
    std::array<Proc, kProcs> sp;
    std::array<Proc, kProcs> wp;
    std::array<Proc*, kProcs> split_procs{};
    std::array<Proc*, kProcs> whole_procs{};
    for (std::size_t i = 0; i < kProcs; ++i) {
        int nice = static_cast<int>(rng.uniform_int(-5, 4));
        if (nice >= 0) ++nice;
        sp[i] = make_proc(static_cast<Pid>(i + 1), nice);
        wp[i] = make_proc(static_cast<Pid>(i + 1), nice);
        split_procs[i] = &sp[i];
        whole_procs[i] = &wp[i];
        split->add(sp[i]);
        whole->add(wp[i]);
        split->enqueue(sp[i]);
        whole->enqueue(wp[i]);
    }
    std::array<int, kProcs> asleep{};  // dispatches left to sleep, per process
    for (int round = 0; round < 400; ++round) {
        Proc* s = split->pop();
        Proc* w = whole->pop();
        ASSERT_NE(s, nullptr);
        ASSERT_NE(w, nullptr);
        ASSERT_EQ(s->pid, w->pid) << "round " << round;
        const Duration a = rng.uniform_duration(Duration::zero(), msec(30));
        const Duration b = rng.uniform_duration(Duration::zero(), msec(30));
        split->charge(*s, a);
        split->charge(*s, b);
        whole->charge(*w, a + b);
        for (std::size_t i = 0; i < kProcs; ++i) {
            ASSERT_EQ(policy_fields(sp[i]), policy_fields(wp[i]))
                << "round " << round << ", pid " << sp[i].pid;
        }
        ASSERT_EQ(domain_clock(*split), domain_clock(*whole)) << "round " << round;

        if (rng.uniform_int(0, 9) == 0) {
            const std::int64_t load = rng.uniform_int(0, 8 * kFscale);
            split->second_tick(split_procs, load, util::TimePoint{});
            whole->second_tick(whole_procs, load, util::TimePoint{});
        }
        const auto runner = static_cast<std::size_t>(s->pid - 1);
        asleep[runner] = rng.uniform_int(0, 3) == 0 ? 3 : 0;
        for (std::size_t i = 0; i < kProcs; ++i) {
            if (asleep[i] == 0 && i == runner) {
                split->enqueue(sp[i]);
                whole->enqueue(wp[i]);
            } else if (asleep[i] > 0 && i != runner && --asleep[i] == 0) {
                const Duration slept = rng.uniform_duration(Duration::zero(), sec(3));
                split->on_wakeup(sp[i], slept);
                whole->on_wakeup(wp[i], slept);
                split->enqueue(sp[i]);
                whole->enqueue(wp[i]);
            }
        }
    }
}

TEST(PolicyCharge, SplitChargeEqualsWholeChargeOnEveryPolicy) {
    for (const char* policy : {"bsd", "lottery", "stride", "cfs"}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            SCOPED_TRACE(testing::Message() << policy << ", seed " << seed);
            expect_split_invariant(policy, seed);
            if (HasFatalFailure()) return;
        }
    }
}

}  // namespace
}  // namespace alps::os
