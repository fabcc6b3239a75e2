// Property-style tests of the ALPS core (parameterized sweeps over share
// vectors, seeds, and backend behaviours).
//
// The central invariant (see scheduler.h): after every tick,
//     Σ_i allowance_i · Q == t_c
// holds no matter how the "kernel" distributed CPU, how entities blocked,
// died, joined, or were reweighted.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "alps/scheduler.h"
#include "mock_control.h"
#include "util/rng.h"

namespace alps::core {
namespace {

using alps::testing::MockControl;
using util::Duration;
using util::msec;
using util::Share;

constexpr Duration kQ = msec(10);

void expect_invariant(const Scheduler& s) {
    Duration sum{0};
    for (EntityId id : s.ids()) sum += s.allowance(id);
    EXPECT_EQ(sum, s.cycle_time_remaining()) << "sum(allowance) must equal t_c";
}

// ---------------------------------------------------------------------------

struct RandomWorkloadParam {
    std::vector<Share> shares;
    std::uint64_t seed;
    bool lazy;
    bool io;
};

std::string param_name(const ::testing::TestParamInfo<RandomWorkloadParam>& info) {
    std::string name = info.param.lazy ? "lazy" : "eager";
    name += info.param.io ? "Io" : "NoIo";
    name += "Seed" + std::to_string(info.param.seed) + "N" +
            std::to_string(info.param.shares.size());
    return name;
}

class RandomWorkloadTest : public ::testing::TestWithParam<RandomWorkloadParam> {};

TEST_P(RandomWorkloadTest, InvariantHoldsUnderChaoticBackend) {
    const auto& p = GetParam();
    MockControl mc;
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    cfg.lazy_measurement = p.lazy;
    cfg.io_accounting = p.io;
    Scheduler sched(mc, cfg);

    util::Rng rng(p.seed);
    for (std::size_t i = 0; i < p.shares.size(); ++i) {
        const auto id = static_cast<EntityId>(i + 1);
        mc.ensure(id);
        sched.add(id, p.shares[i]);
        expect_invariant(sched);
    }

    for (int t = 0; t < 600; ++t) {
        // Chaotic kernel: random per-entity progress (but never more than Q
        // per entity per tick — single-CPU bound), random blocking flips.
        for (auto& [id, e] : mc.entities) {
            if (e.suspended || !e.alive) continue;
            if (rng.next_double() < 0.1) e.blocked = !e.blocked;
            if (!e.blocked) {
                e.cpu += Duration{rng.uniform_int(0, kQ.count())};
            }
        }
        sched.tick();
        expect_invariant(sched);

        // Eligibility must mirror the suspension the backend saw.
        for (EntityId id : sched.ids()) {
            EXPECT_EQ(sched.eligible(id), !mc.entities.at(id).suspended);
        }
    }
    EXPECT_GT(sched.cycles_completed(), 0u);
}

TEST_P(RandomWorkloadTest, InvariantHoldsAcrossMembershipChanges) {
    const auto& p = GetParam();
    MockControl mc;
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    cfg.lazy_measurement = p.lazy;
    cfg.io_accounting = p.io;
    Scheduler sched(mc, cfg);

    util::Rng rng(p.seed ^ 0xabcdef);
    EntityId next_id = 1;
    for (Share s : p.shares) {
        mc.ensure(next_id);
        sched.add(next_id++, s);
    }

    for (int t = 0; t < 400; ++t) {
        mc.run_kernel_quantum(kQ);
        const double roll = rng.next_double();
        const auto ids = sched.ids();
        auto pick = [&]() {
            return ids[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        };
        if (roll < 0.03 && ids.size() > 1) {
            sched.remove(pick());  // explicit departure
        } else if (roll < 0.06 && !ids.empty()) {
            mc.entities[pick()].alive = false;  // death, found at measurement
        } else if (roll < 0.1) {
            mc.ensure(next_id);
            sched.add(next_id++, rng.uniform_int(1, 9));
        } else if (roll < 0.13 && !ids.empty()) {
            sched.set_share(pick(), rng.uniform_int(1, 9));
        }
        sched.tick();
        expect_invariant(sched);
    }
}

TEST_P(RandomWorkloadTest, LongRunProportionsConvergeToShares) {
    const auto& p = GetParam();
    if (p.io == false) return;  // proportionality statement needs defaults
    MockControl mc;
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    cfg.lazy_measurement = p.lazy;
    Scheduler sched(mc, cfg);

    for (std::size_t i = 0; i < p.shares.size(); ++i) {
        const auto id = static_cast<EntityId>(i + 1);
        mc.ensure(id);
        sched.add(id, p.shares[i]);
    }
    sched.tick();
    const int ticks = 12000;
    for (int t = 0; t < ticks; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
    }
    const Share total_shares = std::accumulate(p.shares.begin(), p.shares.end(),
                                               static_cast<Share>(0));
    double total = 0.0;
    for (auto& [id, e] : mc.entities) total += static_cast<double>(e.cpu.count());
    ASSERT_GT(total, 0.0);
    for (std::size_t i = 0; i < p.shares.size(); ++i) {
        const auto id = static_cast<EntityId>(i + 1);
        const double frac =
            static_cast<double>(mc.entities[id].cpu.count()) / total;
        const double ideal = static_cast<double>(p.shares[i]) /
                             static_cast<double>(total_shares);
        EXPECT_NEAR(frac, ideal, 0.035)
            << "entity " << id << " share " << p.shares[i];
    }
}

TEST_P(RandomWorkloadTest, LazyNeverMeasuresMoreThanEager) {
    const auto& p = GetParam();
    auto run = [&](bool lazy) {
        MockControl mc;
        SchedulerConfig cfg;
        cfg.quantum = kQ;
        cfg.lazy_measurement = lazy;
        cfg.io_accounting = p.io;
        Scheduler sched(mc, cfg);
        for (std::size_t i = 0; i < p.shares.size(); ++i) {
            const auto id = static_cast<EntityId>(i + 1);
            mc.ensure(id);
            sched.add(id, p.shares[i]);
        }
        sched.tick();
        for (int t = 0; t < 2000; ++t) {
            mc.run_kernel_quantum(kQ);
            sched.tick();
        }
        return sched.total_measurements();
    };
    // Equality is possible only for all-single-share workloads (allowance 1
    // means "due every tick" even lazily); lazy must never measure more.
    EXPECT_LE(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(
    ShareSweeps, RandomWorkloadTest,
    ::testing::Values(
        RandomWorkloadParam{{1, 1}, 1, true, true},
        RandomWorkloadParam{{1, 2, 3}, 2, true, true},
        RandomWorkloadParam{{1, 2, 3}, 2, false, true},
        RandomWorkloadParam{{5, 5, 5, 5, 5}, 3, true, true},
        RandomWorkloadParam{{1, 1, 1, 1, 21}, 4, true, true},
        RandomWorkloadParam{{1, 1, 1, 1, 21}, 4, false, false},
        RandomWorkloadParam{{1, 3, 5, 7, 9}, 5, true, true},
        RandomWorkloadParam{{2, 4, 8, 16}, 6, true, false},
        RandomWorkloadParam{{7, 11}, 7, false, true},
        RandomWorkloadParam{{1, 100}, 8, true, true}),
    param_name);

// ---------------------------------------------------------------------------
// Lazy-measurement soundness: the paper's claim is that skipping reads loses
// no control — an entity can never slip past ineligibility by more than the
// CPU it could legally burn between scheduled measurements.

class LazySoundnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazySoundnessTest, AllowanceNeverGoesBelowMinusOneQuantumPerTick) {
    MockControl mc;
    SchedulerConfig cfg;
    cfg.quantum = kQ;
    Scheduler sched(mc, cfg);
    util::Rng rng(GetParam());

    const std::vector<Share> shares{1, 2, 5, 9};
    for (std::size_t i = 0; i < shares.size(); ++i) {
        const auto id = static_cast<EntityId>(i + 1);
        mc.ensure(id);
        sched.add(id, shares[i]);
    }
    sched.tick();
    for (int t = 0; t < 3000; ++t) {
        mc.run_kernel_quantum(kQ);
        sched.tick();
        for (EntityId id : sched.ids()) {
            // An entity consumes at most Q per tick; with measurements
            // postponed by exactly ceil(allowance / Q), the overshoot is
            // bounded by one quantum.
            EXPECT_GT(sched.allowance(id), -kQ * 3 / 2) << "entity " << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazySoundnessTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace alps::core
