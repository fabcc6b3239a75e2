// Property tests for group principals under membership churn, against a fake
// host whose per-pid clocks the test drives by hand. Invariant: a
// principal's reported cumulative CPU equals everything its uid's processes
// consumed after admission (admission members baselined, later joiners
// charged from birth, the dead retained).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "alps/group_control.h"
#include "alps/scheduler.h"
#include "util/rng.h"

namespace alps::core {
namespace {

using util::Duration;
using util::msec;

class ChurnHost final : public ProcessHost {
public:
    struct P {
        Duration cpu{0};
        bool blocked = false;
        bool alive = true;
        bool stopped = false;
        HostUid uid = 0;
    };

    Sample read_pid(HostPid pid) override {
        auto it = procs.find(pid);
        if (it == procs.end() || !it->second.alive) {
            Sample s;
            s.alive = false;
            return s;
        }
        Sample s;
        s.cpu_time = it->second.cpu;
        s.blocked = it->second.blocked;
        s.stopped = it->second.stopped;
        return s;
    }
    ControlResult stop_pid(HostPid pid) override {
        procs[pid].stopped = true;
        return ControlResult::kOk;
    }
    ControlResult cont_pid(HostPid pid) override {
        procs[pid].stopped = false;
        return ControlResult::kOk;
    }
    using ProcessHost::pids_of_user;
    std::vector<HostPid> pids_of_user(HostUid uid) override {
        std::vector<HostPid> out;
        for (const auto& [pid, p] : procs) {
            if (p.alive && p.uid == uid) out.push_back(pid);
        }
        return out;
    }

    std::map<HostPid, P> procs;
};

class GroupChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupChurnTest, PrincipalAccountingMatchesGroundTruth) {
    ChurnHost host;
    GroupProcessControl gc(host);
    util::Rng rng(GetParam());

    HostPid next_pid = 1;
    // The uid's processes at admission, with CPU from before it: not ALPS's
    // to charge.
    for (int i = 0; i < 2; ++i) {
        const auto past = Duration{rng.uniform_int(0, msec(50).count())};
        host.procs[next_pid++] = {past, false, true, false, 500};
    }
    const EntityId g = gc.add_principal("u", 500);
    // Ground truth: CPU the uid's processes consumed after admission.
    double truth_ns = 0.0;

    for (int step = 0; step < 500; ++step) {
        const double roll = rng.next_double();
        if (roll < 0.1) {
            // A newborn ran before the refresh found it; that CPU counts.
            const auto before_join = Duration{rng.uniform_int(0, msec(5).count())};
            host.procs[next_pid++] = {before_join, false, true, false, 500};
            truth_ns += static_cast<double>(before_join.count());
            gc.refresh(g);
        } else if (roll < 0.16 && !gc.members(g).empty()) {
            const auto members = gc.members(g);
            const HostPid victim = members[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(members.size()) - 1))];
            // Death: consumption since the last read is lost to the
            // accounting (a real kvm read of a dead pid returns nothing),
            // so the ground truth must be synced by a read *first*.
            gc.read_progress(g);
            truth_ns = static_cast<double>(gc.read_progress(g).cpu_time.count());
            host.procs[victim].alive = false;
            gc.refresh(g);
        } else {
            // Members that are alive and not stopped consume random CPU.
            for (const HostPid pid : gc.members(g)) {
                auto& p = host.procs[pid];
                if (!p.alive || p.stopped) continue;
                const auto d = Duration{rng.uniform_int(0, msec(5).count())};
                p.cpu += d;
                truth_ns += static_cast<double>(d.count());
            }
            if (rng.next_double() < 0.1) {
                gc.suspend(g);
            } else if (rng.next_double() < 0.3) {
                gc.resume(g);
            }
        }
        const auto reported = static_cast<double>(gc.read_progress(g).cpu_time.count());
        EXPECT_NEAR(reported, truth_ns, 1.0) << "step " << step;
        truth_ns = reported;  // re-sync (reads are the accounting points)
    }
}

TEST_P(GroupChurnTest, SuspendedPrincipalMembersAllStopped) {
    ChurnHost host;
    GroupProcessControl gc(host);
    util::Rng rng(GetParam() ^ 0xfeed);
    const EntityId g = gc.add_principal("u", 700);
    HostPid next_pid = 100;
    bool suspended = false;
    for (int step = 0; step < 300; ++step) {
        const double roll = rng.next_double();
        if (roll < 0.15) {
            host.procs[next_pid++] = {Duration{0}, false, true, false, 700};
            gc.refresh(g);
        } else if (roll < 0.25) {
            suspended = !suspended;
            if (suspended) {
                gc.suspend(g);
            } else {
                gc.resume(g);
            }
        } else if (roll < 0.3 && !gc.members(g).empty()) {
            const auto members = gc.members(g);
            host.procs[members[0]].alive = false;
            gc.refresh(g);
        }
        // Invariant: membership and the group's suspension agree.
        for (const HostPid pid : gc.members(g)) {
            EXPECT_EQ(host.procs[pid].stopped, suspended)
                << "pid " << pid << " step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupChurnTest,
                         ::testing::Values(21u, 42u, 63u, 84u));

}  // namespace
}  // namespace alps::core
