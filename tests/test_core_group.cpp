#include "alps/group_control.h"

#include <gtest/gtest.h>

#include <map>

#include "util/assert.h"

namespace alps::core {
namespace {

using util::Duration;
using util::msec;

/// A fake host with hand-driven per-pid CPU clocks and a per-uid registry.
/// Every principal below is a uid (500 unless a test needs several).
class FakeHost final : public ProcessHost {
public:
    struct P {
        Duration cpu{0};
        bool blocked = false;
        bool alive = true;
        bool stopped = false;
        HostUid uid = 0;
        bool unreadable = false;  ///< reads fail transiently (ok = false)
    };

    Sample read_pid(HostPid pid) override {
        auto it = procs.find(pid);
        if (it == procs.end() || !it->second.alive) {
            Sample s;
            s.alive = false;
            return s;
        }
        Sample s;
        if (it->second.unreadable) {
            s.ok = false;
            return s;
        }
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

    /// While set, every scan fails the way a real /proc scan does when the
    /// process runs out of file descriptors.
    bool scan_fails = false;
    bool scan_user(HostUid uid, std::vector<HostPid>& out) override {
        if (scan_fails) {
            out.clear();
            return false;
        }
        return ProcessHost::scan_user(uid, out);
    }

    std::map<HostPid, P> procs;
};

TEST(GroupControl, SumsMemberConsumption) {
    FakeHost host;
    host.procs[10] = {msec(5), false, true, false, 500};
    host.procs[11] = {msec(7), false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{10, 11}));
    // Admission baselines the uid's processes: nothing charged yet.
    EXPECT_EQ(gc.read_progress(g).cpu_time, Duration::zero());
    host.procs[10].cpu += msec(3);
    host.procs[11].cpu += msec(4);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(7));
    // Cumulative, not delta.
    host.procs[10].cpu += msec(1);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(8));
    // A worker forked after admission ran 2 ms before the refresh found it:
    // all of it is the principal's.
    host.procs[12] = {msec(2), false, true, false, 500};
    gc.refresh(g);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(10));
    host.procs[12].cpu += msec(1);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(11));
}

TEST(GroupControl, BlockedOnlyWhenAllMembersBlocked) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    host.procs[2] = {Duration{0}, false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    EXPECT_FALSE(gc.read_progress(g).blocked);
    host.procs[1].blocked = true;
    EXPECT_FALSE(gc.read_progress(g).blocked);
    host.procs[2].blocked = true;
    EXPECT_TRUE(gc.read_progress(g).blocked);
}

TEST(GroupControl, EmptyPrincipalReportsBlocked) {
    FakeHost host;
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("empty", 500);  // the uid runs nothing
    const Sample s = gc.read_progress(g);
    EXPECT_TRUE(s.blocked);  // not contending for the CPU
    EXPECT_TRUE(s.alive);    // principals persist
}

TEST(GroupControl, SuspendStopsAllMembersAndLateJoiners) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    host.procs[2] = {Duration{0}, false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    gc.suspend(g);
    EXPECT_TRUE(host.procs[1].stopped);
    EXPECT_TRUE(host.procs[2].stopped);
    host.procs[3] = {Duration{0}, false, true, false, 500};
    gc.refresh(g);  // joins a suspended principal
    EXPECT_TRUE(host.procs[3].stopped);
    gc.resume(g);
    EXPECT_FALSE(host.procs[1].stopped);
    EXPECT_FALSE(host.procs[3].stopped);
}

TEST(GroupControl, DeadMembersDroppedButConsumptionRetained) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    host.procs[2] = {Duration{0}, false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    host.procs[1].cpu += msec(10);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(10));
    host.procs[1].alive = false;
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(10));  // kept
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{2}));
}

TEST(GroupControl, RefreshTracksUidProcesses) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, /*uid=*/500};
    host.procs[2] = {Duration{0}, false, true, false, 501};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{1}));

    // A new process of the user appears (Apache forks a worker).
    host.procs[3] = {Duration{0}, false, true, false, 500};
    gc.refresh(g);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{1, 3}));

    // One dies; refresh drops it.
    host.procs[1].alive = false;
    gc.refresh(g);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{3}));
}

TEST(GroupControl, RefreshJoinsNewcomersStoppedWhenSuspended) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    gc.suspend(g);
    host.procs[2] = {Duration{0}, false, true, false, 500};
    gc.refresh(g);
    EXPECT_TRUE(host.procs[2].stopped);  // inherits the group's ineligibility
}

TEST(GroupControl, RefreshReturnsScanSize) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    host.procs[2] = {Duration{0}, false, true, false, 500};
    host.procs[3] = {Duration{0}, false, true, false, 501};
    GroupProcessControl gc(host);
    const EntityId a = gc.add_principal("u500", 500);
    const EntityId b = gc.add_principal("u501", 501);
    EXPECT_EQ(gc.refresh(a), 2);
    EXPECT_EQ(gc.refresh(b), 1);
    EXPECT_EQ(gc.refresh_all(), 3);
}

TEST(GroupControl, NewMemberBaselinedAtJoin) {
    // The join rule: a process the uid already runs at admission is
    // baselined at its join-time read (its past is not ALPS's to charge); a
    // process a later refresh finds is charged from zero, so a tenant
    // cannot escape its share by forking between refreshes.
    FakeHost host;
    host.procs[1] = {msec(100), false, true, false, 500};  // pre-existing CPU
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    EXPECT_EQ(gc.read_progress(g).cpu_time, Duration::zero());
    host.procs[1].cpu += msec(2);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(2));

    host.procs[2] = {msec(100), false, true, false, 500};  // forked since
    gc.refresh(g);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(102));
}

TEST(GroupControl, AdmissionReadFailureDefersTheBaseline) {
    // An admission member whose join-time read fails is baselined at its
    // first successful read, not charged for its whole past.
    FakeHost host;
    host.procs[1] = {msec(100), false, true, false, 500};
    host.procs[1].unreadable = true;
    host.procs[2] = {msec(50), false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    host.procs[1].cpu += msec(5);
    host.procs[2].cpu += msec(3);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(3));  // pid 1 skipped
    host.procs[1].unreadable = false;
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(3));  // pid 1 baselined now
    host.procs[1].cpu += msec(4);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(7));
}

TEST(GroupControl, FailedScanKeepsMembershipAndCharges) {
    // A failed scan must not drop the members: the next successful one
    // would find them again and charge them from zero, CPU already counted
    // and CPU from before admission included.
    FakeHost host;
    host.procs[1] = {msec(100), false, true, false, 500};
    host.procs[2] = {msec(50), false, true, false, 500};
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    host.procs[1].cpu += msec(3);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(3));

    host.scan_fails = true;
    EXPECT_EQ(gc.refresh(g), 0);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{1, 2}));
    host.procs[2].cpu += msec(4);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(7));

    host.scan_fails = false;
    EXPECT_EQ(gc.refresh(g), 2);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(7));  // no jump
    host.procs[1].cpu += msec(1);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(8));
}

TEST(GroupControl, FailedAdmissionScanAdmitsAtFirstGoodScan) {
    // If the admission scan fails, the first scan that succeeds admits:
    // it baselines what it finds instead of charging it from zero.
    FakeHost host;
    host.procs[1] = {msec(100), false, true, false, 500};
    host.scan_fails = true;
    GroupProcessControl gc(host);
    const EntityId g = gc.add_principal("u500", 500);
    EXPECT_TRUE(gc.members(g).empty());
    EXPECT_EQ(gc.read_progress(g).cpu_time, Duration::zero());

    host.scan_fails = false;
    gc.refresh(g);
    EXPECT_EQ(gc.members(g), (std::vector<HostPid>{1}));
    EXPECT_EQ(gc.read_progress(g).cpu_time, Duration::zero());
    host.procs[2] = {msec(30), false, true, false, 500};  // forked since
    gc.refresh(g);
    EXPECT_EQ(gc.read_progress(g).cpu_time, msec(30));
}

TEST(GroupControl, ContractViolations) {
    FakeHost host;
    GroupProcessControl gc(host);
    gc.add_principal("u500", 500);
    EXPECT_THROW(gc.read_progress(999), util::ContractViolation);  // no such principal
    EXPECT_THROW(gc.members(999), util::ContractViolation);
    EXPECT_THROW(gc.refresh(999), util::ContractViolation);
    EXPECT_THROW(gc.suspend(999), util::ContractViolation);
}

TEST(GroupControl, MultiplePrincipalsIndependent) {
    FakeHost host;
    host.procs[1] = {Duration{0}, false, true, false, 500};
    host.procs[2] = {Duration{0}, false, true, false, 501};
    GroupProcessControl gc(host);
    const EntityId a = gc.add_principal("a", 500);
    const EntityId b = gc.add_principal("b", 501);
    gc.suspend(a);
    EXPECT_TRUE(host.procs[1].stopped);
    EXPECT_FALSE(host.procs[2].stopped);
    host.procs[2].cpu += msec(6);
    EXPECT_EQ(gc.read_progress(a).cpu_time, Duration::zero());
    EXPECT_EQ(gc.read_progress(b).cpu_time, msec(6));
}

}  // namespace
}  // namespace alps::core
