// The 4.4BSD time-sharing scheduler (the policy under FreeBSD 4.x, the
// paper's host kernel), as a SchedPolicy.
//
// Model (McKusick et al., "The Design and Implementation of the 4.4BSD
// Operating System", ch. 4):
//   * p_estcpu: decaying average of recent CPU use, in statclock ticks
//     (1 tick = 10 ms here). Incremented while running; once per second
//     schedcpu() applies  estcpu <- estcpu * 2L/(2L+1) + nice  where L is the
//     1-minute load average; clamped to ESTCPULIM.
//   * p_usrpri = PUSER + estcpu/4 + 2*nice, clamped from above only (so a
//     negative nice sits below PUSER, like resetpriority()); lower is better.
//   * Processes that slept >= 1 s get their estcpu decayed once per slept
//     second at wakeup (updatepri) — this is the "interactive credit" the
//     paper invokes to explain ALPS exceeding its theoretical scalability
//     threshold at Q = 40 ms.
//   * 32 run queues indexed by usrpri/4, each an IntrusiveFifo through the
//     Proc; FIFO within a queue; roundrobin() forces a switch among
//     equal-priority peers every 100 ms.
#pragma once

#include <array>
#include <cstdint>

#include "os/policies/queueing.h"
#include "os/policy.h"

namespace alps::os {

struct BsdPolicyConfig {
    /// Round-robin interval (RR slice among equal-priority processes).
    util::Duration round_robin = util::msec(100);
};

class BsdPolicy final : public SchedPolicy {
public:
    // The model parameters 4.4BSD compiles in.
    /// Statclock period: one estcpu "tick" of CPU use.
    static constexpr util::Duration kStatTick = util::msec(10);
    static constexpr double kPuser = 50.0;         ///< base user priority (PUSER)
    static constexpr double kMaxPri = 127.0;       ///< worst priority (MAXPRI)
    static constexpr double kEstcpuLimit = 255.0;  ///< ESTCPULIM
    /// Kernel sleep priority a woken process briefly holds (PWAIT class);
    /// always beats user priorities, so sleepers preempt compute-bound work.
    static constexpr double kSleepPri = 32.0;

    explicit BsdPolicy(BsdPolicyConfig cfg = {});

    void add(Proc& p) override;
    void remove(Proc& p) override;
    void enqueue(Proc& p) override;
    void dequeue(Proc& p) override;
    Proc* peek() override;
    Proc* pop() override;
    [[nodiscard]] bool preempts(const Proc& cand, const Proc& running) const override;
    [[nodiscard]] bool yields_to(const Proc& running, const Proc& cand) const override;
    void charge(Proc& p, util::Duration ran) override;
    void on_wakeup(Proc& p, util::Duration slept) override;
    void second_tick(std::span<Proc* const> procs, double loadavg,
                     util::TimePoint now) override;
    [[nodiscard]] util::Duration slice() const override { return cfg_.round_robin; }
    [[nodiscard]] std::size_t runnable() const override { return runnable_; }
    /// estcpu/usrpri live on the Proc and must survive a migration — add()
    /// would zero the usage history and hand a migrated hog a fresh top
    /// priority. There is no per-instance state to adopt, so arriving is
    /// just a priority recompute.
    void on_migrate_in(Proc& p) override { recompute_priority(p); }

private:
    static constexpr int kNumQueues = 32;
    static_assert(kNumQueues <= 32, "whichqs_ is a 32-bit ready-queue bitmap");

    [[nodiscard]] int queue_index(const Proc& p) const;
    void recompute_priority(Proc& p) const;
    /// The schedcpu/updatepri decay factor 2L/(2L+1).
    [[nodiscard]] static double decay_factor(double loadavg);

    BsdPolicyConfig cfg_;
    /// The 4.4BSD qs[] TAILQs, threaded through Proc::rq_prev/rq_next.
    std::array<policies::IntrusiveFifo, kNumQueues> queues_;
    /// 4.4BSD `whichqs`: bit q set iff queues_[q] is non-empty, so the
    /// dispatcher's "best queue" is a find-first-set, not a 32-queue scan.
    std::uint32_t whichqs_ = 0;
    std::size_t runnable_ = 0;
    double last_loadavg_ = 0.0;  ///< load used for wakeup credit between ticks
    /// Once-per-loadavg cache of pow(d, 2) and pow(d, 3) for the dominant
    /// short wakeup decays (see on_wakeup): keyed by the decay factor, so
    /// steady load pays one libm call per load change instead of per wakeup.
    double pow_base_ = -1.0;
    double pow2_ = 0.0;
    double pow3_ = 0.0;
};

}  // namespace alps::os
