// A CFS-style weighted-vruntime policy (Linux's Completely Fair Scheduler,
// kernel/sched/fair.c circa 2.6.3x) as a SchedPolicy.
//
// Every process accrues virtual runtime vruntime += ran × w0 / weight
// (Proc::vtime, Proc::weight), where weight comes from the shared nice table
// (weight.h, nice 0 = w0 = 1024) — so a heavily-weighted process's clock
// ticks slowly and the "fair" schedule is simply "always run the smallest
// vruntime". vruntime is integer ns, advanced by weight.h's exact step. The run queue is an IndexedProcHeap keyed by (vruntime, pid):
// the ordered intrusive structure playing the role of CFS's rb-tree
// leftmost, O(lg n) per operation and deterministic on ties.
//
// min_vruntime is the monotone low-water mark of the queue: it only moves
// forward (max of itself and min(current runner, leftmost)), and it anchors
// placement so vruntime magnitudes stay comparable across sleeps:
//   * a newly added process starts at min_vruntime;
//   * a waking sleeper is placed at max(its old vruntime,
//     min_vruntime − sched_latency/2) — the "gentle fair sleepers" credit:
//     at most half a latency period of bonus, never a banked unbounded one.
//
// Preemption: a freshly woken process preempts when the incumbent's vruntime
// exceeds the waker's by more than wakeup_granularity (scaled by the waker's
// weight), in addition to the kernel wake-boost FIFO that all zoo policies
// honor (the ALPS driver needs its tick immediately, not within a
// granularity). The slice is latency / (runnable + 1), floored at
// min_granularity — many runnable processes shrink the slice so every task
// still runs once per latency period.
#pragma once

#include "os/policies/queueing.h"
#include "os/policy.h"

namespace alps::os::policies {

struct CfsPolicyConfig {
    /// Target period in which every runnable process runs once.
    util::Duration sched_latency = util::msec(6);
};

class CfsPolicy final : public SchedPolicy {
public:
    using Config = CfsPolicyConfig;

    explicit CfsPolicy(CfsPolicyConfig cfg = {});

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
    void second_tick(std::span<Proc* const> procs, std::int64_t loadavg,
                     util::TimePoint now) override;
    [[nodiscard]] util::Duration slice() const override;
    [[nodiscard]] std::size_t runnable() const override {
        return queue_.size() + boosted_.size();
    }
    /// A migrating process keeps its weight and re-anchors at this domain's
    /// min_vruntime, as a spawn does.
    void on_migrate_in(Proc& p) override { p.vtime = min_vruntime_; }

    [[nodiscard]] std::int64_t vruntime(const Proc& p) const;
    [[nodiscard]] std::int64_t min_vruntime() const { return min_vruntime_; }

private:
    /// Ratchets min_vruntime toward `candidate` (forward only).
    void advance_min_vruntime(std::int64_t candidate);

    CfsPolicyConfig cfg_;
    WakeBoostFifo boosted_;  ///< wake_boost procs, ahead of vruntime order
    IndexedProcHeap queue_;  ///< min-(vruntime, pid): the rb-tree leftmost

    std::int64_t min_vruntime_ = 0;
};

}  // namespace alps::os::policies
