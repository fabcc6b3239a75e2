#include "os/bsd_policy.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace alps::os {

using util::Duration;

BsdPolicy::BsdPolicy(BsdPolicyConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.round_robin > Duration::zero());
}

int BsdPolicy::queue_index(const Proc& p) {
    // A freshly woken process still holds its kernel sleep priority (PWAIT
    // class) until it returns to user mode.
    return (p.wake_boost ? kSleepPri : p.usrpri) / ((kMaxPri + 1) / kNumQueues);
}

void BsdPolicy::recompute_priority(Proc& p) {
    // resetpriority() clamps only the upper bound: a negative nice drops
    // below PUSER by design, so a privileged daemon outranks user-mode
    // processes even after its wakeup boost is spent.
    const auto pri = kPuser + p.estcpu / (4 * kStatTick) + 2 * p.nice;
    p.usrpri = static_cast<int>(std::clamp<std::int64_t>(pri, 0, kMaxPri));
}

Duration BsdPolicy::decay_cpu(std::int64_t loadfac, Duration cpu) {
    return Duration{loadfac * cpu.count() / (loadfac + kFscale)};
}

void BsdPolicy::add(Proc& p) {
    p.estcpu = Duration::zero();
    recompute_priority(p);
}

void BsdPolicy::remove(Proc& p) {
    // A process can exit while queued (e.g. killed); make sure it is gone.
    dequeue(p);
}

void BsdPolicy::enqueue(Proc& p) {
    // Contract: never enqueue twice (the cached index doubles as the
    // membership flag).
    ALPS_EXPECT(p.rq_index < 0);
    const int idx = queue_index(p);
    policies::IntrusiveFifo& q = queues_[static_cast<std::size_t>(idx)];
    if (q.empty()) whichqs_ |= 1u << idx;
    q.push_back(p);
    p.rq_index = idx;
    ++runnable_;
}

void BsdPolicy::dequeue(Proc& p) {
    // Benign on a non-queued process (remove() and stop handling call this
    // unconditionally).
    if (p.rq_index < 0) return;
    policies::IntrusiveFifo& q = queues_[static_cast<std::size_t>(p.rq_index)];
    q.remove(p);
    if (q.empty()) whichqs_ &= ~(1u << p.rq_index);
    p.rq_index = -1;
    --runnable_;
}

Proc* BsdPolicy::peek() {
    if (whichqs_ == 0) return nullptr;
    return queues_[static_cast<std::size_t>(std::countr_zero(whichqs_))].head();
}

Proc* BsdPolicy::pop() {
    Proc* p = peek();
    if (p != nullptr) dequeue(*p);
    return p;
}

bool BsdPolicy::preempts(const Proc& cand, const Proc& running) const {
    // Queue-granular comparison, as in the real dispatcher.
    return queue_index(cand) < queue_index(running);
}

bool BsdPolicy::yields_to(const Proc& running, const Proc& cand) const {
    // roundrobin(): at slice expiry, yield to an equal-or-better peer.
    return queue_index(cand) <= queue_index(running);
}

void BsdPolicy::charge(Proc& p, Duration ran) {
    ALPS_EXPECT(ran >= Duration::zero());
    p.estcpu = std::min(p.estcpu + ran, kEstcpuLimit);
    recompute_priority(p);
}

void BsdPolicy::on_wakeup(Proc& p, Duration slept) {
    // updatepri(): one decay_cpu per whole second slept, at the load of the
    // last schedcpu; past 0 there is nothing left to decay.
    auto seconds = slept / util::sec(1);
    if (seconds == 0) return;
    for (; seconds > 0 && p.estcpu > Duration::zero(); --seconds) {
        p.estcpu = decay_cpu(2 * last_loadavg_, p.estcpu);
    }
    recompute_priority(p);
}

void BsdPolicy::second_tick(std::span<Proc* const> procs, std::int64_t loadavg,
                            util::TimePoint now) {
    last_loadavg_ = loadavg;
    for (Proc* p : procs) {
        if (p->state == RunState::kZombie) continue;
        // schedcpu skips processes idle for more than a second (p_slptime >
        // 1); those are decayed wholesale at wakeup/SIGCONT. Short sleepers
        // (e.g. the 10 ms ALPS timer sleep) decay here like runnable ones.
        if (p->state == RunState::kSleeping && now - p->sleep_start > util::sec(1)) {
            continue;
        }
        if (p->stopped && now - p->stop_start > util::sec(1)) continue;
        // The cached run-queue index is the ground truth for membership —
        // no scan, and requeueing below is O(1) unlink + append.
        const bool queued = p->rq_index >= 0;
        const Duration new_estcpu =
            std::clamp(decay_cpu(2 * loadavg, p->estcpu) + p->nice * kStatTick,
                       Duration::zero(), kEstcpuLimit);
        if (new_estcpu == p->estcpu) continue;
        const int old_index = queue_index(*p);
        p->estcpu = new_estcpu;
        recompute_priority(*p);
        // Requeue only on an actual cross-queue move so that decay does not
        // perturb FIFO order within a queue.
        if (queued && queue_index(*p) != old_index) {
            dequeue(*p);
            enqueue(*p);
        }
    }
}

}  // namespace alps::os
