#include "os/bsd_policy.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.h"

namespace alps::os {

BsdPolicy::BsdPolicy(BsdPolicyConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.round_robin > util::Duration::zero());
}

int BsdPolicy::queue_index(const Proc& p) const {
    // A freshly woken process still holds its kernel sleep priority (PWAIT
    // class) until it returns to user mode.
    const double pri = p.wake_boost ? kSleepPri : p.usrpri;
    const double span = kMaxPri + 1.0;
    int idx = static_cast<int>(pri / (span / kNumQueues));
    return std::clamp(idx, 0, kNumQueues - 1);
}

void BsdPolicy::recompute_priority(Proc& p) const {
    // resetpriority() clamps only the upper bound: a negative nice drops
    // below PUSER by design, so a privileged daemon outranks user-mode
    // processes even after its wakeup boost is spent.
    const double pri = kPuser + p.estcpu / 4.0 + 2.0 * p.nice;
    p.usrpri = std::clamp(pri, 0.0, kMaxPri);
}

double BsdPolicy::decay_factor(double loadavg) {
    return (2.0 * loadavg) / (2.0 * loadavg + 1.0);
}

void BsdPolicy::add(Proc& p) {
    p.estcpu = 0.0;
    recompute_priority(p);
}

void BsdPolicy::remove(Proc& p) {
    // A process can exit while queued (e.g. killed); make sure it is gone.
    dequeue(p);
}

void BsdPolicy::enqueue(Proc& p) {
    // Contract: never enqueue twice (the cached index doubles as the
    // membership flag, replacing the old O(n) std::find check).
    ALPS_EXPECT(p.rq_index < 0);
    const int idx = queue_index(p);
    RunQueue& q = queues_[static_cast<std::size_t>(idx)];
    p.rq_index = idx;
    p.rq_next = nullptr;
    p.rq_prev = q.tail;
    if (q.tail != nullptr) {
        q.tail->rq_next = &p;
    } else {
        q.head = &p;
        whichqs_ |= 1u << idx;
    }
    q.tail = &p;
    ++runnable_;
}

void BsdPolicy::dequeue(Proc& p) {
    // Benign on a non-queued process, like the old scan (remove() and stop
    // handling call this unconditionally).
    if (p.rq_index < 0) return;
    RunQueue& q = queues_[static_cast<std::size_t>(p.rq_index)];
    if (p.rq_prev != nullptr) {
        p.rq_prev->rq_next = p.rq_next;
    } else {
        q.head = p.rq_next;
    }
    if (p.rq_next != nullptr) {
        p.rq_next->rq_prev = p.rq_prev;
    } else {
        q.tail = p.rq_prev;
    }
    if (q.head == nullptr) whichqs_ &= ~(1u << p.rq_index);
    p.rq_prev = nullptr;
    p.rq_next = nullptr;
    p.rq_index = -1;
    --runnable_;
}

Proc* BsdPolicy::peek() {
    if (whichqs_ == 0) return nullptr;
    return queues_[static_cast<std::size_t>(std::countr_zero(whichqs_))].head;
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

void BsdPolicy::charge(Proc& p, util::Duration ran) {
    ALPS_EXPECT(ran >= util::Duration::zero());
    const double ticks =
        static_cast<double>(ran.count()) / static_cast<double>(kStatTick.count());
    p.estcpu = std::min(p.estcpu + ticks, kEstcpuLimit);
    recompute_priority(p);
}

void BsdPolicy::on_wakeup(Proc& p, util::Duration slept) {
    // updatepri(): one decay per whole second slept.
    const auto seconds = slept / util::sec(1);
    if (seconds >= 1) {
        const double d = decay_factor(std::max(last_loadavg_, 0.0));
        // Sleeps of 1-3 whole seconds dominate; spare them the per-wakeup
        // libm pow() call. Replay determinism demands the *same doubles* the
        // uncached pow(d, seconds) produced, and multiplications are not
        // that: libm's pow is off the correctly-rounded square/cube by an
        // ulp for a fraction of decay factors (d*d for ~0.1%, d*d*d for
        // ~25% — test_os_bsd_policy pins this down), so only seconds==1 may
        // shortcut (pow(d, 1) returns d exactly). The squares and cubes are
        // libm values cached per decay factor: under steady load that is one
        // pow() per schedcpu load change instead of one per wakeup.
        double f;
        if (seconds == 1) {
            f = d;
        } else if (seconds <= 3) {
            if (d != pow_base_) {
                pow_base_ = d;
                // Volatile exponents force the real libm calls: the
                // compiler folds pow(d, 2.0) into d*d, which is exactly the
                // ulp divergence this cache exists to avoid.
                volatile double two = 2.0;
                volatile double three = 3.0;
                pow2_ = std::pow(d, two);
                pow3_ = std::pow(d, three);
            }
            f = seconds == 2 ? pow2_ : pow3_;
        } else {
            f = std::pow(d, static_cast<double>(seconds));
        }
        p.estcpu *= f;
        recompute_priority(p);
    }
}

void BsdPolicy::second_tick(std::span<Proc* const> procs, double loadavg,
                            util::TimePoint now) {
    last_loadavg_ = loadavg;
    const double d = decay_factor(loadavg);
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
        const double new_estcpu = std::clamp(
            d * p->estcpu + static_cast<double>(p->nice), 0.0, kEstcpuLimit);
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
