#include "os/policies/cfs.h"

#include <algorithm>

#include "os/policies/weight.h"
#include "util/assert.h"

namespace alps::os::policies {

using util::Duration;

/// Slice floor (kernel.sched_min_granularity_ns).
constexpr Duration kMinGranularity = util::usec(750);
/// Wakeup preemption threshold (kernel.sched_wakeup_granularity_ns).
constexpr Duration kWakeupGranularity = util::msec(1);

CfsPolicy::CfsPolicy(CfsPolicyConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.sched_latency > Duration::zero());
}

void CfsPolicy::advance_min_vruntime(std::int64_t candidate) {
    if (candidate > min_vruntime_) min_vruntime_ = candidate;
}

// ----------------------------------------------------------------------------
// Lifecycle

void CfsPolicy::add(Proc& p) {
    p.weight = nice_to_weight(p.nice);
    // New tasks start at the fair point, neither ahead nor behind.
    p.vtime = min_vruntime_;
}

void CfsPolicy::remove(Proc& p) { dequeue(p); }

// ----------------------------------------------------------------------------
// Queueing

void CfsPolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    if (!boosted_.offer(p)) {
        queue_.push(p, p.vtime);
        p.rq_index = kOnPrimary;
    }
}

void CfsPolicy::dequeue(Proc& p) {
    if (boosted_.take(p) || p.rq_index != kOnPrimary) return;  // boosted, or not queued
    queue_.erase(p);
    p.rq_index = -1;
}

Proc* CfsPolicy::peek() {
    if (Proc* head = boosted_.head(); head != nullptr) return head;
    return queue_.min();
}

Proc* CfsPolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    if (!boosted_.take(*p)) {
        queue_.erase(*p);
        p->rq_index = -1;
    }
    return p;
}

// ----------------------------------------------------------------------------
// Decisions

bool CfsPolicy::preempts(const Proc& cand, const Proc& running) const {
    if (cand.wake_boost && !running.wake_boost) return true;
    if (running.wake_boost) return false;
    // check_preempt_wakeup: preempt once the incumbent has run more than a
    // wakeup granularity (in the candidate's virtual clock) past the
    // candidate. The gap is an integer, so truncating the bound is exact.
    return running.vtime - cand.vtime >
           kWakeupGranularity.count() * kWeightNice0 / cand.weight;
}

bool CfsPolicy::yields_to(const Proc& running, const Proc& cand) const {
    if (cand.wake_boost) return true;
    return cand.vtime < running.vtime;
}

void CfsPolicy::charge(Proc& p, Duration ran) {
    advance_vclock(p.vtime, p.carry, ran.count(), kWeightNice0, p.weight);
    // update_min_vruntime: the low-water mark follows min(curr, leftmost),
    // forward only.
    std::int64_t candidate = p.vtime;
    if (!queue_.empty()) candidate = std::min(candidate, queue_.min_key());
    advance_min_vruntime(candidate);
}

void CfsPolicy::on_wakeup(Proc& p, Duration /*slept*/) {
    // place_entity: cap the sleeper's credit at half a latency period.
    p.vtime = std::max(p.vtime, min_vruntime_ - cfg_.sched_latency.count() / 2);
}

void CfsPolicy::second_tick(std::span<Proc* const> /*procs*/, std::int64_t /*loadavg*/,
                            util::TimePoint /*now*/) {}

util::Duration CfsPolicy::slice() const {
    const auto runnable = this->runnable() + 1;  // + the incumbent
    const auto share = cfg_.sched_latency / static_cast<std::int64_t>(runnable);
    return std::max(share, kMinGranularity);
}

std::int64_t CfsPolicy::vruntime(const Proc& p) const { return p.vtime; }

}  // namespace alps::os::policies
