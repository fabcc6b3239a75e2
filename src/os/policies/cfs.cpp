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

CfsPolicy::Timing& CfsPolicy::state(const Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < procs_.size() && procs_[pid].known);
    return procs_[pid];
}

const CfsPolicy::Timing& CfsPolicy::state(const Proc& p) const {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < procs_.size() && procs_[pid].known);
    return procs_[pid];
}

void CfsPolicy::advance_min_vruntime(double candidate) {
    if (candidate > min_vruntime_) min_vruntime_ = candidate;
}

// ----------------------------------------------------------------------------
// Lifecycle

void CfsPolicy::add(Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    if (pid >= procs_.size()) procs_.resize(pid + 1);
    ALPS_EXPECT(!procs_[pid].known);
    Timing& t = procs_[pid];
    t = Timing{};
    t.known = true;
    t.weight = static_cast<double>(nice_to_weight(p.nice));
    // New tasks start at the fair point, neither ahead nor behind.
    t.vruntime = min_vruntime_;
}

void CfsPolicy::remove(Proc& p) {
    if (p.rq_index >= 0) dequeue(p);
    state(p) = Timing{};
}

// ----------------------------------------------------------------------------
// Queueing

void CfsPolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    Timing& t = state(p);
    if (p.wake_boost) {
        boosted_.push_back(p);
        ++boosted_size_;
        p.rq_index = kOnBoostQueue;
    } else {
        queue_.push(p, t.vruntime);
        p.rq_index = kOnPrimary;
    }
}

void CfsPolicy::dequeue(Proc& p) {
    if (p.rq_index == kOnBoostQueue) {
        boosted_.remove(p);
        --boosted_size_;
    } else if (p.rq_index == kOnPrimary) {
        queue_.erase(p);
    } else {
        return;  // not queued; benign (stop/exit paths)
    }
    p.rq_index = -1;
}

Proc* CfsPolicy::peek() {
    if (!boosted_.empty()) return boosted_.head;
    return queue_.min();
}

Proc* CfsPolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    if (p->rq_index == kOnBoostQueue) {
        boosted_.remove(*p);
        --boosted_size_;
    } else {
        queue_.erase(*p);
    }
    p->rq_index = -1;
    return p;
}

// ----------------------------------------------------------------------------
// Decisions

bool CfsPolicy::preempts(const Proc& cand, const Proc& running) const {
    if (cand.wake_boost && !running.wake_boost) return true;
    if (running.wake_boost) return false;
    // check_preempt_wakeup: preempt once the incumbent has run more than a
    // wakeup granularity (in the candidate's virtual clock) past the
    // candidate.
    const Timing& c = state(cand);
    const Timing& r = state(running);
    const double gran = static_cast<double>(kWakeupGranularity.count()) *
                        static_cast<double>(kWeightNice0) / c.weight;
    return r.vruntime - c.vruntime > gran;
}

bool CfsPolicy::yields_to(const Proc& running, const Proc& cand) const {
    if (cand.wake_boost) return true;
    return state(cand).vruntime < state(running).vruntime;
}

void CfsPolicy::charge(Proc& p, Duration ran) {
    Timing& t = state(p);
    t.vruntime += static_cast<double>(ran.count()) *
                  static_cast<double>(kWeightNice0) / t.weight;
    // update_min_vruntime: the low-water mark follows min(curr, leftmost),
    // forward only.
    double candidate = t.vruntime;
    if (!queue_.empty()) candidate = std::min(candidate, queue_.min_key());
    advance_min_vruntime(candidate);
}

void CfsPolicy::on_wakeup(Proc& p, Duration /*slept*/) {
    // place_entity: cap the sleeper's credit at half a latency period.
    Timing& t = state(p);
    const double floor =
        min_vruntime_ - static_cast<double>(cfg_.sched_latency.count()) / 2.0;
    t.vruntime = std::max(t.vruntime, floor);
}

void CfsPolicy::second_tick(std::span<Proc* const> /*procs*/, double /*loadavg*/,
                            util::TimePoint /*now*/) {}

util::Duration CfsPolicy::slice() const {
    const auto runnable = queue_.size() + boosted_size_ + 1;  // + the incumbent
    const auto share = cfg_.sched_latency / static_cast<std::int64_t>(runnable);
    return std::max(share, kMinGranularity);
}

double CfsPolicy::vruntime(const Proc& p) const { return state(p).vruntime; }

}  // namespace alps::os::policies
