#include "os/policies/stride.h"

#include "os/policies/weight.h"
#include "util/assert.h"

namespace alps::os::policies {

using util::Duration;

/// stride1: the stride of a single ticket (2^20, as in the paper).
constexpr double kStride1 = 1048576.0;

StridePolicy::StridePolicy(StridePolicyConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

StridePolicy::Striding& StridePolicy::state(const Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < procs_.size() && procs_[pid].known);
    return procs_[pid];
}

const StridePolicy::Striding& StridePolicy::state(const Proc& p) const {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < procs_.size() && procs_[pid].known);
    return procs_[pid];
}

// ----------------------------------------------------------------------------
// Lifecycle

void StridePolicy::add(Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    if (pid >= procs_.size()) procs_.resize(pid + 1);
    ALPS_EXPECT(!procs_[pid].known);
    Striding& s = procs_[pid];
    s = Striding{};
    s.known = true;
    s.tickets = static_cast<double>(nice_to_weight(p.nice));
    s.stride = kStride1 / s.tickets;
    // client_init: a new process owes one full stride before its first
    // quantum, so a flood of spawns starts in ticket order, not all at once.
    s.remain = s.stride;
}

void StridePolicy::remove(Proc& p) {
    if (p.rq_index >= 0) dequeue(p);
    state(p) = Striding{};
}

void StridePolicy::on_migrate_out(Proc& p) {
    p.tickets = state(p).tickets;
    remove(p);
}

void StridePolicy::on_migrate_in(Proc& p) {
    add(p);
    Striding& s = state(p);
    s.tickets = p.tickets;
    s.stride = kStride1 / s.tickets;
    s.remain = s.stride;
}

// ----------------------------------------------------------------------------
// Queueing (join / leave)

void StridePolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    Striding& s = state(p);
    // join: restore the saved lateness credit against the current global
    // pass. remain was snapshotted at the last charge (== the moment this
    // process last left a CPU) or at dequeue.
    s.pass = global_pass_ + s.remain;
    if (p.wake_boost) {
        boosted_.push_back(p);
        ++boosted_size_;
        p.rq_index = kOnBoostQueue;
    } else {
        queue_.push(p, s.pass);
        p.rq_index = kOnPrimary;
    }
    queued_tickets_ += s.tickets;
}

void StridePolicy::dequeue(Proc& p) {
    if (p.rq_index == kOnBoostQueue) {
        boosted_.remove(p);
        --boosted_size_;
    } else if (p.rq_index == kOnPrimary) {
        queue_.erase(p);
    } else {
        return;  // not queued; benign (stop/exit paths)
    }
    p.rq_index = -1;
    Striding& s = state(p);
    queued_tickets_ -= s.tickets;
    // leave: bank how far into the current stride window the process was.
    s.remain = s.pass - global_pass_;
}

Proc* StridePolicy::peek() {
    if (!boosted_.empty()) return boosted_.head;
    return queue_.min();
}

Proc* StridePolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    if (p->rq_index == kOnBoostQueue) {
        boosted_.remove(*p);
        --boosted_size_;
    } else {
        queue_.erase(*p);
    }
    p->rq_index = -1;
    queued_tickets_ -= state(*p).tickets;
    return p;
}

// ----------------------------------------------------------------------------
// Decisions

bool StridePolicy::preempts(const Proc& cand, const Proc& running) const {
    // Stride is quantum-grained: only the kernel-exit wake boost preempts.
    return cand.wake_boost && !running.wake_boost;
}

bool StridePolicy::yields_to(const Proc& running, const Proc& cand) const {
    if (cand.wake_boost) return true;
    // At quantum expiry the minimum-pass process runs; the incumbent was
    // just charged, so its pass already reflects the expired quantum.
    return state(cand).pass <= state(running).pass;
}

void StridePolicy::charge(Proc& p, Duration ran) {
    Striding& s = state(p);
    const double quanta = util::to_sec(ran) / util::to_sec(cfg_.quantum);
    s.pass += s.stride * quanta;
    // Global pass advances as if one process holding every active ticket ran:
    // active = queued + the process currently being charged (exact with one
    // CPU; see the header caveat).
    const double active = queued_tickets_ + s.tickets;
    ALPS_ENSURE(active > 0.0);
    global_pass_ += (kStride1 / active) * quanta;
    // Snapshot the leave credit now: if the process sleeps after this charge
    // the policy hears nothing until wakeup, and this snapshot — taken at
    // the exact moment it left the CPU — is its remain.
    s.remain = s.pass - global_pass_;
}

void StridePolicy::on_wakeup(Proc& /*p*/, Duration /*slept*/) {}

void StridePolicy::second_tick(std::span<Proc* const> /*procs*/, double /*loadavg*/,
                               util::TimePoint /*now*/) {}

// ----------------------------------------------------------------------------
// Ticket operations

void StridePolicy::set_tickets(const Proc& p, double tickets) {
    ALPS_EXPECT(tickets > 0.0);
    Striding& s = state(p);
    const double new_stride = kStride1 / tickets;
    const bool queued = p.rq_index >= 0;
    if (queued) {
        queued_tickets_ -= s.tickets;
        s.remain = s.pass - global_pass_;  // leave
    }
    // client_modify: scale the partially-consumed stride window so the
    // fraction of a quantum already paid for carries over.
    s.remain = s.remain * (new_stride / s.stride);
    s.tickets = tickets;
    s.stride = new_stride;
    if (queued) {
        s.pass = global_pass_ + s.remain;  // rejoin at the new rate
        queued_tickets_ += s.tickets;
        if (p.rq_index == kOnPrimary) queue_.update_key(const_cast<Proc&>(p), s.pass);
    }
}

double StridePolicy::tickets(const Proc& p) const { return state(p).tickets; }

double StridePolicy::pass(const Proc& p) const {
    const Striding& s = state(p);
    return p.rq_index >= 0 ? s.pass : global_pass_ + s.remain;
}

}  // namespace alps::os::policies
