#include "os/policies/stride.h"

#include "os/policies/weight.h"
#include "util/assert.h"

namespace alps::os::policies {

using util::Duration;

/// stride1: the stride of a single ticket (2^20, as in the paper).
constexpr double kStride1 = 1048576.0;

/// The pass-value cost of one quantum at `tickets`.
constexpr double stride_of(double tickets) { return kStride1 / tickets; }

StridePolicy::StridePolicy(StridePolicyConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

// ----------------------------------------------------------------------------
// Lifecycle

void StridePolicy::add(Proc& p) {
    p.weight = static_cast<double>(nice_to_weight(p.nice));
    p.vtime = 0.0;
    // client_init: a new process owes one full stride before its first
    // quantum, so a flood of spawns starts in ticket order, not all at once.
    p.remain = stride_of(p.weight);
}

void StridePolicy::remove(Proc& p) { dequeue(p); }

void StridePolicy::on_migrate_in(Proc& p) {
    // Reset like a spawn, pass included. A stolen process is dispatched
    // without a join, so its pass restarts from 0 rather than from this
    // domain's global pass, and the remain snapshotted at its next charge
    // carries that lead.
    p.vtime = 0.0;
    p.remain = stride_of(p.weight);
}

// ----------------------------------------------------------------------------
// Queueing (join / leave)

void StridePolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    // join: restore the saved lateness credit against the current global
    // pass. remain was snapshotted at the last charge (== the moment this
    // process last left a CPU) or at dequeue.
    p.vtime = global_pass_ + p.remain;
    if (!boosted_.offer(p)) {
        queue_.push(p, p.vtime);
        p.rq_index = kOnPrimary;
    }
    queued_tickets_ += p.weight;
}

void StridePolicy::dequeue(Proc& p) {
    if (!boosted_.take(p)) {
        if (p.rq_index != kOnPrimary) return;  // not queued; benign (stop/exit paths)
        queue_.erase(p);
        p.rq_index = -1;
    }
    queued_tickets_ -= p.weight;
    // leave: bank how far into the current stride window the process was.
    p.remain = p.vtime - global_pass_;
}

Proc* StridePolicy::peek() {
    if (Proc* head = boosted_.head(); head != nullptr) return head;
    return queue_.min();
}

Proc* StridePolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    if (!boosted_.take(*p)) {
        queue_.erase(*p);
        p->rq_index = -1;
    }
    queued_tickets_ -= p->weight;
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
    return cand.vtime <= running.vtime;
}

void StridePolicy::charge(Proc& p, Duration ran) {
    const double quanta = util::to_sec(ran) / util::to_sec(cfg_.quantum);
    p.vtime += stride_of(p.weight) * quanta;
    // Global pass advances as if one process holding every active ticket ran:
    // active = queued + the process currently being charged (exact with one
    // CPU; see the header caveat).
    const double active = queued_tickets_ + p.weight;
    ALPS_ENSURE(active > 0.0);
    global_pass_ += stride_of(active) * quanta;
    // Snapshot the leave credit now: if the process sleeps after this charge
    // the policy hears nothing until wakeup, and this snapshot — taken at
    // the exact moment it left the CPU — is its remain.
    p.remain = p.vtime - global_pass_;
}

void StridePolicy::on_wakeup(Proc& /*p*/, Duration /*slept*/) {}

void StridePolicy::second_tick(std::span<Proc* const> /*procs*/, double /*loadavg*/,
                               util::TimePoint /*now*/) {}

// ----------------------------------------------------------------------------
// Ticket operations

void StridePolicy::set_tickets(const Proc& cp, double tickets) {
    ALPS_EXPECT(tickets > 0.0);
    // The Proc is the kernel's, handed out const; its scheduling fields are
    // this policy's to write.
    Proc& p = const_cast<Proc&>(cp);
    const bool queued = p.rq_index >= 0;
    if (queued) {
        queued_tickets_ -= p.weight;
        p.remain = p.vtime - global_pass_;  // leave
    }
    // client_modify: scale the partially-consumed stride window so the
    // fraction of a quantum already paid for carries over.
    p.remain = p.remain * (stride_of(tickets) / stride_of(p.weight));
    p.weight = tickets;
    if (queued) {
        p.vtime = global_pass_ + p.remain;  // rejoin at the new rate
        queued_tickets_ += p.weight;
        if (p.rq_index == kOnPrimary) queue_.update_key(p, p.vtime);
    }
}

double StridePolicy::tickets(const Proc& p) const { return p.weight; }

double StridePolicy::pass(const Proc& p) const {
    return p.rq_index >= 0 ? p.vtime : global_pass_ + p.remain;
}

}  // namespace alps::os::policies
