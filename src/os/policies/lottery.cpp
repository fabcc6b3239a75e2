#include "os/policies/lottery.h"

#include <algorithm>

#include "os/policies/weight.h"
#include "util/assert.h"

namespace alps::os::policies {

using util::Duration;

LotteryPolicy::LotteryPolicy(LotteryPolicyConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

// ----------------------------------------------------------------------------
// Lifecycle

void LotteryPolicy::add(Proc& p) {
    p.weight = static_cast<double>(nice_to_weight(p.nice));
    p.comp = 1.0;
    p.stint = Duration::zero();
}

void LotteryPolicy::remove(Proc& p) {
    dequeue(p);
    winner_ = nullptr;
}

void LotteryPolicy::on_migrate_in(Proc& p) {
    p.comp = 1.0;
    p.stint = Duration::zero();
}

// ----------------------------------------------------------------------------
// Queueing

void LotteryPolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    // Leaving the CPU mid-quantum earns a compensation factor quantum/stint,
    // held until the next win (set here; consumed in pop()).
    if (p.stint > Duration::zero() && p.stint < cfg_.quantum) {
        p.comp = std::min(kMaxCompensation,
                          util::to_sec(cfg_.quantum) / util::to_sec(p.stint));
    } else {
        p.comp = 1.0;
    }
    if (!boosted_.offer(p)) {
        pool_.push_back(p);
        p.rq_index = kOnPrimary;
    }
    winner_ = nullptr;
}

void LotteryPolicy::dequeue(Proc& p) {
    if (!boosted_.take(p)) {
        if (p.rq_index != kOnPrimary) return;  // not queued; benign (stop/exit paths)
        pool_.remove(p);
        p.rq_index = -1;
    }
    winner_ = nullptr;
}

Proc* LotteryPolicy::draw() {
    if (winner_ != nullptr) return winner_;
    if (pool_.empty()) return nullptr;
    double total = 0.0;
    for (const Proc* p = pool_.head(); p != nullptr; p = p->rq_next) {
        total += p->weight * p->comp;
    }
    if (total <= 0.0) {
        winner_ = pool_.head();  // no tickets: degenerate FIFO
        return winner_;
    }
    const double ticket = rng_.next_double() * total;
    double acc = 0.0;
    for (Proc* p = pool_.head(); p != nullptr; p = p->rq_next) {
        acc += p->weight * p->comp;
        if (ticket < acc) {
            winner_ = p;
            return winner_;
        }
    }
    winner_ = pool_.tail();  // fp round-off on the last holder
    return winner_;
}

Proc* LotteryPolicy::peek() {
    if (Proc* head = boosted_.head(); head != nullptr) return head;
    return draw();
}

Proc* LotteryPolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    if (!boosted_.take(*p)) {
        pool_.remove(*p);
        p->rq_index = -1;
        // A lottery win consumes any held compensation ticket and starts a
        // fresh stint.
        p->comp = 1.0;
        p->stint = Duration::zero();
    }
    winner_ = nullptr;
    return p;
}

// ----------------------------------------------------------------------------
// Decisions

bool LotteryPolicy::preempts(const Proc& cand, const Proc& running) const {
    // Only the kernel-exit boost preempts mid-quantum; ticket counts do not.
    return cand.wake_boost && !running.wake_boost;
}

bool LotteryPolicy::yields_to(const Proc& /*running*/, const Proc& /*cand*/) const {
    // Every quantum expiry is a fresh drawing.
    return true;
}

void LotteryPolicy::charge(Proc& p, Duration ran) { p.stint += ran; }

void LotteryPolicy::on_wakeup(Proc& /*p*/, Duration /*slept*/) {}

void LotteryPolicy::second_tick(std::span<Proc* const> /*procs*/, double /*loadavg*/,
                                util::TimePoint /*now*/) {}

// ----------------------------------------------------------------------------
// Tickets

void LotteryPolicy::set_tickets(const Proc& p, double amount) {
    ALPS_EXPECT(amount >= 0.0);
    // The Proc is the kernel's, handed out const; its scheduling fields are
    // this policy's to write.
    const_cast<Proc&>(p).weight = amount;
    winner_ = nullptr;
}

double LotteryPolicy::effective_tickets(const Proc& p) const { return p.weight; }

double LotteryPolicy::compensation(const Proc& p) const { return p.comp; }

}  // namespace alps::os::policies
