#include "os/policies/lottery.h"

#include <algorithm>

#include "os/policies/weight.h"
#include "util/assert.h"

namespace alps::os::policies {

using util::Duration;

LotteryPolicy::LotteryPolicy(LotteryPolicyConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

LotteryPolicy::Ticketing& LotteryPolicy::state(const Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < tickets_.size() && tickets_[pid].known);
    return tickets_[pid];
}

const LotteryPolicy::Ticketing& LotteryPolicy::state(const Proc& p) const {
    const auto pid = static_cast<std::size_t>(p.pid);
    ALPS_EXPECT(pid < tickets_.size() && tickets_[pid].known);
    return tickets_[pid];
}

// ----------------------------------------------------------------------------
// Lifecycle

void LotteryPolicy::add(Proc& p) {
    const auto pid = static_cast<std::size_t>(p.pid);
    if (pid >= tickets_.size()) tickets_.resize(pid + 1);
    ALPS_EXPECT(!tickets_[pid].known);
    Ticketing& t = tickets_[pid];
    t = Ticketing{};
    t.known = true;
    t.amount = static_cast<double>(nice_to_weight(p.nice));
}

void LotteryPolicy::remove(Proc& p) {
    Ticketing& t = state(p);
    if (p.rq_index == kOnBoostQueue) {
        boosted_.remove(p);
        --boosted_size_;
        p.rq_index = -1;
    } else if (p.rq_index == kOnPrimary) {
        pool_.remove(p);
        --pool_size_;
        p.rq_index = -1;
    }
    t = Ticketing{};
    winner_ = nullptr;
}

void LotteryPolicy::on_migrate_out(Proc& p) {
    p.tickets = state(p).amount;
    remove(p);
}

void LotteryPolicy::on_migrate_in(Proc& p) {
    add(p);
    state(p).amount = p.tickets;
}

// ----------------------------------------------------------------------------
// Queueing

void LotteryPolicy::enqueue(Proc& p) {
    ALPS_EXPECT(p.rq_index < 0);
    Ticketing& t = state(p);
    // Leaving the CPU mid-quantum earns a compensation factor quantum/stint,
    // held until the next win (set here; consumed in pop()).
    if (t.stint > Duration::zero() && t.stint < cfg_.quantum) {
        t.comp = std::min(kMaxCompensation,
                          util::to_sec(cfg_.quantum) / util::to_sec(t.stint));
    } else {
        t.comp = 1.0;
    }
    if (p.wake_boost) {
        boosted_.push_back(p);
        ++boosted_size_;
        p.rq_index = kOnBoostQueue;
    } else {
        pool_.push_back(p);
        ++pool_size_;
        p.rq_index = kOnPrimary;
    }
    winner_ = nullptr;
}

void LotteryPolicy::dequeue(Proc& p) {
    if (p.rq_index == kOnBoostQueue) {
        boosted_.remove(p);
        --boosted_size_;
    } else if (p.rq_index == kOnPrimary) {
        pool_.remove(p);
        --pool_size_;
    } else {
        return;  // not queued; benign (stop/exit paths)
    }
    p.rq_index = -1;
    winner_ = nullptr;
}

Proc* LotteryPolicy::draw() {
    if (winner_ != nullptr) return winner_;
    if (pool_.empty()) return nullptr;
    double total = 0.0;
    for (const Proc* p = pool_.head; p != nullptr; p = p->rq_next) {
        const Ticketing& t = state(*p);
        total += t.amount * t.comp;
    }
    if (total <= 0.0) {
        winner_ = pool_.head;  // no tickets: degenerate FIFO
        return winner_;
    }
    const double ticket = rng_.next_double() * total;
    double acc = 0.0;
    for (Proc* p = pool_.head; p != nullptr; p = p->rq_next) {
        const Ticketing& t = state(*p);
        acc += t.amount * t.comp;
        if (ticket < acc) {
            winner_ = p;
            return winner_;
        }
    }
    winner_ = pool_.tail;  // fp round-off on the last holder
    return winner_;
}

Proc* LotteryPolicy::peek() {
    if (!boosted_.empty()) return boosted_.head;
    return draw();
}

Proc* LotteryPolicy::pop() {
    Proc* p = peek();
    if (p == nullptr) return nullptr;
    Ticketing& t = state(*p);
    if (p->rq_index == kOnBoostQueue) {
        boosted_.remove(*p);
        --boosted_size_;
    } else {
        pool_.remove(*p);
        --pool_size_;
        // A lottery win consumes any held compensation ticket and starts a
        // fresh stint.
        t.comp = 1.0;
        t.stint = Duration::zero();
    }
    p->rq_index = -1;
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

void LotteryPolicy::charge(Proc& p, Duration ran) {
    state(p).stint += ran;
}

void LotteryPolicy::on_wakeup(Proc& /*p*/, Duration /*slept*/) {}

void LotteryPolicy::second_tick(std::span<Proc* const> /*procs*/, double /*loadavg*/,
                                util::TimePoint /*now*/) {}

// ----------------------------------------------------------------------------
// Tickets

void LotteryPolicy::set_tickets(const Proc& p, double amount) {
    ALPS_EXPECT(amount >= 0.0);
    state(p).amount = amount;
    winner_ = nullptr;
}

double LotteryPolicy::effective_tickets(const Proc& p) const {
    return state(p).amount;
}

double LotteryPolicy::compensation(const Proc& p) const { return state(p).comp; }

}  // namespace alps::os::policies
