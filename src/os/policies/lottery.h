// Lottery scheduling (Waldspurger & Weihl, OSDI '94) as a kernel SchedPolicy.
//
// Each process holds an amount of tickets (Proc::weight). Every dispatch
// decision draws a uniform value over the runnable processes' tickets (via
// the repo's deterministic xoshiro RNG) and the holder of the winning ticket
// runs for one quantum.
//
// Compensation tickets: a process that used only a fraction f < 1 of its
// quantum before leaving the CPU (sleep, preemption) has its tickets
// inflated by 1/f (Proc::comp) until it next wins, preserving its expected
// share despite short stints (paper §3.4). The stint (Proc::stint) is
// accumulated across charge() calls since the last win, so fragmented
// charging (the kernel charges at every scheduling decision, not once per
// slice) still yields one 1/f factor.
//
// Interaction with the wake-boost protocol: processes waking from a kernel
// sleep must preempt user-mode work immediately (Proc::wake_boost; the ALPS
// driver depends on this to take its tick at quantum boundaries). Boosted
// processes therefore bypass the lottery entirely — they sit on a FIFO that
// peek()/pop() service ahead of any draw, mirroring BsdPolicy's kernel
// sleep-priority queue.
#pragma once

#include <cstdint>

#include "os/policies/queueing.h"
#include "os/policy.h"
#include "util/rng.h"

namespace alps::os::policies {

struct LotteryPolicyConfig {
    /// Lottery quantum: one draw per this much CPU (Waldspurger used 100 ms).
    util::Duration quantum = util::msec(100);
    /// Seed for the draw stream; same seed + same event order = same draws.
    std::uint64_t seed = 0xa1b5'10'77e41ULL;
};

class LotteryPolicy final : public SchedPolicy {
public:
    using Config = LotteryPolicyConfig;
    /// Compensation-ticket cap: 1/f inflation is clamped to this factor.
    static constexpr double kMaxCompensation = 64.0;

    explicit LotteryPolicy(LotteryPolicyConfig cfg = {});

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
    [[nodiscard]] util::Duration slice() const override { return cfg_.quantum; }
    [[nodiscard]] std::size_t runnable() const override {
        return pool_.size() + boosted_.size();
    }
    /// A migrating process keeps its holding (Proc::weight); its
    /// compensation and stint start fresh on the new domain.
    void on_migrate_in(Proc& p) override;

    // ----- tickets -----

    /// Reissues `p`'s holding as `amount` tickets. The default grant at
    /// add() is nice_to_weight(p.nice) tickets.
    void set_tickets(const Proc& p, std::int64_t amount);

    /// `p`'s holding (excluding compensation).
    [[nodiscard]] std::int64_t effective_tickets(const Proc& p) const;
    /// Current compensation factor (1 when none is held).
    [[nodiscard]] double compensation(const Proc& p) const;

private:
    /// Draw (or return the memoized) winner among the ticket FIFO.
    Proc* draw();

    LotteryPolicyConfig cfg_;
    util::Rng rng_;
    WakeBoostFifo boosted_;  ///< wake_boost procs, FIFO, ahead of any draw
    IntrusiveFifo pool_;     ///< runnable ticket holders, in enqueue order

    /// peek() must be stable until the queues change, so the draw is
    /// memoized here and invalidated by every queue/ticket mutation.
    Proc* winner_ = nullptr;
};

}  // namespace alps::os::policies
