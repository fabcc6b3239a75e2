// Stride scheduling (Waldspurger & Weihl, TR-528, 1995) as a kernel
// SchedPolicy: deterministic proportional share.
//
// Each process holds tickets; stride = stride1 / tickets is the pass-value
// cost of one quantum. The dispatcher always runs the minimum-pass process
// and advances its pass by stride × (cpu used / quantum), so long-run CPU is
// proportional to tickets with O(lg n) error instead of lottery's √n.
//
// Dynamic join/leave uses the paper's global pass + remain mechanism:
//   * global_pass advances at rate stride1 / (active tickets) per quantum of
//     CPU delivered, i.e. it tracks the pass of a hypothetical always-active
//     process holding all tickets.
//   * leave: remain = pass − global_pass (how far into its current "stride
//     window" the process was);
//   * join:  pass = global_pass + remain (the credit/debt is restored
//     relative to the new global pass, so sleeping neither banks CPU nor
//     forfeits a partially-paid-for quantum).
// The kernel does not notify the policy when a *running* process goes to
// sleep (it was popped earlier; it simply never comes back until wakeup), so
// remain is snapshotted at every charge() — the kernel always charges a
// process immediately before it leaves a CPU, which makes the snapshot exact
// at the moment of leave. Ticket changes rescale remain by the stride ratio
// (client_modify).
//
// The run queue is an IndexedProcHeap keyed by (pass, pid) — the PR-3
// position-indexed heap, O(lg n) with deterministic ties. Freshly woken
// processes bypass the pass order on the wake-boost FIFO exactly as in the
// lottery policy (the ALPS driver depends on immediate wake preemption).
//
// active-tickets caveat: the global-pass rate counts queued tickets plus the
// tickets of the process being charged, which is exact on a uniprocessor
// (every active process is either queued or the one on the CPU). With
// ncpus > 1 other CPUs' runners are not counted and global pass runs
// slightly fast; the zoo experiments are uniprocessor, like the paper's.
#pragma once

#include <cstdint>
#include <vector>

#include "os/policies/queueing.h"
#include "os/policy.h"

namespace alps::os::policies {

struct StridePolicyConfig {
    /// Scheduling quantum (pass advances by one stride per quantum of CPU).
    util::Duration quantum = util::msec(100);
};

class StridePolicy final : public SchedPolicy {
public:
    using Config = StridePolicyConfig;

    explicit StridePolicy(StridePolicyConfig cfg = {});

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
    void second_tick(std::span<Proc* const> procs, double loadavg,
                     util::TimePoint now) override;
    [[nodiscard]] std::size_t runnable() const override {
        return queue_.size() + boosted_size_;
    }
    /// A migrating process keeps its tickets (via Proc::tickets) and joins
    /// the new domain like a spawn at that rate: remain is one stride.
    void on_migrate_out(Proc& p) override;
    void on_migrate_in(Proc& p) override;
    [[nodiscard]] util::Duration slice() const override { return cfg_.quantum; }

    /// Reissues `p`'s tickets (> 0), rescaling remain by the stride ratio.
    /// The default grant at add() is nice_to_weight(p.nice).
    void set_tickets(const Proc& p, double tickets);

    [[nodiscard]] double tickets(const Proc& p) const;
    [[nodiscard]] double pass(const Proc& p) const;
    [[nodiscard]] double global_pass() const { return global_pass_; }

private:
    struct Striding {
        double tickets = 0.0;
        double stride = 0.0;   ///< stride1 / tickets
        double pass = 0.0;     ///< live while active; stale while asleep
        double remain = 0.0;   ///< pass − global_pass, snapshotted at charge
        bool known = false;
    };

    [[nodiscard]] Striding& state(const Proc& p);
    [[nodiscard]] const Striding& state(const Proc& p) const;

    StridePolicyConfig cfg_;
    IntrusiveFifo boosted_;     ///< wake_boost procs, ahead of the pass order
    std::size_t boosted_size_ = 0;
    IndexedProcHeap queue_;     ///< min-(pass, pid)
    std::vector<Striding> procs_;  ///< pid-indexed

    double global_pass_ = 0.0;
    /// Tickets of every queued process (heap + boost FIFO); the charge-time
    /// global-pass denominator adds the charged process's own tickets.
    double queued_tickets_ = 0.0;
};

}  // namespace alps::os::policies
