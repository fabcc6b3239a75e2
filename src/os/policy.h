// Pluggable kernel scheduling policy.
//
// The default is the 4.4BSD multilevel-feedback policy (bsd_policy.h), the
// scheduler underneath FreeBSD 4.8 on which the paper ran. The policies in
// src/os/policies (lottery, stride, cfs) implement the same interface, which
// lets an experiment swap an in-kernel policy for the BSD one by name
// (KernelConfig::policy) while keeping the rest of the machine identical.
#pragma once

#include <span>

#include "os/proc.h"
#include "util/time.h"

namespace alps::os {

class SchedPolicy {
public:
    virtual ~SchedPolicy() = default;

    /// A process entered the system (spawn).
    virtual void add(Proc& p) = 0;
    /// A process left the system (exit); must no longer be referenced.
    virtual void remove(Proc& p) = 0;

    /// A process became eligible to run; place it on the run queues.
    virtual void enqueue(Proc& p) = 0;
    /// An enqueued process became ineligible (sleep/stop); remove it.
    virtual void dequeue(Proc& p) = 0;

    /// The best runnable process, without removing it (nullptr if none).
    /// Must be stable until the run queues change.
    virtual Proc* peek() = 0;
    /// Removes and returns the best runnable process (nullptr if none).
    virtual Proc* pop() = 0;

    /// True if `cand` should preempt `running` right now (strictly better).
    [[nodiscard]] virtual bool preempts(const Proc& cand, const Proc& running) const = 0;

    /// True if, at slice expiry, `running` must yield to queued `cand`
    /// (better or equal class — round-robin among peers).
    [[nodiscard]] virtual bool yields_to(const Proc& running, const Proc& cand) const = 0;

    /// `p` consumed `ran` of CPU; update usage estimates / virtual times.
    virtual void charge(Proc& p, util::Duration ran) = 0;

    /// `p` woke after sleeping for `slept`; apply any sleep credit.
    virtual void on_wakeup(Proc& p, util::Duration slept) = 0;

    /// Once-per-second housekeeping (4.4BSD schedcpu): decay usage estimates.
    /// `procs` holds every live process this instance is responsible for
    /// (the whole machine with one shared queue; one CPU's worth under
    /// per-CPU domains); `loadavg` is the smoothed count of eligible
    /// processes; `now` lets the policy skip processes idle for more than a
    /// second (handled by on_wakeup instead, like p_slptime).
    virtual void second_tick(std::span<Proc* const> procs, double loadavg,
                             util::TimePoint now) = 0;

    /// Maximum contiguous run before a forced round-robin decision.
    [[nodiscard]] virtual util::Duration slice() const = 0;

    // ----- per-CPU scheduling domains (idle-steal / rebalance) -----

    /// Number of processes currently on this instance's run queues (primary
    /// + wake-boost FIFO). The kernel's steal/rebalance passes use it as the
    /// load metric when picking victim domains, so it must be O(1).
    [[nodiscard]] virtual std::size_t runnable() const = 0;

    /// A process is leaving this instance for another CPU's domain. The
    /// kernel has already popped it off the run queues; drop any per-process
    /// policy state. Default: remove() (every zoo policy's remove tolerates
    /// an unqueued process).
    virtual void on_migrate_out(Proc& p) { remove(p); }

    /// A migrated process is joining this instance (the counterpart of
    /// on_migrate_out; the kernel enqueues or dispatches it afterwards).
    /// Default: add() — i.e. the process joins like a fresh spawn. Policies
    /// whose usage state lives on the Proc itself (BSD's estcpu) override
    /// this to carry that state across instead of resetting it.
    virtual void on_migrate_in(Proc& p) { add(p); }
};

}  // namespace alps::os
