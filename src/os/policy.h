// Pluggable kernel scheduling policy.
//
// The default is the 4.4BSD multilevel-feedback policy (bsd_policy.h), the
// scheduler underneath FreeBSD 4.8 on which the paper ran. The policies in
// src/os/policies (lottery, stride, cfs) implement the same interface, which
// lets an experiment swap an in-kernel policy for the BSD one by name
// (KernelConfig::policy) while keeping the rest of the machine identical.
//
// An instance serves one scheduling domain and holds only per-domain state
// (its run queues, a global pass, a min_vruntime). Per-process state lives
// on the Proc (estcpu, weight, vtime, ...) and the run queues thread through
// it, so no policy keeps a pid-indexed table and a migrating process takes
// its state along.
#pragma once

#include <cstdint>
#include <span>

#include "os/proc.h"
#include "util/time.h"

namespace alps::os {

/// The load average's fixed point, 4.4BSD's FSHIFT: FSCALE stands for 1.0.
inline constexpr int kFshift = 11;
inline constexpr std::int64_t kFscale = std::int64_t{1} << kFshift;

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
    /// processes, in kFscale fixed point; `now` lets the policy skip
    /// processes idle for more than a second (handled by on_wakeup instead,
    /// like p_slptime).
    virtual void second_tick(std::span<Proc* const> procs, std::int64_t loadavg,
                             util::TimePoint now) = 0;

    /// Maximum contiguous run before a forced round-robin decision.
    [[nodiscard]] virtual util::Duration slice() const = 0;

    // ----- per-CPU scheduling domains (idle-steal / rebalance) -----

    /// Number of processes currently on this instance's run queues (primary
    /// + wake-boost FIFO). The kernel's steal/rebalance passes use it as the
    /// load metric when picking victim domains, so it must be O(1).
    [[nodiscard]] virtual std::size_t runnable() const = 0;

    /// A migrated process is joining this instance. The kernel has already
    /// popped it off the source domain's queues, and enqueues or dispatches
    /// it afterwards. Every scheduling field lives on the Proc and moves
    /// with it; the policy resets only what a migrant does not carry
    /// (DESIGN §11): BSD keeps estcpu, lottery keeps its holding and stride
    /// its tickets, while compensation, stride's remain and CFS's vruntime
    /// start again on this domain.
    virtual void on_migrate_in(Proc& p) = 0;
};

}  // namespace alps::os
