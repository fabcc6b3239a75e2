// The simulated process control block.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "os/behavior.h"
#include "os/types.h"
#include "sim/engine.h"
#include "util/time.h"

namespace alps::os {

/// Process control block. Owned by the Kernel; scheduling policies receive
/// references and keep every per-process scheduling field here, as 4.4BSD
/// keeps p_estcpu and p_usrpri in struct proc. The fields are ordered to
/// leave no padding between them: the arena holds one Proc per spawn.
struct Proc {
    Pid pid = kNoPid;
    Uid uid = 0;
    std::string name;
    int nice = 0;

    RunState state = RunState::kRunnable;
    /// Job-control stop flag, orthogonal to `state` (a process stopped while
    /// sleeping keeps sleeping; its timer may expire while stopped).
    bool stopped = false;
    /// One-shot wakeup boost: a process waking from tsleep() holds its
    /// *kernel* sleep priority (better than any user priority) until it is
    /// dispatched and returns to user mode — so sleepers preempt compute-
    /// bound processes immediately, exactly as under 4.4BSD. Cleared at
    /// dispatch; the dispatcher then re-checks preemption at user priority.
    bool wake_boost = false;
    /// Hard affinity: idle-steal and rebalance never migrate a pinned
    /// process, so it stays on the domain it was spawned (or last
    /// explicitly migrated) to. Meaningless without percpu_queues.
    bool pinned = false;
    bool phase_lazy_pending = false;  ///< lazy run demand not yet computed
    /// CPU affinity: the scheduling domain this process queues on — its CPU
    /// when the kernel runs per-CPU run queues (KernelConfig::percpu_queues),
    /// always 0 under the shared global queue, whose one domain serves every
    /// CPU. Updated by the kernel when idle-steal or the periodic rebalance
    /// migrates the process.
    int home_cpu = 0;
    int on_cpu = -1;  ///< CPU index while running, else -1

    // --- 4.4BSD scheduling fields (maintained by BsdPolicy) ---
    double estcpu = 0.0;  ///< decaying estimate of recent CPU use, in stat ticks
    double usrpri = 0.0;  ///< user-mode priority; lower is better

    // --- intrusive run-queue links (maintained by the policy, like the
    // --- p_forw/p_back TAILQ links of the real struct proc) ---
    Proc* rq_prev = nullptr;
    Proc* rq_next = nullptr;
    int rq_index = -1;  ///< run-queue index or zoo membership mark while queued, else -1
    std::int32_t heap_pos = -1;  ///< slot in a zoo policy's IndexedProcHeap, else -1

    // --- kernel bookkeeping indices (maintained by Kernel) ---
    std::size_t uid_index = 0;  ///< position in the per-uid live list

    // --- accounting (the simulated getrusage) ---
    util::Duration cpu_consumed{0};  ///< total CPU time ever consumed
    std::uint64_t dispatches = 0;    ///< times placed on a CPU
    std::uint64_t voluntary_sleeps = 0;

    // --- current phase ---
    util::Duration run_remaining{0};  ///< CPU left in the current run phase
    sim::EventId sleep_event = 0;     ///< pending timer wake, if any
    sim::EventId pending_stop_event = 0;  ///< deferred SIGSTOP delivery, if any

    // --- bookkeeping for the scheduler ---
    util::TimePoint last_charge{};    ///< start of the current on-CPU stretch
    util::TimePoint slice_end{};      ///< round-robin deadline for this stretch
    util::TimePoint sleep_start{};    ///< when the current/last sleep began
    util::TimePoint stop_start{};     ///< when the current stop began
    util::TimePoint enqueue_time{};   ///< when last made runnable

    std::unique_ptr<Behavior> behavior;

    // --- proportional-share fields (maintained by the zoo policies; kept
    // --- after every field the default BSD kernel reads, which never reads these) ---
    /// The lottery holding, the stride tickets or the CFS load weight:
    /// nice_to_weight(nice) from admission, and kept across a migration, so
    /// an explicit set_tickets holds on the new domain.
    double weight = 0.0;
    double vtime = 0.0;   ///< stride pass or CFS vruntime (virtual ns)
    double remain = 0.0;  ///< stride: pass − global_pass, banked at leave
    double comp = 1.0;    ///< lottery: compensation factor, >= 1
    util::Duration stint{0};  ///< lottery: CPU used since the last win

    /// Eligible for the run queues: wants the CPU and is not job-stopped.
    [[nodiscard]] bool eligible() const {
        return (state == RunState::kRunnable || state == RunState::kRunning) && !stopped;
    }

    /// The ALPS blocked-process test (paper §2.4): asleep, timed or not.
    [[nodiscard]] bool blocked() const { return state == RunState::kSleeping; }
};

// Every spawn takes one Proc from the engine's arena, so a field added here
// costs bytes per process (web_scale --full's percore arm spawns ~10 k).
static_assert(sizeof(Proc) <= 248, "reorder Proc's fields before growing it");

}  // namespace alps::os
