// Binds the ALPS core to the simulated kernel.
//
// The driver runs *as a simulated process*: it sleeps until each quantum
// boundary (an absolute timer, like the real implementation's interval
// timer), and when the kernel dispatches it, it executes one tick of the
// Figure-3 algorithm and then consumes the CPU time that tick would cost on
// the paper's host (Table-1 cost model). ALPS therefore competes for the CPU
// with the workload it schedules — which is what bounds its scalability
// (paper §4.2).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "alps/adaptive.h"
#include "alps/cost_model.h"
#include "alps/fault.h"
#include "alps/group_control.h"
#include "alps/host.h"
#include "alps/scheduler.h"
#include "os/behavior.h"
#include "os/kernel.h"

namespace alps::core {

/// ProcessHost over the simulated kernel.
class SimProcessHost final : public ProcessHost {
public:
    explicit SimProcessHost(os::Kernel& kernel) : kernel_(kernel) {}

    Sample read_pid(HostPid pid) override;
    ControlResult stop_pid(HostPid pid) override;
    ControlResult cont_pid(HostPid pid) override;
    std::vector<HostPid> pids_of_user(HostUid uid) override;
    void pids_of_user(HostUid uid, std::vector<HostPid>& out) override;

private:
    os::Kernel& kernel_;
    /// Reused by pids_of_user so the once-per-second membership refresh does
    /// not allocate (single-threaded with its scheduler, like all hosts).
    std::vector<os::Pid> pid_scratch_;
};

class StrideEngine;

/// The ALPS process body: sleep to the next quantum boundary, tick, pay the
/// tick's CPU cost, repeat.
class AlpsDriverBehavior final : public os::Behavior {
public:
    /// `pre_tick` (optional) runs before each tick — e.g. the §5 once-per-
    /// second membership refresh — and returns extra CPU cost to charge.
    AlpsDriverBehavior(Scheduler& scheduler, CostModel cost,
                       std::function<util::Duration()> pre_tick = nullptr);
    /// The same body with the allowance loop swapped for the stride engine.
    AlpsDriverBehavior(StrideEngine& engine, CostModel cost);

    os::Action next_action(os::ProcContext ctx) override;
    util::Duration lazy_run_duration(os::ProcContext ctx) override;

    [[nodiscard]] std::uint64_t ticks_run() const { return ticks_; }
    /// Quantum boundaries that passed while the driver was still busy or
    /// waiting for the CPU (a breakdown symptom).
    [[nodiscard]] std::uint64_t boundaries_missed() const { return missed_; }

private:
    std::function<TickStats()> tick_;
    std::function<util::Duration()> quantum_;
    CostModel cost_;
    std::function<util::Duration()> pre_tick_;
    util::TimePoint epoch_{};
    std::int64_t next_boundary_ = 1;
    util::Duration grid_q_{0};  ///< quantum the boundary index refers to
    bool started_ = false;
    bool awake_ = false;
    std::uint64_t ticks_ = 0;
    std::uint64_t missed_ = 0;
};

/// One complete per-application ALPS on the simulated kernel: host bridge,
/// per-pid control, scheduler, and the driver process. Keep it alive for as
/// long as the simulation runs.
class SimAlps {
public:
    /// `faults` (optional) interposes a FaultInjectingControl between the
    /// scheduler and the per-pid control. It starts *disabled* — enable it
    /// via faults().set_enabled(true) once setup is done — so construction
    /// and manage() always see a clean channel.
    /// `driver_home_cpu` places the ALPS driver process on a scheduling
    /// domain when the kernel runs per-CPU queues (one-ALPS-per-core
    /// deployments); -1 (default) leaves placement to the kernel.
    /// `driver_pinned` additionally exempts the driver from idle-steal and
    /// rebalance so the placement is hard (Proc::pinned).
    /// `driver_nice` is the driver process's kernel nice value: a real ALPS
    /// daemon runs at elevated priority so its ticks are not queued behind
    /// the very workload it schedules (a nice-0 driver on a saturated host
    /// misses quantum boundaries wholesale).
    explicit SimAlps(os::Kernel& kernel, SchedulerConfig cfg = {}, CostModel cost = {},
                     std::string name = "alps", os::Uid uid = 0, FaultPlan faults = {},
                     int driver_home_cpu = -1, bool driver_pinned = false,
                     int driver_nice = 0);
    ~SimAlps();

    SimAlps(const SimAlps&) = delete;
    SimAlps& operator=(const SimAlps&) = delete;

    /// Puts a process under ALPS control with the given share.
    void manage(os::Pid pid, Share share);

    [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
    [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
    [[nodiscard]] os::Kernel& kernel() { return kernel_; }
    [[nodiscard]] os::Pid driver_pid() const { return driver_pid_; }
    [[nodiscard]] const AlpsDriverBehavior& driver() const { return *driver_; }

    /// CPU consumed by the ALPS process itself (the §3.2 overhead numerator).
    [[nodiscard]] util::Duration overhead_cpu() const;

    /// The fault-injection layer (a pass-through until enabled).
    [[nodiscard]] FaultInjectingControl& faults() { return *fault_control_; }
    /// Scheduler channel-health counters (see HealthReport).
    [[nodiscard]] HealthReport health() const { return scheduler_->health(); }

private:
    os::Kernel& kernel_;
    std::unique_ptr<SimProcessHost> host_;
    std::unique_ptr<PidProcessControl> control_;
    std::unique_ptr<FaultInjectingControl> fault_control_;
    std::unique_ptr<Scheduler> scheduler_;
    AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel's Proc
    os::Pid driver_pid_ = os::kNoPid;
};

/// Extension: drives an AdaptiveQuantumController from the simulation —
/// every `window`, reads the ALPS driver's CPU consumption and retunes the
/// scheduler's quantum toward the configured overhead budget. Keep it alive
/// (together with its SimAlps) for the duration of the run.
class SimAdaptiveQuantum {
public:
    SimAdaptiveQuantum(SimAlps& alps, AdaptiveQuantumConfig cfg,
                       util::Duration window = util::sec(2));
    ~SimAdaptiveQuantum();

    SimAdaptiveQuantum(const SimAdaptiveQuantum&) = delete;
    SimAdaptiveQuantum& operator=(const SimAdaptiveQuantum&) = delete;

    [[nodiscard]] util::Duration current_quantum() const {
        return alps_.scheduler().config().quantum;
    }
    /// Number of windows in which the quantum actually changed.
    [[nodiscard]] int adjustments() const { return adjustments_; }

private:
    void on_window();
    /// At least one cycle — the signal is too phase-noisy below that.
    [[nodiscard]] util::Duration effective_window() const;

    SimAlps& alps_;
    AdaptiveQuantumController controller_;
    util::Duration window_;
    util::Duration last_cpu_{0};
    util::TimePoint last_eval_{};
    sim::EventId event_ = 0;
    sim::Engine::HotKind window_kind_ = 0;  ///< devirtualized on_window timer
    int adjustments_ = 0;
};

/// The §5 variant: schedules group principals (users) instead of processes,
/// refreshing each principal's membership from the process table once per
/// `refresh_period`.
class SimGroupAlps {
public:
    /// `driver_home_cpu` / `driver_pinned` place (and optionally hard-pin)
    /// the driver process on a per-CPU-queue kernel, exactly as for SimAlps
    /// — the one-group-ALPS-per-core web deployments use this.
    SimGroupAlps(os::Kernel& kernel, SchedulerConfig cfg, CostModel cost = {},
                 util::Duration refresh_period = util::sec(1),
                 std::string name = "alps-group", os::Uid uid = 0,
                 int driver_home_cpu = -1, bool driver_pinned = false,
                 int driver_nice = 0);
    ~SimGroupAlps();

    SimGroupAlps(const SimGroupAlps&) = delete;
    SimGroupAlps& operator=(const SimGroupAlps&) = delete;

    /// Creates a principal tracking all processes of `uid` and registers it
    /// with the given share.
    EntityId manage_user(std::string name, os::Uid uid, Share share);

    [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
    [[nodiscard]] GroupProcessControl& groups() { return *control_; }
    [[nodiscard]] os::Pid driver_pid() const { return driver_pid_; }
    [[nodiscard]] const AlpsDriverBehavior& driver() const { return *driver_; }
    [[nodiscard]] util::Duration overhead_cpu() const;
    /// Scheduler channel-health counters (see HealthReport).
    [[nodiscard]] HealthReport health() const { return scheduler_->health(); }

private:
    os::Kernel& kernel_;
    std::unique_ptr<SimProcessHost> host_;
    std::unique_ptr<GroupProcessControl> control_;
    std::unique_ptr<Scheduler> scheduler_;
    AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel's Proc
    CostModel cost_;
    util::Duration refresh_period_;
    util::TimePoint next_refresh_{};
    os::Pid driver_pid_ = os::kNoPid;
};

}  // namespace alps::core
