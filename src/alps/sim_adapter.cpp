#include "alps/sim_adapter.h"

#include <utility>

#include "alps/stride_engine.h"
#include "util/assert.h"

namespace alps::core {

using util::Duration;
using util::TimePoint;

// ----------------------------------------------------------------------------
// SimProcessHost

Sample SimProcessHost::read_pid(HostPid pid) {
    // One table lookup per measurement: this runs once per managed entity
    // per quantum, so the split alive/cpu_time/is_blocked/proc reads (four
    // lookups) used to dominate the whole sampling path.
    const os::Kernel::SampleView v = kernel_.sample(static_cast<os::Pid>(pid));
    Sample s;
    s.cpu_time = v.cpu_time;
    s.blocked = v.blocked;
    s.stopped = v.stopped;
    s.alive = v.alive;
    return s;
}

ControlResult SimProcessHost::stop_pid(HostPid pid) {
    const auto p = static_cast<os::Pid>(pid);
    if (!kernel_.alive(p)) return ControlResult::kGone;
    kernel_.send_signal(p, os::Signal::kStop);
    return ControlResult::kOk;
}

ControlResult SimProcessHost::cont_pid(HostPid pid) {
    const auto p = static_cast<os::Pid>(pid);
    if (!kernel_.alive(p)) return ControlResult::kGone;
    kernel_.send_signal(p, os::Signal::kCont);
    return ControlResult::kOk;
}

std::vector<HostPid> SimProcessHost::pids_of_user(HostUid uid) {
    std::vector<HostPid> out;
    pids_of_user(uid, out);
    return out;
}

void SimProcessHost::pids_of_user(HostUid uid, std::vector<HostPid>& out) {
    kernel_.pids_of_uid(static_cast<os::Uid>(uid), pid_scratch_);
    out.clear();
    out.reserve(pid_scratch_.size());
    for (const os::Pid p : pid_scratch_) out.push_back(p);
}

// ----------------------------------------------------------------------------
// AlpsDriverBehavior

AlpsDriverBehavior::AlpsDriverBehavior(Scheduler& scheduler, CostModel cost,
                                       std::function<Duration()> pre_tick)
    : tick_([&scheduler] { return scheduler.tick(); }),
      quantum_([&scheduler] { return scheduler.config().quantum; }),
      cost_(cost),
      pre_tick_(std::move(pre_tick)) {}

AlpsDriverBehavior::AlpsDriverBehavior(StrideEngine& engine, CostModel cost)
    : tick_([&engine] { return engine.tick(); }),
      quantum_([&engine] { return engine.config().quantum; }),
      cost_(cost) {}

os::Action AlpsDriverBehavior::next_action(os::ProcContext ctx) {
    const Duration q = quantum_();
    if (!started_) {
        // First boundary: one quantum after spawn.
        started_ = true;
        awake_ = false;
        epoch_ = ctx.kernel.now();
        next_boundary_ = 1;
        grid_q_ = q;
        return os::SleepUntilAction{epoch_ + q, this};
    }
    if (!awake_) {
        // The timer fired; do this quantum's work when we get the CPU.
        awake_ = true;
        return os::RunAction{.duration = {}, .lazy = true};
    }
    // Work done; sleep to the next boundary strictly after "now" (late ticks
    // skip boundaries, like a real absolute interval timer).
    awake_ = false;
    const TimePoint now = ctx.kernel.now();
    const auto elapsed = (now - epoch_).count();
    const auto due = elapsed / q.count() + 1;
    if (q != grid_q_) {
        // The quantum changed (adaptive control): re-grid without counting
        // skipped boundaries as misses.
        grid_q_ = q;
        next_boundary_ = due - 1;
    }
    missed_ += static_cast<std::uint64_t>(due - next_boundary_ - 1 > 0
                                              ? due - next_boundary_ - 1
                                              : 0);
    next_boundary_ = due;
    return os::SleepUntilAction{epoch_ + Duration{q.count() * due}, this};
}

Duration AlpsDriverBehavior::lazy_run_duration(os::ProcContext) {
    Duration extra{0};
    if (pre_tick_) extra = pre_tick_();
    const TickStats stats = tick_();
    ++ticks_;
    return cost_.tick_cost(stats) + extra;
}

// ----------------------------------------------------------------------------
// SimAlps

SimAlps::SimAlps(os::Kernel& kernel, SchedulerConfig cfg, CostModel cost,
                 std::string name, os::Uid uid, FaultPlan faults,
                 int driver_home_cpu, bool driver_pinned, int driver_nice)
    : kernel_(kernel) {
    host_ = std::make_unique<SimProcessHost>(kernel_);
    control_ = std::make_unique<PidProcessControl>(*host_);
    // The fault layer always sits in the stack but starts disabled (a pure
    // pass-through), so the no-fault configuration behaves identically.
    fault_control_ = std::make_unique<FaultInjectingControl>(*control_, faults);
    scheduler_ =
        std::make_unique<Scheduler>(*fault_control_, cfg, &kernel_.engine().arena());
    auto behavior = std::make_unique<AlpsDriverBehavior>(*scheduler_, cost);
    driver_ = behavior.get();
    driver_pid_ = kernel_.spawn(std::move(name), uid, std::move(behavior),
                                driver_nice, driver_home_cpu, driver_pinned);
}

SimAlps::~SimAlps() {
    // Leave no workload process stopped, then retire the driver, so a
    // simulation can continue past this ALPS's lifetime.
    scheduler_->release_all();
    if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
}

void SimAlps::manage(os::Pid pid, Share share) {
    ALPS_EXPECT(kernel_.alive(pid));
    scheduler_->add(static_cast<EntityId>(pid), share);
}

Duration SimAlps::overhead_cpu() const { return kernel_.cpu_time(driver_pid_); }

// ----------------------------------------------------------------------------
// SimAdaptiveQuantum

SimAdaptiveQuantum::SimAdaptiveQuantum(SimAlps& alps, AdaptiveQuantumConfig cfg,
                                       Duration window)
    : alps_(alps), controller_(cfg), window_(window) {
    ALPS_EXPECT(window > Duration::zero());
    last_cpu_ = alps_.overhead_cpu();
    last_eval_ = alps_.kernel().now();
    // The window timer recurs for the whole run: register it on the engine's
    // devirtualized dispatch path (registrations are engine-lifetime, and so
    // is this controller by contract).
    window_kind_ = alps_.kernel().engine().register_hot(
        [](void* self, std::uint64_t) {
            static_cast<SimAdaptiveQuantum*>(self)->on_window();
        },
        this);
    event_ = alps_.kernel().engine().schedule_after(effective_window(), window_kind_, 0);
}

SimAdaptiveQuantum::~SimAdaptiveQuantum() {
    if (event_ != 0) alps_.kernel().engine().cancel(event_);
}

Duration SimAdaptiveQuantum::effective_window() const {
    // The cycle is ALPS's fairness horizon and its measurement load is very
    // uneven within one; sampling overhead over less than a cycle produces a
    // phase-dependent (noisy) signal the controller would chase.
    return std::max(window_, alps_.scheduler().cycle_length());
}

void SimAdaptiveQuantum::on_window() {
    const Duration cpu = alps_.overhead_cpu();
    const Duration elapsed = alps_.kernel().now() - last_eval_;
    const Duration old_q = alps_.scheduler().config().quantum;
    const Duration new_q = controller_.update(old_q, cpu - last_cpu_, elapsed);
    last_cpu_ = cpu;
    last_eval_ = alps_.kernel().now();
    if (new_q != old_q) {
        alps_.scheduler().set_quantum(new_q);
        ++adjustments_;
    }
    event_ = alps_.kernel().engine().schedule_after(effective_window(), window_kind_, 0);
}

// ----------------------------------------------------------------------------
// SimGroupAlps

SimGroupAlps::SimGroupAlps(os::Kernel& kernel, SchedulerConfig cfg, CostModel cost,
                           Duration refresh_period, std::string name, os::Uid uid,
                           int driver_home_cpu, bool driver_pinned, int driver_nice)
    : kernel_(kernel), cost_(cost), refresh_period_(refresh_period) {
    ALPS_EXPECT(refresh_period > Duration::zero());
    host_ = std::make_unique<SimProcessHost>(kernel_);
    control_ = std::make_unique<GroupProcessControl>(*host_);
    scheduler_ = std::make_unique<Scheduler>(*control_, cfg, &kernel_.engine().arena());
    next_refresh_ = kernel_.now();

    // Once per refresh period, reconcile every principal's membership with
    // the process table; the scan is charged like measuring each scanned
    // process (a kvm_getprocs walk touches the same per-process kernel data).
    auto pre_tick = [this]() -> Duration {
        if (kernel_.now() < next_refresh_) return Duration::zero();
        next_refresh_ = kernel_.now() + refresh_period_;
        const int scanned = control_->refresh_all();
        TickStats as_if;
        as_if.measured = scanned;
        return cost_.tick_cost(as_if) - util::from_us(cost_.timer_event_us);
    };
    auto behavior =
        std::make_unique<AlpsDriverBehavior>(*scheduler_, cost_, std::move(pre_tick));
    driver_ = behavior.get();
    driver_pid_ = kernel_.spawn(std::move(name), uid, std::move(behavior),
                                driver_nice, driver_home_cpu, driver_pinned);
}

SimGroupAlps::~SimGroupAlps() {
    scheduler_->release_all();
    if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
}

EntityId SimGroupAlps::manage_user(std::string name, os::Uid uid, Share share) {
    const EntityId id = control_->add_principal(std::move(name), uid);
    control_->refresh(id);
    scheduler_->add(id, share);
    return id;
}

Duration SimGroupAlps::overhead_cpu() const { return kernel_.cpu_time(driver_pid_); }

}  // namespace alps::core
