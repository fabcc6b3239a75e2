// Stride scheduling as an *application-level* engine — the policy-zoo A/B
// the paper could not run.
//
// ALPS enforces proportional share with a per-cycle allowance loop (Figure
// 3): every entity holds an allowance of quanta, measurements subtract from
// it, exhausted entities are suspended until the cycle turns over. This
// engine replaces that loop with Waldspurger's stride algorithm operating on
// the same unprivileged control surface (read CPU time, SIGSTOP, SIGCONT):
// exactly one entity is left runnable at a time — the minimum-pass one — and
// each tick advances its pass by stride × (CPU consumed / quantum), floored
// at one full stride (use-it-or-lose-it: an entity that blocked through its
// quantum still paid for it, the analogue of ALPS's §2.4 charge).
//
// Costing is identical to ALPS's: each tick is one progress read plus at
// most one suspend/resume pair, priced through the same Table-1 CostModel,
// so BENCH_policy_zoo's A/B point compares mechanisms, not implementations.
//
// Lazy measurement carries over from ALPS §2.3 in stride terms: every tick
// charges the runner at least one full stride, so the runner provably keeps
// the minimum pass for ⌈(second_min_pass − pass) / stride⌉ ticks — those
// ticks skip the progress read and all signals, costing only the timer
// event. A skipped window settles at the next real measurement (the
// cumulative CPU delta spans the window, charged max(window, quanta)
// strides), and cycle boundaries force an eager tick so the S·Q cycle
// records stay exact.
//
// Deliberately minimal relative to core::Scheduler — no fault degradation,
// no mid-flight share or quantum changes. It exists to answer one question:
// how much of ALPS's share error is the allowance loop, and how much is the
// application-level control channel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alps/cost_model.h"
#include "alps/host.h"
#include "alps/process_control.h"
#include "alps/scheduler.h"
#include "os/kernel.h"

namespace alps::core {

class AlpsDriverBehavior;

struct StrideEngineConfig {
    /// Tick period and the unit of pass advancement (like the ALPS Q).
    Duration quantum = util::msec(10);
    /// §2.3 mapped onto stride: skip measuring while the runner provably
    /// holds the minimum pass (off = the eager ablation, one read per tick).
    bool lazy_measurement = true;
};

class StrideEngine {
public:
    explicit StrideEngine(ProcessControl& control, StrideEngineConfig cfg = {});

    /// Adds an entity with the given share (> 0); it is suspended here and
    /// runs only when it holds the minimum pass. Must not already be present.
    void add(EntityId id, Share share);
    /// Removes an entity, resuming it (the engine relinquishes control).
    void remove(EntityId id);

    /// One stride decision: measure the runner, advance its pass, run the
    /// new minimum-pass entity. Call every quantum.
    TickStats tick();

    /// Resumes everything (teardown: never leave a process stopped).
    void release_all() noexcept;

    using CycleObserver = Scheduler::CycleObserver;
    /// Called with the members and shares every total_shares() ticks — the
    /// same S·Q cycle grid as ALPS, so fairness metrics compare directly.
    void set_cycle_observer(CycleObserver obs) { observer_ = std::move(obs); }

    [[nodiscard]] const StrideEngineConfig& config() const { return cfg_; }
    [[nodiscard]] Share total_shares() const { return total_shares_; }
    [[nodiscard]] Duration cycle_length() const {
        return cfg_.quantum * total_shares_;
    }
    [[nodiscard]] std::size_t size() const { return entities_.size(); }
    [[nodiscard]] std::uint64_t tick_count() const { return count_; }
    [[nodiscard]] std::uint64_t cycles_completed() const { return cycles_done_; }
    [[nodiscard]] std::uint64_t total_measurements() const {
        return total_measurements_;
    }
    /// Ticks that skipped the progress read under lazy measurement.
    [[nodiscard]] std::uint64_t lazy_ticks_skipped() const { return lazy_skips_; }

private:
    struct Entity {
        Share share = 0;
        double stride = 0.0;         ///< stride1 / share
        double pass = 0.0;
        Duration last_cpu{0};        ///< cumulative CPU at last measurement
    };

    [[nodiscard]] std::size_t find(EntityId id) const;  ///< index or size()
    void emit_cycle_record();

    ProcessControl& control_;
    StrideEngineConfig cfg_;

    /// Flat table sorted by id (deterministic iteration, like the ALPS
    /// entity table). Membership changes are rare; ticks walk it.
    std::vector<std::pair<EntityId, Entity>> entities_;
    Share total_shares_ = 0;
    EntityId current_ = -1;  ///< the one runnable entity; -1 = none yet
    std::uint64_t count_ = 0;
    std::uint64_t ticks_in_cycle_ = 0;
    std::uint64_t cycles_done_ = 0;
    std::uint64_t total_measurements_ = 0;
    /// Lazy-measurement window: the runner is provably still the minimum
    /// pass until tick next_measure_; runner_since_ is when it was last
    /// measured (the window length settles the pass charge).
    std::uint64_t next_measure_ = 0;
    std::uint64_t runner_since_ = 0;
    std::uint64_t lazy_skips_ = 0;
    CycleObserver observer_;
};

/// One complete stride-engine instance on the simulated kernel: host bridge,
/// per-pid control, engine, and the ALPS driver process (AlpsDriverBehavior)
/// ticking the engine at each quantum boundary — the SimAlps counterpart.
class SimStrideAlps {
public:
    explicit SimStrideAlps(os::Kernel& kernel, StrideEngineConfig cfg = {},
                           CostModel cost = {}, std::string name = "stride-alps",
                           os::Uid uid = 0);
    ~SimStrideAlps();

    SimStrideAlps(const SimStrideAlps&) = delete;
    SimStrideAlps& operator=(const SimStrideAlps&) = delete;

    /// Puts a process under stride control with the given share.
    void manage(os::Pid pid, Share share);

    [[nodiscard]] StrideEngine& engine() { return *engine_; }
    [[nodiscard]] const StrideEngine& engine() const { return *engine_; }
    [[nodiscard]] os::Pid driver_pid() const { return driver_pid_; }
    /// The driver process's body (ticks run, quantum boundaries missed).
    [[nodiscard]] const AlpsDriverBehavior& driver() const { return *driver_; }
    /// CPU consumed by the driver process (the overhead numerator).
    [[nodiscard]] util::Duration overhead_cpu() const;

private:
    os::Kernel& kernel_;
    std::unique_ptr<ProcessHost> host_;
    std::unique_ptr<ProcessControl> control_;
    std::unique_ptr<StrideEngine> engine_;
    AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel's Proc
    os::Pid driver_pid_ = os::kNoPid;
};

}  // namespace alps::core
