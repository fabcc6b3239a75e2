// Exact per-cycle consumption instrumentation (paper §3.1).
//
// The paper "instruments ALPS to record a log of the CPU time consumed by
// each process in every cycle". That instrumentation reads the processes'
// actual accumulated CPU time (getrusage / kp_proc) at each cycle boundary —
// it is *not* limited to what the lazy-measurement algorithm happened to
// sample, whose per-cycle attribution is deliberately coarse for large
// allowances. This log does the equivalent: at every cycle end it snapshots
// each entity's true cumulative CPU through a caller-provided reader and
// differences consecutive snapshots.
#pragma once

#include <functional>
#include <map>

#include "alps/scheduler.h"
#include "metrics/cycle_log.h"

namespace alps::metrics {

class ExactCycleLog {
public:
    /// `read_cpu` returns an entity's true cumulative CPU time (the
    /// simulated getrusage). Entities are baselined at the first cycle end
    /// that includes them.
    using CpuReader = std::function<util::Duration(core::EntityId)>;

    explicit ExactCycleLog(CpuReader read_cpu);

    /// Wire into a scheduler: sched.set_cycle_observer(log.observer()).
    [[nodiscard]] core::Scheduler::CycleObserver observer();

    void observe(const core::CycleRecord& rec);

    [[nodiscard]] std::size_t cycle_count() const { return records_.size(); }
    [[nodiscard]] const std::vector<core::CycleRecord>& records() const {
        return records_;
    }

    /// Mean of per-cycle RMS relative error (cycle_rms_error, on exact
    /// data). Cycles [warmup, warmup+limit); limit 0 = to the end.
    [[nodiscard]] double mean_rms_relative_error(std::size_t warmup = 0,
                                                 std::size_t limit = 0) const;

private:
    CpuReader read_cpu_;
    std::map<core::EntityId, util::Duration> last_cpu_;
    std::vector<core::CycleRecord> records_;
};

}  // namespace alps::metrics
