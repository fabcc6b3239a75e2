#include "metrics/exact_cycle_log.h"

#include <algorithm>

#include "util/assert.h"
#include "util/stats.h"

namespace alps::metrics {

ExactCycleLog::ExactCycleLog(CpuReader read_cpu) : read_cpu_(std::move(read_cpu)) {
    ALPS_EXPECT(read_cpu_ != nullptr);
}

core::Scheduler::CycleObserver ExactCycleLog::observer() {
    return [this](const core::CycleRecord& rec) { observe(rec); };
}

void ExactCycleLog::observe(const core::CycleRecord& rec) {
    core::CycleRecord exact;
    exact.index = rec.index;
    exact.end_tick = rec.end_tick;
    exact.ids = rec.ids;
    exact.shares = rec.shares;
    exact.consumed.reserve(rec.ids.size());
    bool first_sighting = false;
    for (const core::EntityId id : rec.ids) {
        const util::Duration now_cpu = read_cpu_(id);
        auto [it, inserted] = last_cpu_.try_emplace(id, now_cpu);
        if (inserted) {
            first_sighting = true;
            exact.consumed.push_back(util::Duration::zero());
        } else {
            exact.consumed.push_back(now_cpu - it->second);
            it->second = now_cpu;
        }
    }
    // The first cycle that introduces an entity has no baseline for it;
    // counting a zero would skew the error metric, so such cycles are only
    // recorded once every member has a baseline.
    if (!first_sighting) records_.push_back(std::move(exact));
}

double ExactCycleLog::mean_rms_relative_error(std::size_t warmup, std::size_t limit) const {
    if (warmup >= records_.size()) return 0.0;
    const std::size_t end =
        limit == 0 ? records_.size() : std::min(records_.size(), warmup + limit);
    util::RunningStats stats;
    for (std::size_t i = warmup; i < end; ++i) {
        stats.add(cycle_rms_error(records_[i]));
    }
    return stats.mean();
}

}  // namespace alps::metrics
