#include "alps/stride_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "alps/host.h"
#include "alps/sim_adapter.h"
#include "util/assert.h"

namespace alps::core {

using util::Duration;

/// stride1: the stride of a single share (2^20, as in the paper).
constexpr double kStride1 = 1048576.0;

StrideEngine::StrideEngine(ProcessControl& control, StrideEngineConfig cfg)
    : control_(control), cfg_(cfg) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

std::size_t StrideEngine::find(EntityId id) const {
    const auto it = std::lower_bound(
        entities_.begin(), entities_.end(), id,
        [](const auto& p, EntityId v) { return p.first < v; });
    if (it != entities_.end() && it->first == id) {
        return static_cast<std::size_t>(it - entities_.begin());
    }
    return entities_.size();
}

void StrideEngine::add(EntityId id, Share share) {
    ALPS_EXPECT(share > 0);
    ALPS_EXPECT(find(id) == entities_.size());
    Entity e;
    e.share = share;
    e.stride = kStride1 / static_cast<double>(share);
    // Join at the back of the current pass window, like a stride client_init:
    // one stride behind nobody, one ahead of everyone's history.
    double max_pass = 0.0;
    for (const auto& [eid, ent] : entities_) max_pass = std::max(max_pass, ent.pass);
    e.pass = max_pass + e.stride;
    e.last_cpu = control_.read_progress(id).cpu_time;
    // Like Scheduler::add: the entity is parked until the engine picks it.
    control_.suspend(id);
    entities_.insert(std::lower_bound(entities_.begin(), entities_.end(), id,
                                      [](const auto& p, EntityId v) {
                                          return p.first < v;
                                      }),
                     {id, e});
    total_shares_ += share;
    next_measure_ = 0;  // membership changed: the skip window is stale
}

void StrideEngine::remove(EntityId id) {
    const std::size_t i = find(id);
    ALPS_EXPECT(i < entities_.size());
    total_shares_ -= entities_[i].second.share;
    if (current_ != id) control_.resume(id);  // relinquish control
    if (current_ == id) current_ = -1;
    entities_.erase(entities_.begin() + static_cast<std::ptrdiff_t>(i));
    next_measure_ = 0;  // membership changed: the skip window is stale
}

TickStats StrideEngine::tick() {
    TickStats stats;
    ++count_;
    if (entities_.empty()) return stats;

    // 0. Lazy measurement (§2.3 in stride terms): while the runner provably
    // holds the minimum pass, the tick is a pure timer event — no read, no
    // signals. Cycle boundaries always measure so cycle records stay exact.
    const bool cycle_edge =
        ticks_in_cycle_ + 1 >= static_cast<std::uint64_t>(total_shares_);
    if (cfg_.lazy_measurement && current_ >= 0 && !cycle_edge &&
        count_ < next_measure_) {
        ++lazy_skips_;
        ++ticks_in_cycle_;
        return stats;
    }

    // 1. Measure the incumbent and advance its pass. An entity that blocked
    // through (part of) its quantum is still charged a full stride per tick
    // of its measurement window — use-it-or-lose-it, the stride analogue of
    // ALPS's §2.4 blocked charge.
    if (current_ >= 0) {
        const std::size_t i = find(current_);
        if (i < entities_.size()) {
            Entity& e = entities_[i].second;
            const Sample s = control_.read_progress(current_);
            ++stats.measured;
            ++total_measurements_;
            if (!s.ok || !s.alive) {
                remove(current_);
            } else {
                const Duration delta =
                    std::max(Duration::zero(), s.cpu_time - e.last_cpu);
                e.last_cpu = s.cpu_time;
                e.cycle_consumed += delta;
                const double quanta = util::to_sec(delta) / util::to_sec(cfg_.quantum);
                // Ticks since the runner was last measured — 1 when eager,
                // the whole skipped window when lazy.
                const double window = static_cast<double>(
                    count_ > runner_since_ ? count_ - runner_since_ : 1);
                e.pass += e.stride * std::max(window, quanta);
            }
        } else {
            current_ = -1;  // removed behind our back
        }
    }
    runner_since_ = count_;

    // 2. Cycle accounting on the same S·Q grid as ALPS.
    if (++ticks_in_cycle_ >= static_cast<std::uint64_t>(total_shares_)) {
        emit_cycle_record();
        ticks_in_cycle_ = 0;
        ++cycles_done_;
        stats.cycle_completed = true;
    }

    // 3. Run the minimum-pass entity (ties to the lower id via table order).
    if (entities_.empty()) return stats;
    std::size_t best = 0;
    for (std::size_t i = 1; i < entities_.size(); ++i) {
        if (entities_[i].second.pass < entities_[best].second.pass) best = i;
    }
    const EntityId next = entities_[best].first;
    if (next != current_) {
        if (current_ >= 0 && find(current_) < entities_.size()) {
            if (control_.suspend(current_) == ControlResult::kOk) ++stats.suspended;
        }
        if (control_.resume(next) == ControlResult::kOk) ++stats.resumed;
        current_ = next;
        runner_since_ = count_;
    }

    // 4. Open the next skip window: each tick charges >= one stride, so the
    // runner cannot rise past the field's second-minimum pass in fewer than
    // ceil((second_min - pass) / stride) ticks.
    if (cfg_.lazy_measurement) {
        double second = std::numeric_limits<double>::infinity();
        for (const auto& [id, e] : entities_) {
            if (id != current_) second = std::min(second, e.pass);
        }
        const Entity& runner = entities_[best].second;
        std::uint64_t window = 1;
        if (!std::isfinite(second)) {
            // Sole entity: nothing can overtake it; the cycle edge is the
            // only forced measurement.
            window = static_cast<std::uint64_t>(std::max<Share>(total_shares_, 1));
        } else if (second > runner.pass) {
            window = static_cast<std::uint64_t>(
                std::max(1.0, std::ceil((second - runner.pass) / runner.stride)));
        }
        next_measure_ = count_ + window;
    }
    return stats;
}

void StrideEngine::emit_cycle_record() {
    if (observer_) {
        CycleRecord rec;
        rec.index = cycles_done_;
        rec.end_tick = count_;
        rec.ids.reserve(entities_.size());
        rec.shares.reserve(entities_.size());
        rec.consumed.reserve(entities_.size());
        for (const auto& [id, e] : entities_) {
            rec.ids.push_back(id);
            rec.shares.push_back(e.share);
            rec.consumed.push_back(e.cycle_consumed);
        }
        observer_(rec);
    }
    for (auto& [id, e] : entities_) e.cycle_consumed = Duration::zero();
}

void StrideEngine::release_all() noexcept {
    for (const auto& [id, e] : entities_) {
        if (id != current_) control_.resume(id);
    }
    current_ = -1;
}

// ----------------------------------------------------------------------------
// SimStrideAlps

SimStrideAlps::SimStrideAlps(os::Kernel& kernel, StrideEngineConfig cfg,
                             CostModel cost, std::string name, os::Uid uid)
    : kernel_(kernel) {
    auto host = std::make_unique<SimProcessHost>(kernel_);
    auto control = std::make_unique<PidProcessControl>(*host);
    engine_ = std::make_unique<StrideEngine>(*control, cfg);
    host_ = std::move(host);
    control_ = std::move(control);
    auto behavior = std::make_unique<AlpsDriverBehavior>(*engine_, cost);
    driver_ = behavior.get();
    driver_pid_ = kernel_.spawn(std::move(name), uid, std::move(behavior));
}

SimStrideAlps::~SimStrideAlps() {
    engine_->release_all();
    if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
}

void SimStrideAlps::manage(os::Pid pid, Share share) {
    ALPS_EXPECT(kernel_.alive(pid));
    engine_->add(static_cast<EntityId>(pid), share);
}

Duration SimStrideAlps::overhead_cpu() const { return kernel_.cpu_time(driver_pid_); }

}  // namespace alps::core
