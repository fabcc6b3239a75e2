// The ALPS scheduling algorithm (paper Figure 3).
//
// State model:
//   * Each entity i has a share s_i, an allowance a_i (the CPU time it may
//     still consume this cycle), and a state (eligible or ineligible).
//     Eligible entities contend for the CPU under the kernel's native
//     policy; ineligible ones are suspended.
//   * Globally the scheduler keeps the total shares S and the remaining
//     cycle time t_c. A cycle is S·Q of *consumed* CPU time — proportional
//     share is guaranteed per cycle, on the "virtual processor" whose speed
//     the kernel dictates (§2.1).
//
// Core invariant (checked with == by the test suite): at the end of every
// tick,
//     Σ_i a_i · Q == t_c
// Both sides are int64 ns (each allowance is stored as a_i·Q), so no charge
// divides by Q. Measurements subtract the same ns from both sides; the
// blocked-process heuristic subtracts Q from both; a cycle completion adds
// S·Q to both; membership changes adjust both together.
//
// Lazy measurement (§2.3): an entity with allowance a cannot exhaust it in
// fewer than ⌈a⌉ quanta, so its next measurement is scheduled ⌈a⌉ ticks out.
// Disable via SchedulerConfig::lazy_measurement to get the paper's
// "unoptimized" comparison version.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "alps/process_control.h"
#include "util/arena.h"
#include "util/shares.h"
#include "util/time.h"

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::core {

using util::Duration;
using util::Share;

struct SchedulerConfig {
    /// The ALPS quantum Q — the period between algorithm invocations. The
    /// paper evaluates 10–40 ms (100 ms in §5).
    Duration quantum = util::msec(10);
    /// §2.3 optimization: postpone measuring entity i for ⌈a_i⌉ ticks.
    bool lazy_measurement = true;
    /// §2.4: charge blocked entities one quantum and shrink the cycle.
    bool io_accounting = true;
};

/// Everything the algorithm did during one tick; the simulation backend
/// converts this to CPU cost via the Table-1 cost model.
struct TickStats {
    int measured = 0;    ///< entities whose progress was read
    int suspended = 0;   ///< eligible -> ineligible transitions (signals)
    int resumed = 0;     ///< ineligible -> eligible transitions (signals)
    bool cycle_completed = false;
    // --- degraded-mode operations (all zero on a healthy channel) ---
    int read_failures = 0;     ///< reads still failing after in-tick retries
    int control_failures = 0;  ///< suspend/resume ops that did not take
    int retries = 0;           ///< extra same-tick read attempts
    int reissues = 0;          ///< watchdog re-sent signals (self-healing)
    int rebaselines = 0;       ///< backwards CPU samples absorbed (PID reuse)
    int quarantined = 0;       ///< entities that entered quarantine this tick
    int dropped = 0;           ///< entities dropped after repeated failures
};

/// Cumulative channel-health counters since construction. `degraded()` is
/// the "has this scheduler ever seen its backend misbehave" bit; until it
/// flips, every hot path is exactly the infallible-backend code path.
struct HealthReport {
    std::uint64_t read_failures = 0;
    std::uint64_t control_failures = 0;
    std::uint64_t retries = 0;
    std::uint64_t reissues = 0;
    std::uint64_t rebaselines = 0;
    std::uint64_t quarantines = 0;   ///< quarantine entries (not current count)
    std::uint64_t drops = 0;
    std::uint64_t exceptions = 0;    ///< backend calls that threw mid-tick
    std::size_t quarantined_now = 0;

    [[nodiscard]] bool degraded() const {
        return read_failures + control_failures + reissues + quarantines +
                   drops + exceptions >
               0;
    }
};

/// Per-cycle accounting record, for the accuracy evaluation (§3.1).
struct CycleRecord {
    std::uint64_t index = 0;       ///< cycle number, from 0
    std::uint64_t end_tick = 0;    ///< tick count at which the cycle ended
    /// Parallel arrays: entity, its share, and the CPU it consumed during
    /// this cycle (left empty by the controllers; metrics::ExactCycleLog
    /// fills it from the host's CPU counters).
    std::vector<EntityId> ids;
    std::vector<Share> shares;
    std::vector<Duration> consumed;
};

class Scheduler {
public:
    /// `arena` (optional) backs the entity table with a per-run arena (the
    /// simulation backends pass their engine's); null keeps it on the heap,
    /// which is right for hosts without a run arena (POSIX, unit tests).
    Scheduler(ProcessControl& control, SchedulerConfig cfg = {},
              util::Arena* arena = nullptr);

    // ----- membership -----

    /// Adds an entity with the given share (> 0, and S·Q must fit in int64
    /// ns). Per the paper, its allowance starts at `share` and it starts
    /// ineligible; it becomes eligible (and is resumed) on the next tick.
    /// The entity must currently be runnable from the host's point of view;
    /// ALPS suspends it here so that it cannot run before its first tick.
    void add(EntityId id, Share share);

    /// Removes an entity (resuming it if suspended — ALPS relinquishes
    /// control). Its unused allowance leaves the cycle.
    void remove(EntityId id);

    /// Extension: changes an entity's share mid-flight (S·Q must fit in
    /// int64 ns). The remaining allowance is kept; future cycles use the new
    /// share.
    void set_share(EntityId id, Share share);

    /// Extension: changes the quantum mid-flight (the accuracy/overhead
    /// knob, §2.1; S·Q must fit in int64 ns). Allowances are in ns, so every
    /// remaining entitlement is untouched. All measurement postponements are
    /// reset (they were computed under the old quantum).
    void set_quantum(Duration quantum);

    [[nodiscard]] bool contains(EntityId id) const {
        return find_entity(id) != entities_.end();
    }
    [[nodiscard]] std::size_t size() const { return entities_.size(); }

    // ----- operation -----

    /// One invocation of the Figure-3 algorithm. Call every quantum.
    TickStats tick();

    /// Hands every entity back to the kernel (resumes all suspended ones).
    /// Used at teardown so no process is left SIGSTOPped. Never throws: a
    /// backend failure on one entity must not leave the others stopped. On a
    /// degraded channel each resume is verified with a read and retried a
    /// bounded number of times.
    void release_all() noexcept;

    // ----- observation -----

    using CycleObserver = std::function<void(const CycleRecord&)>;
    /// Called at the end of every cycle with its members and shares.
    void set_cycle_observer(CycleObserver obs) { observer_ = std::move(obs); }

    [[nodiscard]] const SchedulerConfig& config() const { return cfg_; }
    [[nodiscard]] Share total_shares() const { return total_shares_; }
    [[nodiscard]] Duration cycle_length() const {
        return cfg_.quantum * total_shares_;
    }
    /// Remaining CPU time in the current cycle (t_c in the paper).
    [[nodiscard]] Duration cycle_time_remaining() const {
        return Duration{tc_ns_};
    }
    [[nodiscard]] std::uint64_t tick_count() const { return count_; }
    [[nodiscard]] std::uint64_t cycles_completed() const { return cycles_done_; }
    [[nodiscard]] std::uint64_t total_measurements() const { return total_measurements_; }

    /// Channel-health counters since construction (see HealthReport).
    [[nodiscard]] HealthReport health() const;

    /// Registers algorithm totals (`<prefix>ticks`, `<prefix>cycles`,
    /// `<prefix>measurements`) and every HealthReport counter in `reg` —
    /// the one metrics surface for scheduler health, replacing ad-hoc
    /// plumbing of HealthReport fields.
    void export_metrics(telemetry::MetricsRegistry& reg,
                        const std::string& prefix = "alps.") const;
    /// True once the entity is in quarantine (signalling given up, probing).
    [[nodiscard]] bool quarantined(EntityId id) const;

    /// Remaining allowance of an entity (a_i·Q in the paper's terms).
    [[nodiscard]] Duration allowance(EntityId id) const;
    [[nodiscard]] bool eligible(EntityId id) const;
    [[nodiscard]] Share share(EntityId id) const;
    [[nodiscard]] std::vector<EntityId> ids() const;

private:
    struct Entity {
        Share share = 0;
        std::int64_t allowance_ns = 0;  ///< a_i·Q
        bool eligible = false;          ///< *desired* state (what ALPS wants)
        std::uint64_t update = 0;       ///< next tick index at which to measure
        Duration last_cpu{0};           ///< cumulative CPU at last measurement
        bool have_baseline = false;     ///< first read_progress done
        // --- fault bookkeeping (all quiescent on a healthy channel) ---
        int fail_streak = 0;            ///< consecutive backend failures
        bool suspect = false;           ///< last control op may not have taken
        bool quarantined = false;       ///< signalling given up; probing
        /// Measured or probed by this tick's measurement loop. The refresh
        /// loop skips untouched entities when nothing else (cycle boundary,
        /// suspect state, pending eligibility flip, due lazy-update
        /// recompute) concerns them — for those the loop body is provably a
        /// no-op, and they are the vast majority under lazy measurement.
        bool touched = false;
    };

    /// Flat entity table, sorted by id — the same deterministic iteration
    /// order as the std::map it replaces, but contiguous: tick() walks every
    /// entity twice per quantum, and the map's node hops dominated that walk.
    /// Membership changes are rare (admission, death), so O(n) sorted
    /// insert/erase is the right trade. Arena-backed when the scheduler is
    /// given a per-run arena (growth strands the old buffer there — fine for
    /// a table that reaches its run's population and stays).
    using EntityTable =
        std::vector<std::pair<EntityId, Entity>,
                    util::ArenaAllocator<std::pair<EntityId, Entity>>>;

    [[nodiscard]] EntityTable::iterator find_entity(EntityId id) {
        const auto it = std::lower_bound(
            entities_.begin(), entities_.end(), id,
            [](const auto& p, EntityId v) { return p.first < v; });
        return (it != entities_.end() && it->first == id) ? it : entities_.end();
    }
    [[nodiscard]] EntityTable::const_iterator find_entity(EntityId id) const {
        const auto it = std::lower_bound(
            entities_.begin(), entities_.end(), id,
            [](const auto& p, EntityId v) { return p.first < v; });
        return (it != entities_.end() && it->first == id) ? it : entities_.end();
    }
    void insert_entity(EntityId id, const Entity& e) {
        entities_.insert(std::lower_bound(entities_.begin(), entities_.end(), id,
                                          [](const auto& p, EntityId v) {
                                              return p.first < v;
                                          }),
                         {id, e});
    }

    /// Applies an eligibility transition through the backend.
    void transition(EntityId id, Entity& e, bool make_eligible, TickStats& stats);

    /// read_progress with bounded same-tick retries; exceptions and !ok
    /// samples become counted transient failures.
    Sample guarded_read(EntityId id, TickStats& stats);
    /// One suspend/resume through the backend; exceptions become kTransient.
    ControlResult guarded_signal(EntityId id, bool make_eligible);
    /// Records a failure on `e`; returns true when the entity just crossed
    /// into quarantine (caller counts it).
    bool note_failure(Entity& e);
    void note_success(Entity& e) {
        e.fail_streak = 0;
        e.suspect = false;
    }
    /// Removes `id` from the cycle accounting (dead or dropped).
    void forget(EntityId id);

    void emit_cycle_record();

    ProcessControl& control_;
    SchedulerConfig cfg_;

    EntityTable entities_;
    Share total_shares_ = 0;
    std::int64_t tc_ns_ = 0;  ///< remaining cycle time, in ns (t_c)
    std::uint64_t count_ = 0;
    std::uint64_t cycles_done_ = 0;
    std::uint64_t total_measurements_ = 0;
    HealthReport health_{};
    CycleObserver observer_;
};

}  // namespace alps::core
