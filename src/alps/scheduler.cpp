#include "alps/scheduler.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/assert.h"

namespace alps::core {

namespace {
/// Bounded resume attempts per entity during release_all on a degraded
/// channel (each verified with a read; with independent loss probability p
/// the chance of leaving an entity stopped is p^8).
constexpr int kReleaseAttempts = 8;

// ----- degradation ladder (every step activates only after a failure) -----

/// Immediate same-tick retries of a failed progress read (bounded; the
/// cross-tick backoff below handles persistent failures).
constexpr int kMaxReadRetries = 2;
/// After this many *consecutive* failures on one entity, stop signalling it
/// (quarantine): it is released to run freely, probed every tick, and either
/// recovers or is dropped.
constexpr int kQuarantineAfter = 4;
/// After this many consecutive failures the entity is dropped from the cycle
/// entirely (its share and allowance leave the accounting).
constexpr int kDropAfter = 12;
static_assert(kDropAfter > kQuarantineAfter);

// ----- telemetry (all no-ops without an attached sink) -----
//
// Each entity gets one state-span timeline on track == its id: an
// "eligible" or "ineligible" span is always open between admission and
// removal, switching at every *desired*-eligibility flip (what ALPS wants,
// which is exactly what Entity::eligible stores). The simulated kernel emits
// the matching "running" spans, so a Perfetto timeline shows desire vs.
// reality per process.

std::uint32_t track_of(EntityId id) { return static_cast<std::uint32_t>(id); }

std::uint16_t state_name(bool eligible) {
    return eligible ? telemetry::kNameEligible : telemetry::kNameIneligible;
}

void trace_state_open(EntityId id, bool eligible) {
    if (telemetry::active()) telemetry::span_begin(state_name(eligible), track_of(id));
}

void trace_state_close(EntityId id, bool eligible) {
    if (telemetry::active()) telemetry::span_end(state_name(eligible), track_of(id));
}

void trace_state_flip(EntityId id, bool was_eligible, bool now_eligible) {
    if (was_eligible == now_eligible || !telemetry::active()) return;
    telemetry::span_end(state_name(was_eligible), track_of(id));
    telemetry::span_begin(state_name(now_eligible), track_of(id));
}

}  // namespace

Scheduler::Scheduler(ProcessControl& control, SchedulerConfig cfg, util::Arena* arena)
    : control_(control),
      cfg_(cfg),
      entities_(util::ArenaAllocator<std::pair<EntityId, Entity>>(arena)) {
    ALPS_EXPECT(cfg_.quantum > Duration::zero());
}

void Scheduler::add(EntityId id, Share share) {
    ALPS_EXPECT(share > 0);
    ALPS_EXPECT(share <= util::max_total_shares(cfg_.quantum) - total_shares_);
    ALPS_EXPECT(!contains(id));
    Entity e;
    e.share = share;
    e.allowance_ns = share * cfg_.quantum.count();  // paper: allowance_i <- share_i
    e.eligible = false;                             // paper: state_i <- ineligible
    e.update = count_;                              // due for its first measurement
    const Sample s = control_.read_progress(id);
    if (s.ok) {
        e.last_cpu = s.cpu_time;
        e.have_baseline = true;
    } else {
        // Transient read failure at admission: baseline at the first
        // successful measurement instead (nothing is charged until then).
        ++health_.read_failures;
        e.have_baseline = false;
    }
    // Ineligible entities are suspended; it becomes eligible on the next
    // tick, thanks to its positive allowance.
    if (control_.suspend(id) != ControlResult::kOk) {
        ++health_.control_failures;
        e.suspect = true;  // the watchdog re-issues the desired state
        e.fail_streak = 1;
    }
    insert_entity(id, e);
    trace_state_open(id, e.eligible);
    total_shares_ += share;
    // Keep the invariant sum(a_i)*Q == t_c: the newcomer brings its
    // allowance into the cycle.
    tc_ns_ += e.allowance_ns;
}

void Scheduler::remove(EntityId id) {
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    Entity& e = it->second;
    if (!e.eligible) control_.resume(id);  // leave nothing suspended behind
    trace_state_close(id, e.eligible);
    total_shares_ -= e.share;
    tc_ns_ -= e.allowance_ns;
    entities_.erase(it);
}

void Scheduler::forget(EntityId id) {
    auto it = find_entity(id);
    if (it == entities_.end()) return;
    trace_state_close(id, it->second.eligible);
    total_shares_ -= it->second.share;
    tc_ns_ -= it->second.allowance_ns;
    entities_.erase(it);
}

void Scheduler::set_quantum(Duration quantum) {
    ALPS_EXPECT(quantum > Duration::zero());
    ALPS_EXPECT(total_shares_ <= util::max_total_shares(quantum));
    if (quantum == cfg_.quantum) return;
    // Old postponements are no longer sound.
    for (auto& [id, e] : entities_) e.update = count_;
    cfg_.quantum = quantum;
}

void Scheduler::set_share(EntityId id, Share share) {
    ALPS_EXPECT(share > 0);
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    ALPS_EXPECT(share - it->second.share <=
                util::max_total_shares(cfg_.quantum) - total_shares_);
    total_shares_ += share - it->second.share;
    it->second.share = share;
}

Duration Scheduler::allowance(EntityId id) const {
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    return Duration{it->second.allowance_ns};
}

bool Scheduler::eligible(EntityId id) const {
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    return it->second.eligible;
}

bool Scheduler::quarantined(EntityId id) const {
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    return it->second.quarantined;
}

Share Scheduler::share(EntityId id) const {
    auto it = find_entity(id);
    ALPS_EXPECT(it != entities_.end());
    return it->second.share;
}

std::vector<EntityId> Scheduler::ids() const {
    std::vector<EntityId> out;
    out.reserve(entities_.size());
    for (const auto& [id, e] : entities_) out.push_back(id);
    return out;
}

HealthReport Scheduler::health() const {
    HealthReport h = health_;
    h.quarantined_now = 0;
    for (const auto& [id, e] : entities_) {
        if (e.quarantined) ++h.quarantined_now;
    }
    return h;
}

void Scheduler::export_metrics(telemetry::MetricsRegistry& reg,
                               const std::string& prefix) const {
    reg.counter(prefix + "ticks").add(count_);
    reg.counter(prefix + "cycles").add(cycles_done_);
    reg.counter(prefix + "measurements").add(total_measurements_);
    const HealthReport h = health();
    reg.counter(prefix + "read_failures").add(h.read_failures);
    reg.counter(prefix + "control_failures").add(h.control_failures);
    reg.counter(prefix + "retries").add(h.retries);
    reg.counter(prefix + "reissues").add(h.reissues);
    reg.counter(prefix + "rebaselines").add(h.rebaselines);
    reg.counter(prefix + "quarantines").add(h.quarantines);
    reg.counter(prefix + "drops").add(h.drops);
    reg.counter(prefix + "exceptions").add(h.exceptions);
}

Sample Scheduler::guarded_read(EntityId id, TickStats& stats) {
    Sample s;
    for (int attempt = 0;; ++attempt) {
        try {
            s = control_.read_progress(id);
        } catch (...) {
            // A throwing backend is just another fault: count it and treat
            // the read as failed rather than unwinding mid-tick.
            ++health_.exceptions;
            s = Sample{};
            s.ok = false;
        }
        if (s.ok || attempt >= kMaxReadRetries) return s;
        ++stats.retries;
        ++health_.retries;
    }
}

ControlResult Scheduler::guarded_signal(EntityId id, bool make_eligible) {
    try {
        return make_eligible ? control_.resume(id) : control_.suspend(id);
    } catch (...) {
        ++health_.exceptions;
        return ControlResult::kTransient;
    }
}

bool Scheduler::note_failure(Entity& e) {
    // Note: does NOT set `suspect` — that flag means "the last control op may
    // not have taken" and triggers signal re-delivery. A failed *read* says
    // nothing about signal delivery; marking it suspect would make the
    // watchdog's (successful) re-signal reset the streak and an unreadable
    // entity would never reach quarantine. Signal-failure call sites set
    // `suspect` themselves.
    ++e.fail_streak;
    return !e.quarantined && e.fail_streak >= kQuarantineAfter;
}

void Scheduler::transition(EntityId id, Entity& e, bool make_eligible, TickStats& stats) {
    const bool changing = e.eligible != make_eligible;
    if (!changing && !e.suspect) return;
    trace_state_flip(id, e.eligible, make_eligible);
    e.eligible = make_eligible;  // desired state, regardless of delivery
    const ControlResult r = guarded_signal(id, make_eligible);
    if (r == ControlResult::kOk) {
        note_success(e);
        if (changing) {
            ++(make_eligible ? stats.resumed : stats.suspended);
        } else {
            ++stats.reissues;  // watchdog re-delivery of the desired state
            ++health_.reissues;
        }
        return;
    }
    if (r == ControlResult::kGone) {
        // Discovered dead through the control channel; the next measurement
        // confirms and drops it (an ineligible entity is re-checked by the
        // watchdog path, which maps kGone here every tick).
        e.suspect = true;
        return;
    }
    ++stats.control_failures;
    ++health_.control_failures;
    e.suspect = true;  // delivery failed: the watchdog re-issues next tick
    note_failure(e);   // quarantine decision is made in tick()'s loops
}

void Scheduler::release_all() noexcept {
    const bool verify = health_.degraded();
    for (auto& [id, e] : entities_) {
        if (e.eligible && !verify) continue;
        trace_state_flip(id, e.eligible, true);
        for (int attempt = 0; attempt < kReleaseAttempts; ++attempt) {
            ControlResult r = ControlResult::kOk;
            try {
                r = control_.resume(id);
            } catch (...) {
                ++health_.exceptions;
                r = ControlResult::kTransient;
            }
            e.eligible = true;
            if (r == ControlResult::kGone) break;
            if (!verify) break;  // healthy channel: one resume suffices
            // Degraded channel: trust but verify — the resume may have been
            // lost; only a read showing the entity not stopped settles it.
            try {
                const Sample s = control_.read_progress(id);
                if (s.ok && (!s.alive || !s.stopped)) break;
            } catch (...) {
                ++health_.exceptions;
            }
        }
    }
}

TickStats Scheduler::tick() {
    TickStats stats;
    ++count_;  // paper: count <- count + 1
    if (telemetry::active()) telemetry::instant(telemetry::kNameTick, 0, count_);
    if (entities_.empty()) return stats;

    const std::int64_t quantum_ns = cfg_.quantum.count();
    std::vector<EntityId> dead;
    std::vector<EntityId> dropped;

    const auto enter_quarantine = [&](EntityId id, Entity& e) {
        e.quarantined = true;
        e.suspect = false;
        ++stats.quarantined;
        ++health_.quarantines;
        if (telemetry::active()) {
            telemetry::instant(telemetry::kNameQuarantine, track_of(id));
        }
        // Quarantine must never wedge a process in SIGSTOP: release it
        // (best-effort) and let it free-run while we probe the channel.
        if (!e.eligible) guarded_signal(id, /*make_eligible=*/true);
        trace_state_flip(id, e.eligible, true);
        e.eligible = true;
    };

    const auto charge = [&](Entity& e, const Sample& s) {
        if (!e.have_baseline) {
            // Admission read had failed; start charging from here.
            e.last_cpu = s.cpu_time;
            e.have_baseline = true;
            return;
        }
        Duration consumed = s.cpu_time - e.last_cpu;
        if (consumed < Duration::zero()) {
            // The id's CPU counter went backwards: the pid was reused (or
            // the host rebooted). The old process's unread tail is
            // unknowable — rebaseline and keep going instead of aborting.
            ++stats.rebaselines;
            ++health_.rebaselines;
            consumed = Duration::zero();
        }
        e.last_cpu = s.cpu_time;
        e.allowance_ns -= consumed.count();
        tc_ns_ -= consumed.count();

        if (cfg_.io_accounting && s.blocked) {
            // §2.4: the blocked process gave up one quantum's worth of its
            // right to run; shorten the cycle by the same amount.
            e.allowance_ns -= quantum_ns;
            tc_ns_ -= quantum_ns;
        }
    };

    // --- Measurement loop (Figure 3, first for-all) ---
    for (auto& [id, e] : entities_) {
        // Quarantined entities are probed every tick. Eligible ones are
        // measured when due (§2.3). Ineligible ones cannot have run, so they
        // are skipped free of charge — unless the channel has ever
        // misbehaved: then they are verified on the same lazy schedule, as a
        // lost SIGSTOP otherwise lets the entity free-run *unmeasured*.
        if (!e.quarantined) {
            if (!e.eligible && !health_.degraded()) continue;
            if (cfg_.lazy_measurement && e.update > count_) continue;
        }
        e.touched = true;
        const Sample s = guarded_read(id, stats);
        if (!s.ok) {
            ++stats.read_failures;
            ++health_.read_failures;
            const bool quarantine_now = note_failure(e);
            if (e.quarantined) {
                if (e.fail_streak >= kDropAfter) dropped.push_back(id);
            } else if (quarantine_now) {
                enter_quarantine(id, e);
            } else if (e.eligible) {
                // Cross-tick exponential backoff. Quarantine on the
                // kQuarantineAfter-th failure comes first, so the waits are
                // 1, 2, 4 ticks and the shift needs no cap.
                ALPS_ENSURE(e.fail_streak < kQuarantineAfter);
                e.update = count_ + (std::uint64_t{1} << (e.fail_streak - 1));
            }
            continue;
        }
        ++stats.measured;
        ++total_measurements_;
        if (!s.alive) {
            dead.push_back(id);
            continue;
        }

        if (e.quarantined) {
            charge(e, s);
            // Reads are back; try to regain the control channel by
            // enforcing the desired state.
            const bool want_eligible = e.allowance_ns > 0;
            const ControlResult r = guarded_signal(id, want_eligible);
            if (r == ControlResult::kOk) {
                e.quarantined = false;
                trace_state_flip(id, e.eligible, want_eligible);
                e.eligible = want_eligible;
                note_success(e);
                e.update = count_ + 1;
                ++stats.reissues;
                ++health_.reissues;
            } else if (r == ControlResult::kGone) {
                dead.push_back(id);
            } else {
                ++stats.control_failures;
                ++health_.control_failures;
                note_failure(e);
                if (e.fail_streak >= kDropAfter) dropped.push_back(id);
            }
            continue;
        }

        // An ineligible entity is charged before the re-send (the tail
        // before the stop took effect, or everything it stole while the stop
        // was lost); an eligible one after it, and not at all if it is gone.
        const bool eligible = e.eligible;
        if (!eligible) charge(e, s);
        if (s.stopped != eligible) {
            note_success(e);
        } else {
            // The desired state did not take — a lost SIGSTOP (the entity
            // free-runs unmeasured) or a lost SIGCONT (it stays wedged):
            // re-send it.
            ++stats.reissues;
            ++health_.reissues;
            const ControlResult r = guarded_signal(id, eligible);
            if (r == ControlResult::kGone) {
                dead.push_back(id);
                continue;
            }
            if (r == ControlResult::kOk) {
                note_success(e);
            } else {
                ++stats.control_failures;
                ++health_.control_failures;
                e.suspect = true;
                if (note_failure(e)) enter_quarantine(id, e);
            }
        }
        if (eligible) charge(e, s);
    }

    // Entities that vanished take their remaining allowance with them;
    // entities whose channel never recovered are dropped the same way (a
    // final best-effort resume first — never leave a process stopped).
    for (EntityId id : dropped) {
        guarded_signal(id, /*make_eligible=*/true);
        ++stats.dropped;
        ++health_.drops;
        if (telemetry::active()) telemetry::instant(telemetry::kNameDrop, track_of(id));
        forget(id);
    }
    for (EntityId id : dead) forget(id);
    if (entities_.empty()) return stats;

    // --- Cycle completion (Figure 3, middle) ---
    int cycles = 0;
    if (tc_ns_ <= 0) {
        cycles = 1;
        tc_ns_ += total_shares_ * quantum_ns;
        stats.cycle_completed = true;
        emit_cycle_record();
        ++cycles_done_;
        if (telemetry::active()) {
            telemetry::instant(telemetry::kNameCycle, 0, cycles_done_);
        }
    }

    // --- Allowance refresh and partition (Figure 3, second for-all) ---
    std::vector<EntityId> gone;
    for (auto& [id, e] : entities_) {
        // Fast path: nothing about this entity changed this tick — it was
        // not measured (allowance unchanged), is not suspect or quarantined,
        // its desired eligibility already holds, no cycle boundary refreshed
        // its allowance, and its lazy-measurement postponement is not due
        // for recomputation. Every statement below is then a no-op, so
        // skipping is behaviour-preserving (runs replay bit-identically);
        // under lazy measurement this is the vast majority of entities.
        if (cycles == 0 && !e.touched && !e.suspect && !e.quarantined &&
            e.eligible == (e.allowance_ns > 0) &&
            (!cfg_.lazy_measurement || e.update > count_)) {
            continue;
        }
        e.touched = false;
        e.allowance_ns += e.share * quantum_ns * cycles;
        if (e.quarantined) continue;  // no signalling until the probe recovers
        const int failures_before = e.fail_streak;
        const bool want_eligible = e.allowance_ns > 0;
        // Duplicates transition()'s no-change early return so the common
        // case pays no call overhead.
        if (e.eligible != want_eligible || e.suspect) {
            transition(id, e, want_eligible, stats);
        }
        if (e.suspect && e.fail_streak == failures_before) {
            // kGone surfaced through the control channel: an ineligible
            // entity would never be measured again, so confirm by reading
            // right here (counted as a verification retry).
            ++stats.retries;
            ++health_.retries;
            const Sample s = guarded_read(id, stats);
            if (s.ok && !s.alive) {
                gone.push_back(id);
                continue;
            }
            if (s.ok) {
                note_success(e);
            } else {
                ++stats.read_failures;
                ++health_.read_failures;
                note_failure(e);
            }
        }
        if (!e.quarantined && e.fail_streak >= kQuarantineAfter) {
            enter_quarantine(id, e);
            continue;
        }
        if (!cfg_.lazy_measurement) continue;
        if (e.update <= count_) {
            // §2.3: a process cannot exhaust its allowance in fewer than
            // ceil(allowance / Q) quanta, so skip measuring it until then. A
            // group principal with k runnable members on m CPUs can burn
            // min(k, m) quanta per tick, so it may overrun by that factor
            // between reads (DESIGN §5).
            const std::int64_t quanta_until_due =
                e.allowance_ns > 0 ? (e.allowance_ns - 1) / quantum_ns + 1 : 1;
            e.update = count_ + static_cast<std::uint64_t>(quanta_until_due);
        }
    }
    for (EntityId id : gone) forget(id);
    return stats;
}

void Scheduler::emit_cycle_record() {
    if (observer_) {
        CycleRecord rec;
        rec.index = cycles_done_;
        rec.end_tick = count_;
        rec.ids.reserve(entities_.size());
        for (const auto& [id, e] : entities_) {
            rec.ids.push_back(id);
            rec.shares.push_back(e.share);
        }
        observer_(rec);
    }
}

}  // namespace alps::core
