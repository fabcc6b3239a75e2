#include "posix/runner.h"

#include <sys/resource.h>
#include <time.h>

#include "util/assert.h"

namespace alps::posix {

using util::Duration;
using util::TimePoint;

util::Duration self_cpu_time() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return util::sec(t.tv_sec) + util::usec(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

util::TimePoint monotonic_now() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return TimePoint{util::sec(ts.tv_sec) + util::nsec(ts.tv_nsec)};
}

namespace {

void sleep_until(TimePoint t) {
    timespec ts{};
    const auto ns = t.since_epoch.count();
    ts.tv_sec = ns / 1'000'000'000;
    ts.tv_nsec = ns % 1'000'000'000;
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
        // EINTR: retry with the same absolute deadline.
    }
}

}  // namespace

RunTotals run_alps_loop(core::Scheduler& scheduler, Duration wall,
                        const std::atomic<bool>* stop,
                        const std::function<void()>& pre_tick) {
    ALPS_EXPECT(wall > Duration::zero());

    const Duration q = scheduler.config().quantum;
    const TimePoint start = monotonic_now();
    const Duration cpu0 = self_cpu_time();
    const TimePoint end = start + wall;

    RunTotals totals;
    std::int64_t boundary = 1;
    while (stop == nullptr || !stop->load(std::memory_order_relaxed)) {
        const TimePoint next = start + Duration{q.count() * boundary};
        if (next >= end) break;
        sleep_until(next);
        if (pre_tick) pre_tick();
        scheduler.tick();
        ++totals.ticks;
        // Next boundary strictly after "now": late ticks skip, not bunch.
        const auto elapsed = (monotonic_now() - start).count();
        boundary = elapsed / q.count() + 1;
    }

    scheduler.release_all();
    totals.wall = monotonic_now() - start;
    totals.cpu_self = self_cpu_time() - cpu0;
    totals.overhead_fraction =
        util::to_sec(totals.wall) > 0.0
            ? util::to_sec(totals.cpu_self) / util::to_sec(totals.wall)
            : 0.0;
    return totals;
}

// ----------------------------------------------------------------------------
// PosixAlpsRunner

PosixAlpsRunner::PosixAlpsRunner(core::SchedulerConfig cfg)
    : control_(host_), scheduler_(control_, cfg) {}

RunTotals PosixAlpsRunner::run_for(Duration wall) {
    // The request is consumed on the way out, not cleared on the way in: a
    // stop that arrives before the loop starts must still end the run.
    const RunTotals totals = run_alps_loop(scheduler_, wall, &stop_);
    stop_.store(false, std::memory_order_relaxed);
    return totals;
}

// ----------------------------------------------------------------------------
// PosixGroupAlpsRunner

PosixGroupAlpsRunner::PosixGroupAlpsRunner(core::SchedulerConfig cfg,
                                           Duration refresh_period)
    : control_(host_), scheduler_(control_, cfg), refresh_period_(refresh_period) {
    ALPS_EXPECT(refresh_period > Duration::zero());
}

core::EntityId PosixGroupAlpsRunner::manage_user(std::string name, core::HostUid uid,
                                                 util::Share share) {
    const core::EntityId id = control_.add_principal(std::move(name), uid);
    scheduler_.add(id, share);
    return id;
}

RunTotals PosixGroupAlpsRunner::run_for(Duration wall) {
    TimePoint next_refresh = monotonic_now();
    auto pre_tick = [this, &next_refresh] {
        const TimePoint now = monotonic_now();
        if (now < next_refresh) return;
        next_refresh = now + refresh_period_;
        control_.refresh_all();
    };
    const RunTotals totals = run_alps_loop(scheduler_, wall, &stop_, pre_tick);
    stop_.store(false, std::memory_order_relaxed);
    return totals;
}

}  // namespace alps::posix
