// Tests for the telemetry subsystem: recorder rings, metrics registry,
// .alpstrace serialization, semantic verification, diff, and Chrome export —
// plus the scheduler-integration and determinism contracts the alps-trace
// CLI relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "alps/scheduler.h"
#include "mock_control.h"
#include "sim/engine.h"
#include "telemetry/chrome_export.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace_file.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/experiments.h"

namespace alps::telemetry {
namespace {

// ----- helpers -------------------------------------------------------------

class TempTracePath {
public:
    explicit TempTracePath(const std::string& stem)
        : path_(::testing::TempDir() + stem + ".alpstrace") {}
    ~TempTracePath() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& str() const { return path_; }

private:
    std::string path_;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Record make_record(EventType type, std::uint16_t name, std::uint32_t track,
                   std::uint64_t ts_ns, std::uint32_t scope = 0,
                   std::uint64_t value = 0) {
    Record r;
    r.ts_ns = ts_ns;
    r.scope = scope;
    r.track = track;
    r.type = static_cast<std::uint16_t>(type);
    r.name = name;
    r.value = value;
    return r;
}

// ----- recorder ------------------------------------------------------------

TEST(Recorder, InactiveByDefaultAndEmitIsANoOp) {
    ASSERT_FALSE(active());
    emit(make_record(EventType::kInstant, kNameTick, 0, 1));  // must not crash
    Session session;
    EXPECT_EQ(session.recorded(), 0u);
}

TEST(Recorder, SessionPreInternsWellKnownNames) {
    Session session;
    const std::vector<std::string> names = session.names();
    ASSERT_EQ(names.size(), std::size_t{kWellKnownNameCount});
    EXPECT_EQ(names[kNameNone], "");
    EXPECT_EQ(names[kNameRunning], "running");
    EXPECT_EQ(names[kNameEligible], "eligible");
    EXPECT_EQ(names[kNameIneligible], "ineligible");
    EXPECT_EQ(names[kNameTick], "tick");
    EXPECT_EQ(names[kNameCycle], "cycle");
    EXPECT_EQ(names[kNameQuarantine], "quarantine");
    EXPECT_EQ(names[kNameDrop], "drop");
}

TEST(Recorder, InternIsStableAndDeduplicates) {
    Session session;
    const std::uint16_t a = session.intern("custom.metric");
    EXPECT_EQ(a, kWellKnownNameCount);  // first id after the well-knowns
    EXPECT_EQ(session.intern("custom.metric"), a);
    EXPECT_EQ(session.intern("running"), kNameRunning);
    EXPECT_EQ(session.names()[a], "custom.metric");
}

TEST(Recorder, AttachedSessionCapturesEmittedRecords) {
    Session session;
    attach(session);
    set_scope(3);
    set_now_ns(250);
    span_begin(kNameEligible, 7);
    set_now_ns(900);
    span_end(kNameEligible, 7);
    instant(kNameTick, 0, 42);
    detach();
    EXPECT_FALSE(active());

    const std::vector<Record> records = session.drain();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0], make_record(EventType::kSpanBegin, kNameEligible, 7, 250, 3));
    EXPECT_EQ(records[1], make_record(EventType::kSpanEnd, kNameEligible, 7, 900, 3));
    EXPECT_EQ(records[2], make_record(EventType::kInstant, kNameTick, 0, 900, 3, 42));
    EXPECT_EQ(session.dropped(), 0u);
    EXPECT_EQ(session.recorded(), 0u);  // drain() moved them out
}

TEST(Recorder, SetScopeRewindsTheAmbientClock) {
    set_now_ns(12345);
    set_scope(9);
    EXPECT_EQ(now_ns(), 0u);  // scopes are independent simulations
    EXPECT_EQ(scope(), 9u);
    set_scope(0);
}

TEST(Recorder, RingOverflowDropsNewRecordsAndCountsThem) {
    Session session({.ring_capacity = 4});
    attach(session);
    set_scope(0);
    for (std::uint64_t i = 0; i < 10; ++i) {
        set_now_ns(i);
        instant(kNameTick, 0, i);
    }
    detach();

    EXPECT_EQ(session.dropped(), 6u);
    const std::vector<Record> records = session.drain();
    ASSERT_EQ(records.size(), 4u);
    // Drop-new policy: the trace is an exact prefix of what happened.
    for (std::uint64_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].value, i);
    }
}

TEST(Recorder, WrapModeOverwritesOldestAndUnrollsInEmissionOrder) {
    Session session({.ring_capacity = 4, .wrap = true});
    attach(session);
    set_scope(0);
    for (std::uint64_t i = 0; i < 10; ++i) {
        set_now_ns(i);
        instant(kNameTick, 0, i);
    }
    detach();

    EXPECT_EQ(session.dropped(), 6u);  // overwritten records still counted
    const std::vector<Record> records = session.drain();
    ASSERT_EQ(records.size(), 4u);
    // Flight-recorder policy: the newest window survives, oldest-first.
    for (std::uint64_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].value, 6 + i);
    }
}

TEST(Recorder, TrySnapshotTailTakesNewestWithoutDraining) {
    Session session({.ring_capacity = 8, .wrap = true});
    attach(session);
    set_scope(2);
    for (std::uint64_t i = 0; i < 20; ++i) {
        set_now_ns(i);
        instant(kNameTick, 0, i);
    }
    detach();

    std::vector<Record> records;
    std::vector<std::string> names;
    std::uint64_t dropped = 0;
    ASSERT_TRUE(session.try_snapshot_tail(3, records, names, dropped));
    ASSERT_EQ(records.size(), 3u);
    // The 3 newest of the surviving window [12..19].
    EXPECT_EQ(records[0].value, 17u);
    EXPECT_EQ(records[2].value, 19u);
    // 12 overwritten + 5 older-than-the-tail survivors.
    EXPECT_EQ(dropped, 17u);
    EXPECT_FALSE(names.empty());
    // Snapshot is non-destructive: the full window still drains.
    EXPECT_EQ(session.drain().size(), 8u);
}

TEST(Recorder, DumpAttachedSessionTailWritesAReadableTrace) {
    TempTracePath path("flight_recorder_dump");
    EXPECT_FALSE(dump_attached_session_tail(path.str(), 100));  // nothing attached

    Session session({.ring_capacity = 4, .wrap = true});
    attach(session);
    set_scope(5);
    for (std::uint64_t i = 0; i < 9; ++i) {
        set_now_ns(i);
        instant(kNameTick, 0, i);
    }
    ASSERT_TRUE(dump_attached_session_tail(path.str(), 100));
    detach();

    const TraceFile trace = read_trace_file(path.str());
    ASSERT_EQ(trace.records.size(), 4u);
    EXPECT_EQ(trace.records.front().value, 5u);  // newest window, oldest first
    EXPECT_EQ(trace.records.back().value, 8u);
    EXPECT_EQ(trace.records.front().scope, 5u);
    EXPECT_EQ(trace.dropped_records, 5u);
    EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(Recorder, SessionIsReusableAfterDetach) {
    Session session({.ring_capacity = 16});
    attach(session);
    instant(kNameTick, 0, 1);
    detach();
    EXPECT_EQ(session.drain().size(), 1u);

    attach(session);
    instant(kNameTick, 0, 2);
    instant(kNameCycle, 0, 1);
    detach();
    EXPECT_EQ(session.drain().size(), 2u);
}

// Two threads emit into one session, each registering its own ring under the
// session mutex. drain() must fold the rings into one (scope, ts)-ordered
// stream that keeps each thread's records in its emission order, equal
// timestamps across threads included.
TEST(Recorder, DrainMergesPerThreadRingsInScopeTsOrder) {
    constexpr std::uint64_t kPerScope = 1000;
    constexpr std::uint32_t kThreads = 2;
    Session session({.ring_capacity = 4096});
    attach(session);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&start, t] {
            start.arrive_and_wait();
            // Thread 0 steps its clock by 2 ns, thread 1 by 3 ns, so the two
            // tracks interleave and tie every 6 ns; each scope restarts at 0.
            const std::uint32_t track = t + 1;
            std::uint64_t seq = 0;
            for (std::uint32_t s = 0; s < 2; ++s) {
                set_scope(s);
                for (std::uint64_t i = 0; i < kPerScope; ++i) {
                    emit_event(EventType::kInstant, kNameTick, track, i * (t + 2), seq++);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    detach();

    const std::vector<Record> records = session.drain();
    ASSERT_EQ(records.size(), kThreads * 2 * kPerScope);
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                               [](const Record& a, const Record& b) {
                                   return a.scope != b.scope ? a.scope < b.scope
                                                             : a.ts_ns < b.ts_ns;
                               }));
    std::vector<std::uint64_t> next_seq(kThreads + 1, 0);
    for (const Record& rec : records) {
        ASSERT_GE(rec.track, 1u);
        ASSERT_LE(rec.track, kThreads);
        EXPECT_EQ(rec.value, next_seq[rec.track]++) << "track " << rec.track;
    }
    EXPECT_EQ(session.dropped(), 0u);
}

// ----- metrics -------------------------------------------------------------

TEST(Metrics, CountersAndGaugesFindOrCreate) {
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("a").add(3);
    reg.counter("a").add(2);
    reg.gauge("g").set(1.5);
    EXPECT_EQ(reg.counter("a").value(), 5u);
    EXPECT_EQ(reg.gauge("g").value(), 1.5);
    EXPECT_FALSE(reg.empty());
    reg.clear();
    EXPECT_TRUE(reg.empty());
}

TEST(Metrics, HistogramQuantilesAreLogBucketApproximations) {
    Histogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
    for (int i = 0; i < 90; ++i) h.record(100);   // bucket [64, 127]
    for (int i = 0; i < 10; ++i) h.record(9000);  // bucket [8192, 16383]
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 90u * 100u + 10u * 9000u);
    // p50 falls in the [64,127] bucket; the geometric midpoint is ~90.5.
    EXPECT_NEAR(h.quantile(0.50), 90.5, 1.0);
    // p99 falls in the [8192,16383] bucket; midpoint ~11585.
    EXPECT_NEAR(h.quantile(0.99), 11585.0, 10.0);
}

TEST(Metrics, HistogramOfZerosReportsZero) {
    Histogram h;
    for (int i = 0; i < 5; ++i) h.record(0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Metrics, ToJsonIsSortedAndSkipsEmptySections) {
    MetricsRegistry reg;
    reg.counter("z.last").add(1);
    reg.counter("a.first").add(2);
    const std::string json = reg.to_json().dump(0);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
    EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
    EXPECT_LT(json.find("a.first"), json.find("z.last"));  // deterministic order
}

TEST(Metrics, EngineExportsWheelAndArenaCounters) {
    // The timing-wheel engine must surface its structural health counters —
    // cascades, spill promotions, arena footprint — through export_metrics,
    // which is what lands in the run.telemetry block of every BENCH_*.json.
    sim::Engine eng;
    // Level-crossing schedule (forces cascades) plus one far-future event
    // that promotes out of the spill list before firing.
    for (int i = 0; i < 64; ++i) {
        eng.schedule_after(util::msec(1 + 97 * i), [] {});
    }
    const auto far = eng.schedule_after(util::sec(80'000), [] {});  // > horizon
    eng.run_until(util::TimePoint{} + util::sec(79'000));
    EXPECT_TRUE(eng.cancel(far));
    eng.run();

    MetricsRegistry reg;
    eng.export_metrics(reg);
    EXPECT_GT(reg.counter("engine.wheel_cascades").value(), 0u);
    EXPECT_EQ(reg.counter("engine.wheel_spill_promotions").value(),
              eng.spill_promotions());
    EXPECT_GT(reg.counter("engine.arena_bytes").value(), 0u);
    EXPECT_GE(reg.counter("engine.arena_high_water").value(),
              reg.counter("engine.arena_bytes").value());
    const std::string json = reg.to_json().dump(0);
    EXPECT_NE(json.find("engine.wheel_cascades"), std::string::npos);
    EXPECT_NE(json.find("engine.wheel_spill_promotions"), std::string::npos);
    EXPECT_NE(json.find("engine.arena_bytes"), std::string::npos);
    EXPECT_NE(json.find("engine.arena_high_water"), std::string::npos);
}

TEST(Metrics, SimRunExportsWheelCountersIntoRegistry) {
    // End-to-end: a real simulated run wired the way the sweep harness wires
    // it (SimRunConfig::metrics) must deposit the wheel counters.
    workload::SimRunConfig cfg;
    cfg.shares = {5, 5, 5};
    cfg.quantum = util::msec(10);
    cfg.measure_cycles = 3;
    cfg.warmup_cycles = 1;
    MetricsRegistry reg;
    cfg.metrics = &reg;
    const auto res = workload::run_cpu_bound_experiment(cfg);
    EXPECT_FALSE(res.timed_out);
    // The kernel's decision-timer churn sweeps the wheel; cascades are
    // guaranteed once the clock crosses any level-0 boundary.
    EXPECT_GT(reg.counter("engine.events_fired").value(), 0u);
    EXPECT_GT(reg.counter("engine.wheel_cascades").value(), 0u);
    EXPECT_GT(reg.counter("engine.arena_high_water").value(), 0u);
}

// ----- .alpstrace serialization --------------------------------------------

TEST(TraceFileIo, EmptyTraceRoundTrips) {
    TempTracePath path("empty");
    TraceFile trace;
    write_trace_file(path.str(), trace);
    const TraceFile back = read_trace_file(path.str());
    EXPECT_EQ(back.version, kTraceVersion);
    EXPECT_TRUE(back.names.empty());
    EXPECT_TRUE(back.records.empty());
    EXPECT_EQ(back.dropped_records, 0u);
}

TEST(TraceFileIo, RandomTracesRoundTripExactly) {
    util::Rng rng(20260806);
    for (int iteration = 0; iteration < 20; ++iteration) {
        TraceFile trace;
        trace.dropped_records = rng.next_u64() % 1000;
        const auto name_count = static_cast<std::size_t>(rng.uniform_int(1, 12));
        for (std::size_t i = 0; i < name_count; ++i) {
            std::string name;
            const auto len = static_cast<std::size_t>(rng.uniform_int(0, 24));
            for (std::size_t c = 0; c < len; ++c) {
                name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
            }
            trace.names.push_back(std::move(name));
        }
        const auto record_count = static_cast<std::size_t>(rng.uniform_int(0, 200));
        for (std::size_t i = 0; i < record_count; ++i) {
            Record r;
            r.ts_ns = rng.next_u64();
            r.scope = static_cast<std::uint32_t>(rng.next_u64());
            r.track = static_cast<std::uint32_t>(rng.next_u64());
            r.type = static_cast<std::uint16_t>(rng.uniform_int(1, 4));
            r.name = static_cast<std::uint16_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(name_count) - 1));
            r.value = rng.next_u64();
            trace.records.push_back(r);
        }
        TempTracePath path("roundtrip");
        write_trace_file(path.str(), trace);
        const TraceFile back = read_trace_file(path.str());
        EXPECT_EQ(back.names, trace.names);
        EXPECT_EQ(back.records, trace.records);
        EXPECT_EQ(back.dropped_records, trace.dropped_records);
    }
}

TEST(TraceFileIo, RejectsMissingFile) {
    EXPECT_THROW(read_trace_file(::testing::TempDir() + "no-such.alpstrace"),
                 std::runtime_error);
}

TEST(TraceFileIo, RejectsBadMagic) {
    TempTracePath path("badmagic");
    TraceFile trace;
    trace.names = {"", "running"};
    write_trace_file(path.str(), trace);
    std::string bytes = slurp(path.str());
    bytes[0] = 'X';
    spit(path.str(), bytes);
    EXPECT_THROW(read_trace_file(path.str()), std::runtime_error);
}

TEST(TraceFileIo, RejectsTruncatedHeader) {
    TempTracePath path("shorthdr");
    TraceFile trace;
    write_trace_file(path.str(), trace);
    spit(path.str(), slurp(path.str()).substr(0, 30));
    EXPECT_THROW(read_trace_file(path.str()), std::runtime_error);
}

TEST(TraceFileIo, RejectsTruncatedRecordRegion) {
    TempTracePath path("shortrec");
    TraceFile trace;
    trace.names = {""};
    trace.records.push_back(make_record(EventType::kInstant, 0, 0, 1));
    trace.records.push_back(make_record(EventType::kInstant, 0, 0, 2));
    write_trace_file(path.str(), trace);
    const std::string bytes = slurp(path.str());
    spit(path.str(), bytes.substr(0, bytes.size() - 10));
    EXPECT_THROW(read_trace_file(path.str()), std::runtime_error);
}

TEST(TraceFileIo, RejectsTrailingGarbage) {
    TempTracePath path("trailing");
    TraceFile trace;
    trace.names = {""};
    trace.records.push_back(make_record(EventType::kInstant, 0, 0, 1));
    write_trace_file(path.str(), trace);
    spit(path.str(), slurp(path.str()) + "junk");
    EXPECT_THROW(read_trace_file(path.str()), std::runtime_error);
}

// ----- semantic verification ------------------------------------------------

TraceFile minimal_trace() {
    TraceFile trace;
    trace.names = {"", "running", "eligible"};
    return trace;
}

TEST(VerifyTrace, BalancedSpansAndInstantsAreValid) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kSpanBegin, 1, 4, 100));
    trace.records.push_back(make_record(EventType::kInstant, 2, 0, 150));
    trace.records.push_back(make_record(EventType::kSpanEnd, 1, 4, 200));
    EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(VerifyTrace, UnclosedSpanAtEndOfTraceIsTolerated) {
    // Rings drop the suffix under overflow, so a trace is a prefix; a span
    // that never closes is expected, not an error.
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kSpanBegin, 1, 4, 100));
    EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(VerifyTrace, FlagsEndWithoutBegin) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kSpanEnd, 1, 4, 100));
    EXPECT_FALSE(verify_trace(trace).empty());
}

TEST(VerifyTrace, FlagsOutOfRangeNameId) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kInstant, 99, 0, 100));
    EXPECT_FALSE(verify_trace(trace).empty());
}

TEST(VerifyTrace, FlagsUnknownEventType) {
    TraceFile trace = minimal_trace();
    Record r = make_record(EventType::kInstant, 1, 0, 100);
    r.type = 9;
    trace.records.push_back(r);
    EXPECT_FALSE(verify_trace(trace).empty());
}

TEST(VerifyTrace, FlagsNonzeroReservedField) {
    TraceFile trace = minimal_trace();
    Record r = make_record(EventType::kInstant, 1, 0, 100);
    r.reserved = 7;
    trace.records.push_back(r);
    EXPECT_FALSE(verify_trace(trace).empty());
}

TEST(VerifyTrace, FlagsTimeRegressionWithinAScope) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kInstant, 1, 0, 500));
    trace.records.push_back(make_record(EventType::kInstant, 1, 0, 400));
    EXPECT_FALSE(verify_trace(trace).empty());
}

TEST(VerifyTrace, ScopesHaveIndependentClocks) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kInstant, 1, 0, 500, /*scope=*/0));
    trace.records.push_back(make_record(EventType::kInstant, 1, 0, 100, /*scope=*/1));
    EXPECT_TRUE(verify_trace(trace).empty());
}

// ----- diff -----------------------------------------------------------------

TEST(DiffTraces, IdenticalTracesCompareEqual) {
    TraceFile a = minimal_trace();
    a.records.push_back(make_record(EventType::kInstant, 1, 0, 100));
    const TraceDiff d = diff_traces(a, a);
    EXPECT_TRUE(d.identical());
    EXPECT_EQ(d.differing_records, 0u);
}

TEST(DiffTraces, ReportsDifferingRecordsAndLengthMismatch) {
    TraceFile a = minimal_trace();
    a.records.push_back(make_record(EventType::kInstant, 1, 0, 100));
    a.records.push_back(make_record(EventType::kInstant, 1, 0, 200));
    TraceFile b = a;
    b.records[0].ts_ns = 101;   // one mismatch
    b.records.pop_back();       // plus one record only in a
    const TraceDiff d = diff_traces(a, b);
    EXPECT_FALSE(d.identical());
    EXPECT_EQ(d.differing_records, 2u);
    EXPECT_FALSE(d.details.empty());
}

TEST(DiffTraces, ReportsNameTableDivergence) {
    TraceFile a = minimal_trace();
    TraceFile b = minimal_trace();
    b.names.push_back("extra");
    EXPECT_TRUE(diff_traces(a, b).names_differ);
}

// ----- chrome export --------------------------------------------------------

TEST(ChromeExport, EmitsMetadataSpansAndInstants) {
    TraceFile trace = minimal_trace();
    trace.records.push_back(make_record(EventType::kSpanBegin, 2, 1, 1000));
    trace.records.push_back(make_record(EventType::kSpanBegin, 1, 1, 1500));
    trace.records.push_back(make_record(EventType::kSpanEnd, 1, 1, 2000));
    trace.records.push_back(make_record(EventType::kSpanEnd, 2, 1, 2500));
    trace.records.push_back(
        make_record(EventType::kInstant, 1, 0, 3000, /*scope=*/0, /*value=*/4));

    const std::string json = to_chrome_trace(trace).dump(0);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"eligible\""), std::string::npos);
    // "running" spans render on their own lane (track*2+1) so state and cpu
    // spans never have to nest inside each other.
    EXPECT_NE(json.find("\"tid\":3"), std::string::npos);  // running on lane 3
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);  // eligible on lane 2
}

// ----- scheduler integration ------------------------------------------------

core::SchedulerConfig sched_config() {
    core::SchedulerConfig cfg;
    cfg.quantum = util::msec(10);
    return cfg;
}

std::vector<Record> record_scripted_run(Session& session) {
    testing::MockControl mc;
    mc.ensure(1);
    mc.ensure(2);
    core::Scheduler sched(mc, sched_config());
    attach(session);
    set_scope(0);
    sched.add(1, 1);
    sched.add(2, 1);
    sched.tick();  // both become eligible
    mc.entities[1].cpu += util::msec(20);  // entity 1 overruns the cycle
    sched.tick();
    detach();
    return session.drain();
}

TEST(SchedulerTelemetry, EmitsEligibilitySpansAndTickInstants) {
    Session session;
    const std::vector<Record> records = record_scripted_run(session);
    ASSERT_FALSE(records.empty());

    std::size_t ineligible_begins = 0;
    std::size_t eligible_begins = 0;
    std::size_t tick_instants = 0;
    for (const Record& r : records) {
        const auto type = static_cast<EventType>(r.type);
        if (type == EventType::kSpanBegin && r.name == kNameIneligible) {
            ++ineligible_begins;
        }
        if (type == EventType::kSpanBegin && r.name == kNameEligible) {
            ++eligible_begins;
        }
        if (type == EventType::kInstant && r.name == kNameTick) ++tick_instants;
    }
    // add() opens an ineligible span per entity; tick 1 flips both eligible;
    // tick 2 suspends the overrunning entity (back to ineligible).
    EXPECT_EQ(ineligible_begins, 3u);
    EXPECT_EQ(eligible_begins, 2u);
    EXPECT_EQ(tick_instants, 2u);

    // The stream is a valid trace the CLI toolchain accepts end-to-end.
    TraceFile trace;
    trace.names = session.names();
    trace.records = records;
    EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(SchedulerTelemetry, SameScriptedRunProducesIdenticalTraces) {
    Session a;
    Session b;
    const std::vector<Record> ra = record_scripted_run(a);
    const std::vector<Record> rb = record_scripted_run(b);
    TraceFile ta;
    ta.names = a.names();
    ta.records = ra;
    TraceFile tb;
    tb.names = b.names();
    tb.records = rb;
    EXPECT_TRUE(diff_traces(ta, tb).identical());
}

}  // namespace
}  // namespace alps::telemetry
