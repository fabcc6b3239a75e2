// The event recorder: per-thread SPSC ring buffers behind one global sink.
//
// Design contract (the overhead budget every instrumented hot path relies
// on): with no Session attached, an instrumentation site costs exactly one
// relaxed atomic load and one predicted-untaken branch — `active()` — and
// nothing else. scripts/check.sh enforces this end-to-end: the Release
// perf-smoke leg fails if tracing-disabled `sim_perf` throughput drops more
// than ALPS_TRACE_OVERHEAD_TOLERANCE (default 5) percent below the committed
// baseline.
//
// With a Session attached, emit() appends one 32-byte Record to the calling
// thread's ring: single-producer (the thread), single-consumer (drain(),
// which runs only after producers have quiesced). Memory is bounded — a full
// ring drops *new* records and counts them, so a trace is always an exact
// prefix of what happened, never a corrupted middle.
//
// Clock and scope are thread-local ambient state: sim::Engine publishes the
// virtual clock via set_now_ns() as it advances, and the sweep runner tags
// each task's records with set_scope(task index) so one .alpstrace can hold
// many independent simulations without their (restarting) clocks colliding.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/events.h"

namespace alps::telemetry {

struct SessionConfig {
    /// Records per thread ring (32 bytes each). Overflow drops new records
    /// and counts them; it never reallocates, so emit() cannot throw.
    std::size_t ring_capacity = 1u << 20;
    /// Flight-recorder mode: on overflow, overwrite the *oldest* record
    /// instead of dropping the new one, so the ring always holds the most
    /// recent window of activity (what a crash dump wants). Trace capture
    /// keeps the default drop-new policy, whose output is an exact prefix.
    /// Overwritten records count toward dropped() either way.
    bool wrap = false;
};

/// One recording. Construct, attach(), run the instrumented code, detach(),
/// then drain()/names() feed a TraceFile. A Session may be reused (attach
/// again) but not copied.
class Session {
public:
    explicit Session(SessionConfig cfg = {});
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Interns a name, returning its stable string-table id. Well-known
    /// names (events.h) are pre-interned with their enum values. Intended
    /// for setup code, not hot paths (takes the session mutex).
    std::uint16_t intern(std::string_view name);

    /// The string table; index == id.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Records dropped across all rings because a ring was full.
    [[nodiscard]] std::uint64_t dropped() const;

    /// Records currently buffered across all rings.
    [[nodiscard]] std::uint64_t recorded() const;

    /// Moves every ring's records into one stream, stably ordered by
    /// (scope, ts) — emission order breaks ties, so a single-threaded
    /// recording drains deterministically. Contract: no thread is emitting
    /// (detach() first; thread-pool joins provide the synchronization).
    [[nodiscard]] std::vector<Record> drain();

    /// Best-effort copy of the most recent records, for crash-context dumps.
    /// Uses try_to_lock — if another thread holds (or died holding) the
    /// session mutex, returns false rather than deadlocking inside a signal
    /// handler. Takes up to `max_per_ring` newest records from each ring,
    /// appends them to `records` (caller sorts), copies the string table into
    /// `names`, and accumulates the drop count into `dropped`.
    [[nodiscard]] bool try_snapshot_tail(std::size_t max_per_ring,
                                         std::vector<Record>& records,
                                         std::vector<std::string>& names,
                                         std::uint64_t& dropped) const;

    /// One thread's buffer (implementation detail, public only so the
    /// emit() fast path can cache a pointer to it).
    struct Ring {
        Ring(std::size_t capacity, bool wrap_mode) : wrap(wrap_mode) {
            records.reserve(capacity);
        }
        std::vector<Record> records;  ///< reserved up-front; never reallocates
        std::uint64_t dropped = 0;
        bool wrap = false;      ///< overwrite-oldest instead of drop-new
        std::size_t next = 0;   ///< wrap mode: index of the oldest record
    };

private:
    friend void attach(Session& session);
    friend void detach();
    friend void emit(const Record& record);

    /// The calling thread's ring, registering one on first use.
    Ring& ring_for_current_thread();

    mutable std::mutex mu_;
    SessionConfig cfg_;
    std::vector<std::unique_ptr<Ring>> rings_;  ///< registration order
    std::vector<std::string> names_;
};

namespace detail {
extern std::atomic<Session*> g_session;
extern std::atomic<std::uint64_t> g_attach_generation;
// constinit: constant-initialized, so the compiler addresses these
// directly instead of through the C++ TLS init wrapper — one less
// indirect call on every emit, and no wrapper pointer for sanitizers
// to flag.
extern constinit thread_local std::uint64_t t_now_ns;
extern constinit thread_local std::uint32_t t_scope;
}  // namespace detail

/// True while a Session is attached. The only cost tracing adds to an
/// instrumented hot path when disabled.
[[nodiscard]] inline bool active() {
    return detail::g_session.load(std::memory_order_relaxed) != nullptr;
}

/// Attaches the (single) global sink. Contract: nothing attached yet.
void attach(Session& session);
/// Detaches the sink; emits become no-ops again. Idempotent.
void detach();

/// Publishes the emitter's current clock (thread-local ambient time).
inline void set_now_ns(std::uint64_t ns) { detail::t_now_ns = ns; }
[[nodiscard]] inline std::uint64_t now_ns() { return detail::t_now_ns; }

/// Tags subsequent records from this thread with `scope` and rewinds the
/// ambient clock to 0 (scopes are independent simulations whose virtual
/// clocks restart).
inline void set_scope(std::uint32_t scope) {
    detail::t_scope = scope;
    detail::t_now_ns = 0;
}
[[nodiscard]] inline std::uint32_t scope() { return detail::t_scope; }

/// Appends `record` to the calling thread's ring of the attached session;
/// no-op when none is attached. Never throws and never allocates once the
/// thread's ring exists (drop-and-count on overflow).
void emit(const Record& record);

// ----- convenience emitters (ambient scope; ambient or explicit clock) -----

inline void emit_event(EventType type, std::uint16_t name, std::uint32_t track,
                       std::uint64_t ts_ns, std::uint64_t value = 0) {
    Record r;
    r.ts_ns = ts_ns;
    r.scope = detail::t_scope;
    r.track = track;
    r.type = static_cast<std::uint16_t>(type);
    r.name = name;
    r.value = value;
    emit(r);
}

inline void span_begin(std::uint16_t name, std::uint32_t track) {
    emit_event(EventType::kSpanBegin, name, track, detail::t_now_ns);
}
inline void span_begin_at(std::uint64_t ts_ns, std::uint16_t name, std::uint32_t track) {
    emit_event(EventType::kSpanBegin, name, track, ts_ns);
}
inline void span_end(std::uint16_t name, std::uint32_t track) {
    emit_event(EventType::kSpanEnd, name, track, detail::t_now_ns);
}
inline void span_end_at(std::uint64_t ts_ns, std::uint16_t name, std::uint32_t track) {
    emit_event(EventType::kSpanEnd, name, track, ts_ns);
}
inline void instant(std::uint16_t name, std::uint32_t track, std::uint64_t value = 0) {
    emit_event(EventType::kInstant, name, track, detail::t_now_ns, value);
}
inline void counter(std::uint16_t name, std::uint32_t track, std::uint64_t value) {
    emit_event(EventType::kCounter, name, track, detail::t_now_ns, value);
}

}  // namespace alps::telemetry
