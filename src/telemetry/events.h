// The unified telemetry event vocabulary: one fixed 32-byte binary record.
//
// Every instrumented layer (sim::Engine, os::Kernel, the ALPS core, the
// experiment harness) speaks this format. A record is a point or edge on a
// timeline: a span begin/end (eligible/ineligible/running stretches), an
// instant (one ALPS tick, a cycle boundary, a quarantine), or a counter
// sample. Records are trivially copyable so the per-thread ring buffers and
// the .alpstrace file reader/writer can treat them as raw bytes.
//
// Names are interned: a record carries a 16-bit id into the session's string
// table. The ids below are *well-known* — every Session pre-interns them in
// this exact order, so instrumentation sites can use the constants without
// ever touching the intern table on the hot path.
#pragma once

#include <cstdint>
#include <type_traits>

namespace alps::telemetry {

enum class EventType : std::uint16_t {
    kSpanBegin = 1,  ///< a named span opens on (scope, track)
    kSpanEnd = 2,    ///< the innermost open span of that name closes
    kInstant = 3,    ///< a point event; `value` is free-form payload
    kCounter = 4,    ///< a sampled counter value on its own timeline
};

/// Pre-interned string-table ids (id == enum value in every session).
enum WellKnownName : std::uint16_t {
    kNameNone = 0,        ///< "" — reserved, never emitted
    kNameRunning = 1,     ///< kernel: process occupies a CPU
    kNameEligible = 2,    ///< ALPS desires the entity runnable
    kNameIneligible = 3,  ///< ALPS desires the entity suspended
    kNameTick = 4,        ///< one Figure-3 invocation; value = tick count
    kNameCycle = 5,       ///< cycle completion; value = cycles completed
    kNameQuarantine = 6,  ///< entity entered quarantine
    kNameDrop = 7,        ///< entity dropped after repeated failures
    kWellKnownNameCount = 8,
};

/// Spelling of a well-known id ("" for kNameNone / out-of-range).
[[nodiscard]] const char* well_known_name(std::uint16_t id);

/// One telemetry event. 32 bytes, stored and written verbatim (little-endian
/// serialization is handled by trace_file.{h,cpp}).
struct Record {
    std::uint64_t ts_ns = 0;     ///< event time on the emitter's clock
    std::uint32_t scope = 0;     ///< grouping unit (sweep task index; 0 default)
    std::uint32_t track = 0;     ///< timeline within the scope (simulated pid)
    std::uint16_t type = 0;      ///< EventType
    std::uint16_t name = 0;      ///< string-table id
    std::uint32_t reserved = 0;  ///< must be zero (format evolution room)
    std::uint64_t value = 0;     ///< payload (counter value, tick index, ...)

    friend bool operator==(const Record&, const Record&) = default;
};
static_assert(sizeof(Record) == 32, "fixed binary record format");
static_assert(std::is_trivially_copyable_v<Record>);

}  // namespace alps::telemetry
