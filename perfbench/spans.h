// In-memory span recording for the traced perfbench runs, plus the
// pass-through decorators that place spans at the library's public seams:
//
//   * core::ProcessHost  — reads, signals and membership listings, around
//                          SimProcessHost or PosixProcessHost;
//   * os::Behavior       — the ALPS driver's tick (lazy_run_duration), around
//                          core::AlpsDriverBehavior.
//
// The traffic submit callback and sim::Engine::run_until are wrapped with a
// ScopedSpan at the call site. A span is (layer, start, end, parent); a
// layer's self time is its span minus the part its child spans cover.
// Spans use the monotonic clock: cheap enough to wrap sub-microsecond calls,
// and the traced run reports shares and per-call costs, not the gated
// end-to-end numbers (those come from the untraced run on the CPU clock).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alps/host.h"
#include "os/behavior.h"

namespace alps::perfbench {

enum class Layer : std::uint8_t {
    kRunUntil,     ///< sim::Engine::run_until: the whole simulated run
    kSubmit,       ///< traffic::Generator submit -> web::WebSite::submit
    kTick,         ///< one ALPS tick (driver lazy_run_duration / posix loop)
    kRefresh,      ///< group membership refresh before a tick
    kMeasure,      ///< ProcessHost read on the simulated kernel
    kSignal,       ///< ProcessHost stop/cont on the simulated kernel
    kPidsOfUid,    ///< ProcessHost::pids_of_user
    kPosixRead,    ///< ProcessHost read through /proc
    kPosixSignal,  ///< ProcessHost stop/cont through kill(2)
    kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
    Layer layer = Layer::kRunUntil;
};

/// Per-layer aggregation of one log.
struct LayerTotals {
    std::array<double, kLayers> total_s{};  ///< summed span durations
    std::array<double, kLayers> self_s{};   ///< minus child spans
    std::array<std::uint64_t, kLayers> calls{};
    double root_s = 0.0;  ///< summed durations of root spans
};

/// Single-threaded span stack. Spans nest strictly (the simulation and the
/// posix tick loop run on one thread), so the parent is the open span.
class SpanLog {
public:
    std::int32_t open(Layer layer);
    void close(std::int32_t index);

    /// Drops every span; call only with no span open (e.g. after set-up,
    /// so the log holds the measured run alone).
    void clear() {
        spans_.clear();
        current_ = -1;
    }

    [[nodiscard]] LayerTotals totals() const;
    /// Durations (µs) of every span of one layer, in recording order.
    [[nodiscard]] std::vector<double> durations_us(Layer layer) const;
    /// Writes the spans as gzip-compressed tab-separated text: a header, then
    /// one `layer start_ns end_ns parent` line per span (times relative to
    /// the first span; parent is a 0-based span index, -1 at the root).
    /// Returns false if the file could not be written.
    bool write(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

class ScopedSpan {
public:
    ScopedSpan(SpanLog* log, Layer layer)
        : log_(log), index_(log != nullptr ? log->open(layer) : -1) {}
    ~ScopedSpan() {
        if (log_ != nullptr) log_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog* log_;
    std::int32_t index_;
};

/// Operation counts seen at the ProcessHost seam. A failed operation is a
/// read with ok=false or a signal that did not return kOk.
struct HostCounts {
    std::uint64_t reads = 0;  ///< processes read (a batch counts each pid)
    std::uint64_t read_failures = 0;
    std::uint64_t signals = 0;
    std::uint64_t signal_failures = 0;
};

/// Pass-through ProcessHost: forwards every call (including the batched
/// read path, so a traced run takes the same route as an untraced one),
/// counts operations, and records a span per call when given a log.
class TimedHost final : public core::ProcessHost {
public:
    TimedHost(core::ProcessHost& inner, SpanLog* log, Layer read_layer,
              Layer signal_layer)
        : inner_(inner), log_(log), read_layer_(read_layer), signal_layer_(signal_layer) {}

    core::Sample read_pid(core::HostPid pid) override;
    [[nodiscard]] bool supports_batch_read() const override {
        return inner_.supports_batch_read();
    }
    void read_pids(std::span<const core::HostPid> pids, core::Sample* out) override;
    core::ControlResult stop_pid(core::HostPid pid) override;
    core::ControlResult cont_pid(core::HostPid pid) override;
    std::vector<core::HostPid> pids_of_user(core::HostUid uid) override;
    void pids_of_user(core::HostUid uid, std::vector<core::HostPid>& out) override;

    [[nodiscard]] const HostCounts& counts() const { return counts_; }

private:
    core::ProcessHost& inner_;
    SpanLog* log_;
    Layer read_layer_;
    Layer signal_layer_;
    HostCounts counts_;
};

/// Pass-through os::Behavior that records a kTick span around each
/// lazy_run_duration (the moment the ALPS driver runs its tick).
class TimedBehavior final : public os::Behavior {
public:
    TimedBehavior(std::unique_ptr<os::Behavior> inner, SpanLog& log)
        : inner_(std::move(inner)), log_(log) {}

    os::Action next_action(os::ProcContext ctx) override {
        return inner_->next_action(ctx);
    }
    util::Duration lazy_run_duration(os::ProcContext ctx) override {
        ScopedSpan span(&log_, Layer::kTick);
        return inner_->lazy_run_duration(ctx);
    }

private:
    std::unique_ptr<os::Behavior> inner_;
    SpanLog& log_;
};

}  // namespace alps::perfbench
