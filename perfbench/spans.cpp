#include "spans.h"

#include <time.h>
#include <zlib.h>

namespace alps::perfbench {

namespace {

std::int64_t monotonic_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

const char* layer_name(Layer layer) {
    switch (layer) {
        case Layer::kRunUntil: return "sim.run_until";
        case Layer::kSubmit: return "web.submit";
        case Layer::kTick: return "alps.tick";
        case Layer::kRefresh: return "alps.refresh";
        case Layer::kMeasure: return "os.measure";
        case Layer::kSignal: return "os.signal";
        case Layer::kPidsOfUid: return "os.pids_of_uid";
        case Layer::kPosixRead: return "posix.read";
        case Layer::kPosixSignal: return "posix.signal";
        case Layer::kCount: break;
    }
    return "?";
}

std::int32_t SpanLog::open(Layer layer) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{monotonic_ns(), 0, current_, layer});
    current_ = index;
    return index;
}

void SpanLog::close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = monotonic_ns();
    current_ = s.parent;
}

LayerTotals SpanLog::totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    LayerTotals t;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const auto l = static_cast<std::size_t>(s.layer);
        const std::int64_t dur = s.end_ns - s.start_ns;
        t.total_s[l] += static_cast<double>(dur) * 1e-9;
        t.self_s[l] += static_cast<double>(dur - child_ns[i]) * 1e-9;
        ++t.calls[l];
        if (s.parent < 0) t.root_s += static_cast<double>(dur) * 1e-9;
    }
    return t;
}

std::vector<double> SpanLog::durations_us(Layer layer) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.layer == layer) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    return out;
}

bool SpanLog::write(const std::string& path) const {
    gzFile f = ::gzopen(path.c_str(), "wb1");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    bool ok = ::gzputs(f, "layer\tstart_ns\tend_ns\tparent\n") > 0;
    for (const Span& s : spans_) {
        if (!ok) break;
        ok = ::gzprintf(f, "%s\t%lld\t%lld\t%d\n", layer_name(s.layer),
                        static_cast<long long>(s.start_ns - t0),
                        static_cast<long long>(s.end_ns - t0), s.parent) > 0;
    }
    return ::gzclose(f) == Z_OK && ok;
}

core::Sample TimedHost::read_pid(core::HostPid pid) {
    ScopedSpan span(log_, read_layer_);
    const core::Sample s = inner_.read_pid(pid);
    ++counts_.reads;
    if (!s.ok) ++counts_.read_failures;
    return s;
}

void TimedHost::read_pids(std::span<const core::HostPid> pids, core::Sample* out) {
    ScopedSpan span(log_, read_layer_);
    inner_.read_pids(pids, out);
    counts_.reads += pids.size();
    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!out[i].ok) ++counts_.read_failures;
    }
}

core::ControlResult TimedHost::stop_pid(core::HostPid pid) {
    ScopedSpan span(log_, signal_layer_);
    const core::ControlResult r = inner_.stop_pid(pid);
    ++counts_.signals;
    if (r != core::ControlResult::kOk) ++counts_.signal_failures;
    return r;
}

core::ControlResult TimedHost::cont_pid(core::HostPid pid) {
    ScopedSpan span(log_, signal_layer_);
    const core::ControlResult r = inner_.cont_pid(pid);
    ++counts_.signals;
    if (r != core::ControlResult::kOk) ++counts_.signal_failures;
    return r;
}

std::vector<core::HostPid> TimedHost::pids_of_user(core::HostUid uid) {
    ScopedSpan span(log_, Layer::kPidsOfUid);
    return inner_.pids_of_user(uid);
}

void TimedHost::pids_of_user(core::HostUid uid, std::vector<core::HostPid>& out) {
    ScopedSpan span(log_, Layer::kPidsOfUid);
    inner_.pids_of_user(uid, out);
}

}  // namespace alps::perfbench
