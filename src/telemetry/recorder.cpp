#include "telemetry/recorder.h"

#include <algorithm>

#include "util/assert.h"

namespace alps::telemetry {

const char* well_known_name(std::uint16_t id) {
    switch (id) {
        case kNameRunning: return "running";
        case kNameEligible: return "eligible";
        case kNameIneligible: return "ineligible";
        case kNameTick: return "tick";
        case kNameCycle: return "cycle";
        case kNameQuarantine: return "quarantine";
        case kNameDrop: return "drop";
        default: return "";
    }
}

namespace detail {
std::atomic<Session*> g_session{nullptr};
std::atomic<std::uint64_t> g_attach_generation{0};
constinit thread_local std::uint64_t t_now_ns = 0;
constinit thread_local std::uint32_t t_scope = 0;
}  // namespace detail

namespace {

/// Per-thread ring cache. The generation stamp — bumped on every attach —
/// guards against a new Session reusing a dead one's address.
struct ThreadRingCache {
    std::uint64_t generation = 0;
    Session::Ring* ring = nullptr;
};
thread_local ThreadRingCache t_ring_cache;

}  // namespace

Session::Session(SessionConfig cfg) : cfg_(cfg) {
    ALPS_EXPECT(cfg_.ring_capacity > 0);
    names_.reserve(kWellKnownNameCount);
    for (std::uint16_t id = 0; id < kWellKnownNameCount; ++id) {
        names_.emplace_back(well_known_name(id));
    }
}

Session::~Session() {
    if (detail::g_session.load(std::memory_order_relaxed) == this) detach();
}

std::uint16_t Session::intern(std::string_view name) {
    std::scoped_lock lock(mu_);
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return static_cast<std::uint16_t>(i);
    }
    ALPS_EXPECT(names_.size() < 0xffff);
    names_.emplace_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
}

std::vector<std::string> Session::names() const {
    std::scoped_lock lock(mu_);
    return names_;
}

std::uint64_t Session::dropped() const {
    std::scoped_lock lock(mu_);
    std::uint64_t n = 0;
    for (const auto& ring : rings_) n += ring->dropped;
    return n;
}

std::uint64_t Session::recorded() const {
    std::scoped_lock lock(mu_);
    std::uint64_t n = 0;
    for (const auto& ring : rings_) n += ring->records.size();
    return n;
}

namespace {

/// Appends a ring's records to `out` in emission order. A wrap-mode ring
/// that has lapped stores its oldest record at `next`, so the ring is
/// unrolled as [next, end) + [0, next).
void append_in_emission_order(const Session::Ring& ring, std::vector<Record>& out) {
    if (ring.wrap && ring.records.size() >= ring.records.capacity() &&
        ring.next != 0) {
        out.insert(out.end(), ring.records.begin() + static_cast<std::ptrdiff_t>(ring.next),
                   ring.records.end());
        out.insert(out.end(), ring.records.begin(),
                   ring.records.begin() + static_cast<std::ptrdiff_t>(ring.next));
        return;
    }
    out.insert(out.end(), ring.records.begin(), ring.records.end());
}

}  // namespace

std::vector<Record> Session::drain() {
    std::scoped_lock lock(mu_);
    std::vector<Record> out;
    std::size_t total = 0;
    for (const auto& ring : rings_) total += ring->records.size();
    out.reserve(total);
    for (const auto& ring : rings_) {
        append_in_emission_order(*ring, out);
        ring->records.clear();
        ring->next = 0;
    }
    std::stable_sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
        if (a.scope != b.scope) return a.scope < b.scope;
        return a.ts_ns < b.ts_ns;
    });
    return out;
}

bool Session::try_snapshot_tail(std::size_t max_per_ring, std::vector<Record>& records,
                                std::vector<std::string>& names,
                                std::uint64_t& dropped) const {
    std::unique_lock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    for (const auto& ring : rings_) {
        std::vector<Record> unrolled;
        unrolled.reserve(ring->records.size());
        append_in_emission_order(*ring, unrolled);
        const std::size_t n = std::min(max_per_ring, unrolled.size());
        records.insert(records.end(), unrolled.end() - static_cast<std::ptrdiff_t>(n),
                       unrolled.end());
        dropped += ring->dropped + (unrolled.size() - n);
    }
    names = names_;
    return true;
}

Session::Ring& Session::ring_for_current_thread() {
    std::scoped_lock lock(mu_);
    rings_.push_back(std::make_unique<Ring>(cfg_.ring_capacity, cfg_.wrap));
    return *rings_.back();
}

void attach(Session& session) {
    Session* expected = nullptr;
    const bool swapped = detail::g_session.compare_exchange_strong(
        expected, &session, std::memory_order_release);
    ALPS_EXPECT(swapped);  // one sink at a time
    detail::g_attach_generation.fetch_add(1, std::memory_order_relaxed);
}

void detach() { detail::g_session.store(nullptr, std::memory_order_release); }

void emit(const Record& record) {
    Session* session = detail::g_session.load(std::memory_order_acquire);
    if (session == nullptr) return;
    const std::uint64_t gen =
        detail::g_attach_generation.load(std::memory_order_relaxed);
    ThreadRingCache& cache = t_ring_cache;
    if (cache.generation != gen || cache.ring == nullptr) {
        cache.ring = &session->ring_for_current_thread();
        cache.generation = gen;
    }
    Session::Ring& ring = *cache.ring;
    if (ring.records.size() >= ring.records.capacity()) {
        if (ring.wrap) {
            // Flight-recorder mode: overwrite the oldest record so the ring
            // always holds the newest window. `next` walks the oldest slot.
            ring.records[ring.next] = record;
            ring.next = (ring.next + 1) % ring.records.capacity();
            ++ring.dropped;  // count of overwritten (lost) records
            return;
        }
        ++ring.dropped;  // bounded memory: drop the new record, keep a prefix
        return;
    }
    ring.records.push_back(record);
}

}  // namespace alps::telemetry
