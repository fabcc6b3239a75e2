// Flat SoA request/session table (the PR 3/5/8 substrate style applied to
// the web model).
//
// Every in-flight simulated request is one row addressed by a ReqId — a
// (slot, generation) handle like sim::EventId — in parallel column vectors:
// the request's arrival timestamp plus the owning site and request class.
// Rows are recycled through a LIFO freelist (released rows are cache-warm),
// so a run allocates O(peak in-flight) rows once and then runs
// allocation-free no matter how many requests pass through. Stale handles are detected by the
// generation check, which the ASan reuse/reap tests lean on.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/time.h"

namespace alps::traffic {

/// (generation << 32) | (slot + 1); 0 is "no request".
using ReqId = std::uint64_t;
inline constexpr ReqId kNoRequest = 0;

class RequestTable {
public:
    RequestTable() = default;

    /// Pre-sizes the columns (optional; the table grows on demand).
    void reserve(std::size_t rows);

    /// Creates one request row timestamped at `arrival`.
    [[nodiscard]] ReqId create(std::uint32_t site, std::uint16_t klass,
                               util::TimePoint arrival);

    /// Returns the row to the freelist; `id` (and any copy of it) is stale
    /// afterwards and will fail valid().
    void release(ReqId id);

    /// True iff `id` names a live row (slot in range, generation current).
    [[nodiscard]] bool valid(ReqId id) const;

    // ---- columns (id must be valid) ----
    [[nodiscard]] std::uint32_t site(ReqId id) const { return site_[slot(id)]; }
    [[nodiscard]] std::uint16_t klass(ReqId id) const { return klass_[slot(id)]; }
    [[nodiscard]] util::TimePoint arrival(ReqId id) const {
        return util::TimePoint{util::Duration{arrival_ns_[slot(id)]}};
    }

    // ---- occupancy ----
    [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
    [[nodiscard]] std::size_t peak_in_flight() const { return peak_in_flight_; }
    [[nodiscard]] std::size_t rows() const { return site_.size(); }
    [[nodiscard]] std::uint64_t created() const { return created_; }
    [[nodiscard]] std::uint64_t released() const { return released_; }

private:
    [[nodiscard]] std::size_t slot(ReqId id) const {
        ALPS_GUARD(valid(id));
        return static_cast<std::size_t>((id & 0xffffffffULL) - 1);
    }

    std::vector<std::int64_t> arrival_ns_;
    std::vector<std::uint32_t> site_;
    std::vector<std::uint32_t> gen_;
    std::vector<std::uint16_t> klass_;
    std::vector<std::uint8_t> live_;
    std::vector<std::uint32_t> free_;  ///< LIFO freelist of slots

    std::size_t in_flight_ = 0;
    std::size_t peak_in_flight_ = 0;
    std::uint64_t created_ = 0;
    std::uint64_t released_ = 0;
};

/// Growable power-of-two FIFO ring of request ids — the per-site listen
/// queue. Unlike std::deque it stores ids inline in one contiguous buffer
/// and never allocates after reaching its high-water size.
class IdRing {
public:
    void push(ReqId id);
    /// Pops the oldest id; the ring must be non-empty.
    ReqId pop();
    [[nodiscard]] const ReqId& front() const;
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

private:
    void grow();

    std::vector<ReqId> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

}  // namespace alps::traffic
