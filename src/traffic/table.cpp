#include "traffic/table.h"

#include <algorithm>

namespace alps::traffic {

namespace {
constexpr ReqId pack(std::size_t slot, std::uint32_t gen) {
    return (static_cast<ReqId>(gen) << 32) | (static_cast<ReqId>(slot) + 1);
}
}  // namespace

void RequestTable::reserve(std::size_t rows) {
    arrival_ns_.reserve(rows);
    site_.reserve(rows);
    gen_.reserve(rows);
    klass_.reserve(rows);
    live_.reserve(rows);
    free_.reserve(rows);
}

ReqId RequestTable::create(std::uint32_t site, std::uint16_t klass,
                           util::TimePoint arrival) {
    std::size_t s;
    if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = site_.size();
        ALPS_EXPECT(s < 0xffffffffULL);  // slot must fit the id's low half
        arrival_ns_.push_back(0);
        site_.push_back(0);
        gen_.push_back(0);
        klass_.push_back(0);
        live_.push_back(0);
    }
    arrival_ns_[s] = arrival.since_epoch.count();
    site_[s] = site;
    klass_[s] = klass;
    live_[s] = 1;
    ++in_flight_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    ++created_;
    return pack(s, gen_[s]);
}

void RequestTable::release(ReqId id) {
    const std::size_t s = slot(id);  // guards validity
    live_[s] = 0;
    ++gen_[s];  // invalidate every outstanding copy of the handle
    free_.push_back(static_cast<std::uint32_t>(s));
    --in_flight_;
    ++released_;
}

bool RequestTable::valid(ReqId id) const {
    if (id == kNoRequest) return false;
    const std::uint64_t low = id & 0xffffffffULL;
    if (low == 0 || low > site_.size()) return false;
    const std::size_t s = static_cast<std::size_t>(low - 1);
    return live_[s] != 0 && gen_[s] == static_cast<std::uint32_t>(id >> 32);
}

// ----------------------------------------------------------------------------
// IdRing

void IdRing::push(ReqId id) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = id;
    ++count_;
}

ReqId IdRing::pop() {
    ALPS_EXPECT(count_ > 0);
    const ReqId id = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return id;
}

const ReqId& IdRing::front() const {
    ALPS_EXPECT(count_ > 0);
    return buf_[head_];
}

void IdRing::grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<ReqId> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
        next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
}

}  // namespace alps::traffic
