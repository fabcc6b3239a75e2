#include "harness/wire.h"

#include <bit>
#include <cstring>

namespace alps::harness::wire {

namespace {

struct Crc32Table {
    std::uint32_t entries[256];
    Crc32Table() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            entries[i] = c;
        }
    }
};

const Crc32Table& crc_table() {
    static const Crc32Table table;
    return table;
}

void put_le32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_le32(const char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    const Crc32Table& table = crc_table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c = table.entries[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

void append_frame(std::string& out, std::string_view payload) {
    put_le32(out, static_cast<std::uint32_t>(payload.size()));
    put_le32(out, crc32(payload.data(), payload.size()));
    out.append(payload);
}

FrameStatus extract_frame(std::string_view data, std::size_t offset,
                          std::string_view& payload, std::size_t& next_offset) {
    payload = {};
    next_offset = offset;
    if (offset > data.size()) return FrameStatus::kCorrupt;
    const std::size_t avail = data.size() - offset;
    if (avail == 0) return FrameStatus::kNeedMore;
    if (avail < kFrameHeaderBytes) return FrameStatus::kNeedMore;
    const std::uint32_t len = get_le32(data.data() + offset);
    const std::uint32_t want_crc = get_le32(data.data() + offset + 4);
    if (len > kMaxFramePayload) return FrameStatus::kCorrupt;
    if (avail - kFrameHeaderBytes < len) return FrameStatus::kNeedMore;
    const char* body = data.data() + offset + kFrameHeaderBytes;
    if (crc32(body, len) != want_crc) return FrameStatus::kCorrupt;
    payload = std::string_view(body, len);
    next_offset = offset + kFrameHeaderBytes + len;
    return FrameStatus::kOk;
}

// ----------------------------------------------------------------- field codecs

void Encoder::u32(std::uint32_t v) { put_le32(buf_, v); }

void Encoder::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
}

bool Decoder::take(void* out, std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
        ok_ = false;
        return false;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
}

bool Decoder::u8(std::uint8_t& v) { return take(&v, 1); }

bool Decoder::u32(std::uint32_t& v) {
    char raw[4];
    if (!take(raw, 4)) return false;
    v = get_le32(raw);
    return true;
}

bool Decoder::u64(std::uint64_t& v) {
    char raw[8];
    if (!take(raw, 8)) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(raw[i])) << (8 * i);
    }
    return true;
}

bool Decoder::f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool Decoder::str(std::string& v) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (!ok_ || data_.size() - pos_ < len) {
        ok_ = false;
        return false;
    }
    v.assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
}

// -------------------------------------------------------------- outcome codec

std::string encode_outcome(std::uint64_t task_index, const TaskOutcome& outcome) {
    Encoder e;
    e.u8(kOutcomeRecord);
    e.u64(task_index);
    e.str(outcome.point);
    e.u64(static_cast<std::uint64_t>(outcome.rep));
    e.u8(outcome.ok ? 1 : 0);
    e.str(outcome.error);
    e.u32(static_cast<std::uint32_t>(outcome.attempts));
    e.str(outcome.disposition);
    e.u32(static_cast<std::uint32_t>(outcome.params.size()));
    for (const auto& [k, v] : outcome.params) {
        e.str(k);
        e.str(v);
    }
    const auto& metrics = outcome.result.metrics();
    e.u32(static_cast<std::uint32_t>(metrics.size()));
    for (const Result::Metric& m : metrics) {
        e.str(m.name);
        e.f64(m.value);
    }
    return e.take();
}

bool decode_outcome(std::string_view payload, std::uint64_t& task_index,
                    TaskOutcome& outcome) {
    Decoder d(payload);
    std::uint8_t type = 0;
    if (!d.u8(type) || type != kOutcomeRecord) return false;
    d.u64(task_index);
    outcome = TaskOutcome{};
    d.str(outcome.point);
    std::uint64_t rep = 0;
    d.u64(rep);
    outcome.rep = static_cast<int>(rep);
    std::uint8_t ok = 0;
    d.u8(ok);
    outcome.ok = ok != 0;
    d.str(outcome.error);
    std::uint32_t attempts = 0;
    d.u32(attempts);
    outcome.attempts = static_cast<int>(attempts);
    d.str(outcome.disposition);
    std::uint32_t n = 0;
    d.u32(n);
    for (std::uint32_t i = 0; d.ok() && i < n; ++i) {
        std::string k;
        std::string v;
        d.str(k);
        d.str(v);
        outcome.params.emplace_back(std::move(k), std::move(v));
    }
    d.u32(n);
    for (std::uint32_t i = 0; d.ok() && i < n; ++i) {
        std::string name;
        double value = 0.0;
        d.str(name);
        d.f64(value);
        outcome.result.metric(std::move(name), value);
    }
    return d.at_end();
}

}  // namespace alps::harness::wire
