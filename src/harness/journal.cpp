#include "harness/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "harness/wire.h"

namespace alps::harness {

namespace {

constexpr char kJournalMagic[8] = {'A', 'L', 'P', 'S', 'J', 'R', 'N', '1'};
// Bump on any change to the header or outcome record layout: load() treats
// another version's journal as unreadable (a fresh run), never misparses it.
constexpr std::uint32_t kJournalVersion = 2;

std::string encode_header(const JournalHeader& h) {
    wire::Encoder e;
    e.u8(wire::kHeaderRecord);
    e.u32(kJournalVersion);
    e.str(h.experiment);
    e.u64(h.seed);
    e.u8(h.full_scale ? 1 : 0);
    e.str(h.kernel_policy);
    e.u64(h.task_count);
    return e.take();
}

bool decode_header(std::string_view payload, JournalHeader& h) {
    wire::Decoder d(payload);
    std::uint8_t type = 0;
    std::uint32_t version = 0;
    if (!d.u8(type) || type != wire::kHeaderRecord) return false;
    if (!d.u32(version) || version != kJournalVersion) return false;
    d.str(h.experiment);
    d.u64(h.seed);
    std::uint8_t full = 0;
    d.u8(full);
    h.full_scale = full != 0;
    d.str(h.kernel_policy);
    d.u64(h.task_count);
    return d.at_end();
}

bool write_all_fd(int fd, const char* data, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

}  // namespace

SweepJournal::~SweepJournal() { close(); }

std::string SweepJournal::path_for(const std::string& dir, const std::string& experiment) {
    return (std::filesystem::path(dir) / ("BENCH_" + experiment + ".journal")).string();
}

LoadedJournal SweepJournal::load(const std::string& path) {
    LoadedJournal out;
    std::ifstream in(path, std::ios::binary);
    if (!in) return out;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string data = ss.str();

    if (data.size() < sizeof(kJournalMagic) ||
        std::memcmp(data.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
        out.discarded_bytes = data.size();
        return out;
    }
    std::size_t offset = sizeof(kJournalMagic);

    std::string_view payload;
    std::size_t next = 0;
    if (wire::extract_frame(data, offset, payload, next) != wire::FrameStatus::kOk ||
        !decode_header(payload, out.header)) {
        // An unreadable header means nothing in the file can be trusted.
        out.discarded_bytes = data.size();
        return out;
    }
    out.found = true;
    offset = next;
    out.valid_bytes = offset;

    for (;;) {
        const wire::FrameStatus st = wire::extract_frame(data, offset, payload, next);
        if (st != wire::FrameStatus::kOk) break;  // torn tail or corruption: stop
        std::uint64_t index = 0;
        TaskOutcome outcome;
        if (!wire::decode_outcome(payload, index, outcome)) break;
        out.outcomes[index] = std::move(outcome);
        offset = next;
        out.valid_bytes = offset;
    }
    out.discarded_bytes = data.size() - out.valid_bytes;
    return out;
}

void SweepJournal::open(const std::string& path, const JournalHeader& header,
                        std::size_t keep_bytes) {
    close();
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
        throw std::runtime_error("journal: cannot open " + path + ": " +
                                 std::strerror(errno));
    }
    // Drop everything past the validated prefix (or everything, for a fresh
    // run) so corrupt bytes can never sit between valid records.
    if (::ftruncate(fd, static_cast<off_t>(keep_bytes)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("journal: cannot truncate " + path + ": " +
                                 std::strerror(err));
    }
    if (keep_bytes == 0) {
        std::string prefix(kJournalMagic, sizeof(kJournalMagic));
        wire::append_frame(prefix, encode_header(header));
        if (!write_all_fd(fd, prefix.data(), prefix.size())) {
            const int err = errno;
            ::close(fd);
            throw std::runtime_error("journal: cannot write header to " + path + ": " +
                                     std::strerror(err));
        }
    }
    ::fsync(fd);
    fd_ = fd;
    warned_ = false;
}

void SweepJournal::append(std::uint64_t task_index, const TaskOutcome& outcome) {
    std::scoped_lock lock(mu_);
    if (fd_ < 0) return;
    std::string frame;
    wire::append_frame(frame, wire::encode_outcome(task_index, outcome));
    // One write() per record: a kill -9 can tear at most the final frame,
    // which load() then rejects by checksum. fsync makes the record durable
    // before the runner reports the task done.
    if (!write_all_fd(fd_, frame.data(), frame.size()) || ::fsync(fd_) != 0) {
        if (!warned_) {
            std::cerr << "warning: journal append failed (" << std::strerror(errno)
                      << "); journaling disabled for the rest of this sweep\n";
            warned_ = true;
        }
        ::close(fd_);
        fd_ = -1;
    }
}

void SweepJournal::close() {
    std::scoped_lock lock(mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

}  // namespace alps::harness
