// Shared run-queue building blocks for the kernel policy zoo.
//
// Two structures, both in the spirit of the PR-3 O(1) substrate:
//   * IntrusiveFifo — a doubly-linked FIFO threaded through the Proc's
//     rq_prev/rq_next links (the same fields the 4.4BSD policy uses for its
//     qs[] TAILQs). The zoo policies use one as the wake-boost queue (freshly
//     woken processes hold kernel sleep priority until dispatched — see
//     Proc::wake_boost) and, for lottery, as the ticket pool itself.
//   * IndexedProcHeap — a binary min-heap over (key, pid) with a pid-indexed
//     position table, the same indexed-heap idiom as the PR-3 timer heap:
//     O(log n) push/erase/update with O(1) membership tests, and a strict
//     (key, pid) total order so extraction is fully deterministic.
//
// Membership convention shared by the zoo policies (documented in DESIGN.md
// §8): Proc::rq_index is -1 when the process is on neither structure,
// kOnPrimary when it is on the policy's primary structure (heap or ticket
// FIFO), and kOnBoostQueue while it waits on the wake-boost FIFO. The BSD
// policy instead stores its run-queue index there; either way rq_index < 0
// means "not queued", which is the invariant the Kernel relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "os/proc.h"
#include "util/assert.h"

namespace alps::os::policies {

/// Proc::rq_index values used by the zoo policies (any value >= 0 reads as
/// "queued" to the rest of the kernel).
inline constexpr int kOnPrimary = 0;
inline constexpr int kOnBoostQueue = 1;

/// Intrusive doubly-linked FIFO through Proc::rq_prev/rq_next. The caller
/// owns the rq_index bookkeeping (these helpers only touch the links).
struct IntrusiveFifo {
    Proc* head = nullptr;
    Proc* tail = nullptr;

    [[nodiscard]] bool empty() const { return head == nullptr; }

    void push_back(Proc& p) {
        p.rq_next = nullptr;
        p.rq_prev = tail;
        if (tail != nullptr) {
            tail->rq_next = &p;
        } else {
            head = &p;
        }
        tail = &p;
    }

    void remove(Proc& p) {
        if (p.rq_prev != nullptr) {
            p.rq_prev->rq_next = p.rq_next;
        } else {
            head = p.rq_next;
        }
        if (p.rq_next != nullptr) {
            p.rq_next->rq_prev = p.rq_prev;
        } else {
            tail = p.rq_prev;
        }
        p.rq_prev = nullptr;
        p.rq_next = nullptr;
    }
};

/// Binary min-heap over (key, pid) with a pid-indexed position table.
/// Keys are policy virtual times (stride pass values, CFS vruntimes); the
/// pid tiebreak makes the order strict and extraction deterministic.
class IndexedProcHeap {
public:
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    [[nodiscard]] bool contains(const Proc& p) const {
        const auto pid = static_cast<std::size_t>(p.pid);
        return pid < pos_.size() && pos_[pid] >= 0;
    }

    /// The minimum-key process (nullptr when empty). Stable until the heap
    /// changes, as SchedPolicy::peek requires.
    [[nodiscard]] Proc* min() const { return heap_.empty() ? nullptr : heap_[0].p; }
    [[nodiscard]] double min_key() const {
        ALPS_EXPECT(!heap_.empty());
        return heap_[0].key;
    }

    void push(Proc& p, double key) {
        ALPS_EXPECT(!contains(p));
        const auto pid = static_cast<std::size_t>(p.pid);
        if (pid >= pos_.size()) pos_.resize(pid + 1, -1);
        heap_.push_back({key, &p});
        pos_[pid] = static_cast<std::int32_t>(heap_.size() - 1);
        sift_up(heap_.size() - 1);
    }

    void erase(Proc& p) {
        ALPS_EXPECT(contains(p));
        const auto hole = static_cast<std::size_t>(pos_[static_cast<std::size_t>(p.pid)]);
        pos_[static_cast<std::size_t>(p.pid)] = -1;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (hole < heap_.size()) {
            heap_[hole] = last;
            pos_[static_cast<std::size_t>(last.p->pid)] = static_cast<std::int32_t>(hole);
            // The displaced entry may need to move either way.
            sift_down(hole);
            sift_up(static_cast<std::size_t>(pos_[static_cast<std::size_t>(last.p->pid)]));
        }
    }

    void update_key(Proc& p, double key) {
        ALPS_EXPECT(contains(p));
        const auto i = static_cast<std::size_t>(pos_[static_cast<std::size_t>(p.pid)]);
        heap_[i].key = key;
        sift_down(i);
        sift_up(static_cast<std::size_t>(pos_[static_cast<std::size_t>(p.pid)]));
    }

    [[nodiscard]] double key_of(const Proc& p) const {
        ALPS_EXPECT(contains(p));
        return heap_[static_cast<std::size_t>(pos_[static_cast<std::size_t>(p.pid)])].key;
    }

private:
    struct Entry {
        double key = 0.0;
        Proc* p = nullptr;
    };

    [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
        if (a.key != b.key) return a.key < b.key;
        return a.p->pid < b.p->pid;
    }

    void place(std::size_t i, const Entry& e) {
        heap_[i] = e;
        pos_[static_cast<std::size_t>(e.p->pid)] = static_cast<std::int32_t>(i);
    }

    void sift_up(std::size_t i) {
        const Entry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(e, heap_[parent])) break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, e);
    }

    void sift_down(std::size_t i) {
        const Entry e = heap_[i];
        const std::size_t n = heap_.size();
        while (true) {
            std::size_t best = i;
            const std::size_t l = 2 * i + 1;
            const std::size_t r = 2 * i + 2;
            const Entry* best_e = &e;
            if (l < n && before(heap_[l], *best_e)) {
                best = l;
                best_e = &heap_[l];
            }
            if (r < n && before(heap_[r], *best_e)) {
                best = r;
            }
            if (best == i) break;
            const Entry moved = heap_[best];
            place(i, moved);
            i = best;
        }
        place(i, e);
    }

    std::vector<Entry> heap_;
    std::vector<std::int32_t> pos_;  ///< pid-indexed; -1 = absent
};

}  // namespace alps::os::policies
