// Run-queue building blocks, intrusive in the Proc.
//
// Three structures, none of which keeps a per-process side table:
//   * IntrusiveFifo — a self-counting doubly-linked FIFO threaded through
//     the Proc's rq_prev/rq_next links, like the p_forw/p_back TAILQs of
//     4.4BSD's qs[]. BsdPolicy's 32 run queues are IntrusiveFifos, and so is
//     lottery's ticket pool.
//   * WakeBoostFifo — the wake-boost queue the three zoo policies service
//     ahead of their own order (freshly woken processes hold kernel sleep
//     priority until dispatched — see Proc::wake_boost). It owns the
//     kOnBoostQueue membership mark.
//   * IndexedProcHeap — a binary min-heap over (key, pid) that keeps each
//     entry's slot in Proc::heap_pos: O(log n) push/erase/update with O(1)
//     membership tests, and a strict (key, pid) total order so extraction
//     is fully deterministic.
//
// Membership convention shared by the zoo policies (documented in DESIGN.md
// §8): Proc::rq_index is -1 when the process is on neither structure,
// kOnPrimary when it is on the policy's primary structure (heap or ticket
// FIFO), and kOnBoostQueue while it waits on the wake-boost FIFO. The BSD
// policy instead stores its run-queue index there; either way rq_index < 0
// means "not queued", which is the invariant the Kernel relies on.
#pragma once

#include <cstddef>
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
class IntrusiveFifo {
public:
    [[nodiscard]] bool empty() const { return head_ == nullptr; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] Proc* head() const { return head_; }
    [[nodiscard]] Proc* tail() const { return tail_; }

    void push_back(Proc& p) {
        p.rq_next = nullptr;
        p.rq_prev = tail_;
        if (tail_ != nullptr) {
            tail_->rq_next = &p;
        } else {
            head_ = &p;
        }
        tail_ = &p;
        ++size_;
    }

    void remove(Proc& p) {
        if (p.rq_prev != nullptr) {
            p.rq_prev->rq_next = p.rq_next;
        } else {
            head_ = p.rq_next;
        }
        if (p.rq_next != nullptr) {
            p.rq_next->rq_prev = p.rq_prev;
        } else {
            tail_ = p.rq_prev;
        }
        p.rq_prev = nullptr;
        p.rq_next = nullptr;
        --size_;
    }

private:
    Proc* head_ = nullptr;
    Proc* tail_ = nullptr;
    std::size_t size_ = 0;
};

/// The zoo policies' wake-boost queue: boosted processes wait here, FIFO,
/// and peek()/pop() serve its head before any draw, pass or vruntime order,
/// mirroring BsdPolicy's kernel sleep-priority queue.
class WakeBoostFifo {
public:
    [[nodiscard]] std::size_t size() const { return fifo_.size(); }
    [[nodiscard]] Proc* head() const { return fifo_.head(); }

    /// Queues `p` here if it holds the wake boost; false (and `p`
    /// untouched) otherwise.
    bool offer(Proc& p) {
        if (!p.wake_boost) return false;
        fifo_.push_back(p);
        p.rq_index = kOnBoostQueue;
        return true;
    }

    /// Unlinks `p` if it waits here; false (and `p` untouched) otherwise.
    bool take(Proc& p) {
        if (p.rq_index != kOnBoostQueue) return false;
        fifo_.remove(p);
        p.rq_index = -1;
        return true;
    }

private:
    IntrusiveFifo fifo_;
};

/// Binary min-heap over (key, pid) whose entries' slots live in
/// Proc::heap_pos. Keys are policy virtual times (stride pass values, CFS
/// vruntimes); the pid tiebreak makes the order strict and extraction
/// deterministic.
class IndexedProcHeap {
public:
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const { return heap_.size(); }

    /// A process is on at most one heap, so its slot says whether it is on
    /// this one.
    [[nodiscard]] static bool contains(const Proc& p) { return p.heap_pos >= 0; }

    /// The minimum-key process (nullptr when empty). Stable until the heap
    /// changes, as SchedPolicy::peek requires.
    [[nodiscard]] Proc* min() const { return heap_.empty() ? nullptr : heap_[0].p; }
    [[nodiscard]] double min_key() const {
        ALPS_EXPECT(!heap_.empty());
        return heap_[0].key;
    }

    void push(Proc& p, double key) {
        ALPS_EXPECT(!contains(p));
        heap_.push_back({key, &p});
        sift_up(heap_.size() - 1);
    }

    void erase(Proc& p) {
        ALPS_EXPECT(contains(p));
        const auto hole = static_cast<std::size_t>(p.heap_pos);
        p.heap_pos = -1;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (hole < heap_.size()) {
            heap_[hole] = last;
            last.p->heap_pos = static_cast<std::int32_t>(hole);
            // The displaced entry may need to move either way.
            sift_down(hole);
            sift_up(static_cast<std::size_t>(last.p->heap_pos));
        }
    }

    void update_key(Proc& p, double key) {
        ALPS_EXPECT(contains(p));
        const auto i = static_cast<std::size_t>(p.heap_pos);
        heap_[i].key = key;
        sift_down(i);
        sift_up(static_cast<std::size_t>(p.heap_pos));
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
        e.p->heap_pos = static_cast<std::int32_t>(i);
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
};

}  // namespace alps::os::policies
