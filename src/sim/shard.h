// Sharded discrete-event engine: conservative-lockstep parallel simulation.
//
// A ShardedEngine owns S independent sim::Engines ("shards"), each with its
// own timing wheel, arena, and hot-callback table. Simulated time advances in
// fixed *epochs* (the quantum / ALPS sampling period): within an epoch every
// shard runs its own events with no synchronization at all; cross-shard
// traffic (migrations, steals, driver wakeups, sampled process state)
// travels over lossless SPSC channels and is delivered only at epoch
// boundaries. The epoch length is the classic conservative-PDES lookahead: a
// message posted during epoch e cannot be due before the boundary that ends
// e, so no shard can ever receive an event in its past.
//
// Per-epoch protocol, per shard (see DESIGN.md §13 for the ordering proof):
//
//   1. produce   — engine.run_until(boundary); event callbacks may post()
//   2. publish   — optional hook; may post() and publish per-shard state
//   3. BARRIER A — all posts of this epoch are now globally visible
//   4. drain     — pop own inboxes in fixed source order 0..S-1, scheduling
//                  each message into the local engine (deterministic seq)
//   5. boundary  — optional hook; may *read* any shard's published state
//                  (happens-before via barrier A) and schedule into the OWN
//                  engine; must not post()
//   6. BARRIER B — keeps epoch e+1 producers from racing this drain
//
// Determinism: each shard's event order is the serial engine's exact
// (time, seq) order over that shard's workload, because seq assignment
// depends only on the shard's own deterministic schedule/drain sequence —
// never on thread timing. The same protocol runs in two modes with
// bit-identical results by construction:
//
//   * threaded — S persistent tasks on a harness::ThreadPool, EpochBarrier
//     at steps 3/6 (real parallelism; TSan-clean);
//   * serial   — the calling thread multiplexes phases across shards in
//     shard order (barriers degenerate to program order). This is also the
//     fallback when no pool (or too small a pool) is supplied.
//
// tests/test_sim_shard_diff.cpp proves the mode- and shard-count-invariance
// differentially against a single serial Engine oracle.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/spsc.h"
#include "util/time.h"

namespace alps::harness {
class ThreadPool;
}  // namespace alps::harness

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::sim {

/// A cross-shard event. Delivered into the destination shard's engine at the
/// first epoch boundary after the posting epoch; `at` must be at or after
/// that boundary (the conservative lookahead contract).
struct ShardMessage {
    TimePoint at{};
    /// Hot kind *in the destination shard's engine* (0 = use `cb`). Hot
    /// kinds are per-engine handles, so senders must use a kind the
    /// destination registered — see sharded_engine_task in
    /// bench/exp_sim_perf.cpp for the pattern.
    Engine::HotKind hot = 0;
    std::uint64_t arg = 0;
    Engine::Callback cb;
};

class ShardedEngine {
public:
    struct Config {
        unsigned shards = 1;
        /// Lockstep epoch (lookahead). Align with the quantum / sampling
        /// period so kernel-level traffic lands exactly on boundaries.
        Duration epoch = util::msec(10);
        /// SPSC ring capacity per shard pair; overflow is lossless but slow.
        std::size_t channel_capacity = 1024;
    };

    /// Boundary/publish hook: (shard index, the boundary time just reached).
    using Hook = std::function<void(unsigned, TimePoint)>;

    enum class RunMode {
        kAuto,      ///< threaded iff a pool with >= shards workers is given
        kSerial,    ///< multiplex on the calling thread
        kThreaded,  ///< always threaded (internal pool if none supplied)
    };

    explicit ShardedEngine(const Config& cfg);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine&) = delete;
    ShardedEngine& operator=(const ShardedEngine&) = delete;

    [[nodiscard]] unsigned shards() const {
        return static_cast<unsigned>(shards_.size());
    }
    [[nodiscard]] Engine& engine(unsigned shard);
    [[nodiscard]] const Engine& engine(unsigned shard) const;

    /// Installs the step-2 hook (runs on the shard's thread; may post()).
    void set_publish_hook(unsigned shard, Hook hook);
    /// Installs the step-5 hook (may read cross-shard state and schedule
    /// into its own engine; must not post()).
    void set_boundary_hook(unsigned shard, Hook hook);

    /// Posts a cross-shard message. Caller contract: invoked on shard
    /// `from`'s thread during its produce/publish phase (steps 1-2), with
    /// `msg.at` at or after the epoch boundary currently being produced
    /// toward. from == to is allowed (a self-channel) so callers with a
    /// computed destination need no special case: the message is delivered
    /// in the shard's own drain phase, same boundary semantics.
    void post(unsigned from, unsigned to, ShardMessage msg);

    /// The epoch boundary shard `shard` is currently producing toward — the
    /// earliest time a post() made now may be delivered at. Valid on the
    /// shard's own thread during its produce/publish phase (the window in
    /// which post() is legal); zero before the first epoch.
    [[nodiscard]] TimePoint produce_boundary(unsigned shard) const {
        ALPS_EXPECT(shard < shards_.size());
        return shards_[shard]->produce_boundary;
    }

    /// Runs all shards in lockstep until every shard clock reaches `t`.
    /// Requires all shard clocks equal on entry (they are equal again on
    /// exit — run_until pins each clock to each boundary). The epoch grid is
    /// anchored at the entry clock. A `pool` smaller than the shard count is
    /// ignored under kAuto (serial fallback) and rejected under kThreaded
    /// unless null (an internal pool is built).
    void run_lockstep(TimePoint t, RunMode mode = RunMode::kAuto,
                      harness::ThreadPool* pool = nullptr);

    struct Stats {
        std::uint64_t epochs = 0;          ///< lockstep epochs completed
        std::uint64_t messages = 0;        ///< cross-shard messages delivered
        std::uint64_t overflows = 0;       ///< messages via the slow path
        std::uint64_t threaded_runs = 0;   ///< run_lockstep calls gone threaded
        std::uint64_t serial_runs = 0;     ///< ... and serial-multiplexed
    };
    [[nodiscard]] Stats stats() const;

    /// Sums of the per-shard engine totals (events fired across all wheels).
    [[nodiscard]] std::uint64_t total_events_fired() const;
    [[nodiscard]] std::uint64_t total_events_scheduled() const;

    /// Registers `<prefix>shards`, `<prefix>epochs`, `<prefix>messages`,
    /// `<prefix>message_overflows`, `<prefix>events_fired` in `reg`.
    void export_metrics(telemetry::MetricsRegistry& reg,
                        const std::string& prefix = "sharded.") const;

private:
    /// Per-shard state, cache-line separated so shard counters and hooks
    /// never false-share under the threaded mode.
    struct alignas(kCacheLine) Shard {
        Engine engine;
        Hook publish;
        Hook boundary;
        /// Set during steps 4-5; post() from there is a protocol violation
        /// (the message would belong to no epoch). Owned by the shard's
        /// thread — barriers order all cross-thread access.
        bool in_drain = false;
        TimePoint produce_boundary{};
        std::uint64_t epochs = 0;
        std::uint64_t drained = 0;
    };

    void run_epoch_phase1(unsigned s, TimePoint boundary);  // steps 1-2
    void run_epoch_phase2(unsigned s, TimePoint boundary);  // steps 4-5
    void deliver(unsigned s, ShardMessage&& msg);

    [[nodiscard]] ShardChannel<ShardMessage>& channel(unsigned from, unsigned to) {
        return *channels_[from * shards_.size() + to];
    }

    Config cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /// Dense S×S matrix; [from][to] with from == to unused (null).
    std::vector<std::unique_ptr<ShardChannel<ShardMessage>>> channels_;
    std::uint64_t threaded_runs_ = 0;
    std::uint64_t serial_runs_ = 0;
};

}  // namespace alps::sim
