// Differential schedule-fingerprint guard for the per-CPU run-queue kernel.
//
// The refactor from one global run queue to per-CPU queues (scheduling
// domains) must be *semantically invisible* in its default shared-queue
// mode: every seeded run has to reproduce the exact schedule of the
// pre-refactor kernel. This test pins that schedule — which pid runs on
// which CPU at every simulated millisecond, plus end-state accounting — as
// an FNV-1a fingerprint per (policy, ncpus, workload) cell, compared against
// a fixture generated before the refactor (the test_sim_wheel_diff.cpp /
// test_sim_replay.cpp pattern, applied to the kernel layer).
//
// Two scripted workloads per cell keep the fingerprint scheduling-rich:
// compute hogs across nice levels, phased I/O (wake-boost preemption),
// a finite job that exits, SIGSTOP/SIGCONT churn, a mid-run spawn, and a
// kill + reap. All four zoo policies run at ncpus 1, 2, and 4.
//
// Regenerate (only when the *intended* schedule changes, never to paper
// over an accidental divergence):
//   ALPS_REGEN_GOLDEN=1 ./test_os --gtest_filter='OsSmpDiff.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/time.h"

namespace alps::os {
namespace {

using util::TimePoint;

#ifndef ALPS_GOLDEN_DIR
#error "ALPS_GOLDEN_DIR must point at tests/golden"
#endif

std::string golden_path() {
    return std::string(ALPS_GOLDEN_DIR) + "/os_smp_schedule.golden";
}

/// FNV-1a over a stream of 64-bit words (byte-at-a-time, endian-fixed).
struct Fingerprint {
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

/// Runs one scripted scenario and fingerprints its schedule.
std::uint64_t schedule_fingerprint(const std::string& policy, int ncpus,
                                   int wl, bool percpu = false) {
    sim::Engine engine;
    KernelConfig cfg;
    cfg.ncpus = ncpus;
    cfg.policy = policy;
    cfg.percpu_queues = percpu;
    // Workload 1 also models delayed SIGSTOP delivery (the hardclock grid).
    cfg.stop_latency_grid = wl == 1 ? util::msec(10) : util::Duration{0};
    Kernel kernel(engine, nullptr, cfg);

    std::vector<Pid> pids;
    auto hog = [&](int nice) {
        std::string name = "p";
        name += std::to_string(pids.size());
        pids.push_back(
            kernel.spawn(name, /*uid=*/100, std::make_unique<CpuBoundBehavior>(), nice));
    };
    if (wl == 0) {
        // Compute-heavy: oversubscribed hogs over three nice levels, one
        // finite job that exits mid-run, one I/O process.
        for (int i = 0; i < 2 * ncpus + 1; ++i) hog(i % 3);
        pids.push_back(kernel.spawn(
            "fin", /*uid=*/101, std::make_unique<FiniteCpuBehavior>(util::msec(50))));
        pids.push_back(kernel.spawn(
            "io", /*uid=*/101,
            std::make_unique<PhasedIoBehavior>(util::msec(3), util::msec(7))));
    } else {
        // I/O-heavy: one hog per CPU plus three staggered duty cycles.
        for (int i = 0; i < ncpus; ++i) hog(0);
        for (int i = 0; i < 3; ++i) {
            pids.push_back(kernel.spawn(
                "io" + std::to_string(i), /*uid=*/102,
                std::make_unique<PhasedIoBehavior>(
                    util::msec(2 + 3 * i), util::msec(11 - 2 * i),
                    util::msec(5 * i))));
        }
    }
    // Signal churn against the same schedule in every cell: stop/cont the
    // second process, spawn a late arrival, kill + reap the first.
    engine.schedule_at(TimePoint{} + util::msec(61),
                       [&] { kernel.send_signal(pids[1], Signal::kStop); });
    engine.schedule_at(TimePoint{} + util::msec(101), [&] { hog(1); });
    engine.schedule_at(TimePoint{} + util::msec(167),
                       [&] { kernel.send_signal(pids[1], Signal::kCont); });
    engine.schedule_at(TimePoint{} + util::msec(251), [&] {
        kernel.send_signal(pids[0], Signal::kKill);
        kernel.reap(pids[0]);
    });

    Fingerprint fp;
    constexpr int kSamples = 400;  // 1 ms grid over the whole run
    for (int t = 1; t <= kSamples; ++t) {
        engine.schedule_at(TimePoint{} + util::msec(t), [&fp, &kernel, ncpus] {
            for (int c = 0; c < ncpus; ++c) {
                fp.mix_i64(kernel.running_pid_on(c));
            }
        });
    }
    engine.run_until(TimePoint{} + util::msec(kSamples) + util::usec(1));

    fp.mix(kernel.context_switches());
    for (const Pid pid : pids) {
        if (!kernel.exists(pid)) {
            fp.mix(0xdeadull);  // reaped
            continue;
        }
        const Proc& p = kernel.proc(pid);
        fp.mix_i64(p.cpu_consumed.count());
        fp.mix(static_cast<std::uint64_t>(p.dispatches));
        fp.mix(static_cast<std::uint64_t>(p.state));
    }
    return fp.h;
}

std::string hex(std::uint64_t v) {
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << v;
    return out.str();
}

const char* const kPolicies[] = {"bsd", "lottery", "stride", "cfs"};
const int kNcpus[] = {1, 2, 4};

TEST(OsSmpDiff, ScheduleMatchesGolden) {
    std::vector<std::pair<std::string, std::string>> cells;
    for (const char* policy : kPolicies) {
        for (const int ncpus : kNcpus) {
            for (int wl = 0; wl < 2; ++wl) {
                std::ostringstream key;
                key << "policy=" << policy << " ncpus=" << ncpus
                    << " wl=" << wl;
                cells.emplace_back(key.str(),
                                   hex(schedule_fingerprint(policy, ncpus, wl)));
            }
        }
    }

    if (std::getenv("ALPS_REGEN_GOLDEN") != nullptr) {
        std::ofstream f(golden_path(), std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << golden_path();
        for (const auto& [key, fpr] : cells) f << key << " fp=" << fpr << "\n";
        GTEST_SKIP() << "regenerated " << golden_path();
    }

    std::ifstream f(golden_path(), std::ios::binary);
    ASSERT_TRUE(f.good()) << "missing fixture " << golden_path()
                          << " (run with ALPS_REGEN_GOLDEN=1 to create)";
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(f, line)) {
        const auto at = line.rfind(" fp=");
        ASSERT_NE(at, std::string::npos) << "malformed golden line: " << line;
        golden[line.substr(0, at)] = line.substr(at + 4);
    }
    for (const auto& [key, fpr] : cells) {
        ASSERT_TRUE(golden.count(key)) << "no golden cell for " << key;
        EXPECT_EQ(golden[key], fpr)
            << key << ": schedule diverged from the pre-refactor kernel";
    }
}

/// The fingerprint must be stable within one process run (no global state,
/// no address-order dependence) before it can mean anything across builds.
TEST(OsSmpDiff, FingerprintStableAcrossRepeats) {
    EXPECT_EQ(schedule_fingerprint("bsd", 2, 0),
              schedule_fingerprint("bsd", 2, 0));
    EXPECT_EQ(schedule_fingerprint("lottery", 4, 1),
              schedule_fingerprint("lottery", 4, 1));
}

/// With one CPU there is exactly one domain, no steal traffic, and no
/// rebalance candidates, so the per-CPU-queue kernel must reproduce the
/// shared-queue schedule bit-for-bit — the strongest equivalence the
/// refactor admits (at ncpus > 1 per-CPU affinity legitimately schedules
/// differently from a shared queue).
TEST(OsSmpDiff, PercpuSingleCpuMatchesSharedQueue) {
    for (const char* policy : kPolicies) {
        for (int wl = 0; wl < 2; ++wl) {
            EXPECT_EQ(schedule_fingerprint(policy, 1, wl, /*percpu=*/false),
                      schedule_fingerprint(policy, 1, wl, /*percpu=*/true))
                << "policy=" << policy << " wl=" << wl;
        }
    }
}

/// Per-CPU mode is deterministic at every core count, like the shared queue.
TEST(OsSmpDiff, PercpuFingerprintDeterministic) {
    for (const char* policy : kPolicies) {
        EXPECT_EQ(schedule_fingerprint(policy, 4, 0, /*percpu=*/true),
                  schedule_fingerprint(policy, 4, 0, /*percpu=*/true))
            << policy;
    }
}

}  // namespace
}  // namespace alps::os
