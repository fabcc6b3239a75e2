// Large-population probe: eight uniprocessor kernels on one sim::Engine split
// ALPS_SCALE_PROCS compute-bound processes evenly and run 100 ms of simulated
// time. The default population (64k) keeps ctest fast; the EXPERIMENTS.md
// million-process row is this same test re-run with ALPS_SCALE_PROCS=1000000.
// What the probe guards:
//   * spawn stays linear (arena slabs, no quadratic surprise hiding behind a
//     big population), and
//   * accounting stays exact: total consumed CPU == kernels x simulated wall
//     (every domain is saturated, so capacity accounting has no slack).
#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/time.h"

namespace alps {
namespace {

/// ALPS_SCALE_PROCS as a positive whole-string count. Bare strtoull would read
/// "-1" as 2^64 - 1 and stop quietly at "12abc".
bool parse_proc_count(const char* v, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(v, &end, 10);
    return std::isdigit(static_cast<unsigned char>(v[0])) != 0 && *end == '\0' &&
           errno != ERANGE && out > 0;
}

TEST(ScaleProbe, LargeProcPopulation) {
    std::uint64_t total_procs = 65'536;
    if (const char* env = std::getenv("ALPS_SCALE_PROCS")) {
        if (!parse_proc_count(env, total_procs)) {
            FAIL() << "ALPS_SCALE_PROCS: not a positive process count: \"" << env << "\"";
        }
    }
    constexpr unsigned kKernels = 8;
    const util::Duration sim_span = util::msec(100);

    sim::Engine engine;
    std::vector<std::unique_ptr<os::Kernel>> kernels;
    kernels.reserve(kKernels);
    std::vector<std::vector<os::Pid>> pids(kKernels);
    for (unsigned k = 0; k < kKernels; ++k) {
        kernels.push_back(std::make_unique<os::Kernel>(engine, nullptr,
                                                       os::KernelConfig{.ncpus = 1}));
        const std::uint64_t n =
            total_procs / kKernels + (k < total_procs % kKernels ? 1 : 0);
        pids[k].reserve(n);
        // One shared name: at a million processes the per-proc string is the
        // dominant spawn cost, and nothing in the probe reads names back.
        for (std::uint64_t i = 0; i < n; ++i) {
            pids[k].push_back(kernels[k]->spawn(
                "w", /*uid=*/100, std::make_unique<os::CpuBoundBehavior>()));
        }
    }

    engine.run_until(sim::TimePoint{} + sim_span);

    // Every uniprocessor domain is saturated with compute-bound work, so the
    // population's total CPU must equal the machine's exact capacity.
    util::Duration consumed{0};
    std::uint64_t alive = 0;
    for (unsigned k = 0; k < kKernels; ++k) {
        for (const os::Pid pid : pids[k]) {
            const os::Kernel::SampleView v = kernels[k]->sample(pid);
            consumed += v.cpu_time;
            alive += v.alive ? 1 : 0;
        }
    }
    EXPECT_EQ(alive, total_procs);
    EXPECT_EQ(consumed, sim_span * static_cast<std::int64_t>(kKernels));
}

}  // namespace
}  // namespace alps
