// Reproduces Table 1: the cost of ALPS's primary operations, measured on the
// real host OS (google-benchmark).
//
//   paper (FreeBSD 4.8, 2.2 GHz P4):   receive a timer event   9.02 us
//                                      measure CPU of n procs  1.1 + 17.4 n us
//                                      signal a process        0.97 us
//
// On a modern Linux kernel the absolute numbers are smaller; the structure
// (measurement cost linear in n and dominant; timer and signal costs flat)
// is the reproduction target — it is what motivates the §2.3 optimization.
#include <benchmark/benchmark.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "posix/host.h"
#include "posix/spawn.h"

namespace {

// Children for the measurement/signal benchmarks: alive but nearly idle
// (1 ms of CPU per second) so they do not perturb the timings.
alps::posix::ChildSet& children() {
    static alps::posix::ChildSet set;
    return set;
}

pid_t child_at(std::size_t i) {
    while (children().pids().size() <= i) {
        (void)children().add_phased(alps::util::msec(1), alps::util::sec(1));
    }
    return children().pids()[i];
}

void BM_ReceiveTimerEvent(benchmark::State& state) {
    const int fd = ::timerfd_create(CLOCK_MONOTONIC, 0);
    if (fd < 0) {
        state.SkipWithError("timerfd_create failed");
        return;
    }
    for (auto _ : state) {
        itimerspec its{};
        its.it_value.tv_nsec = 1;  // expires immediately
        ::timerfd_settime(fd, 0, &its, nullptr);
        std::uint64_t expirations = 0;
        // Blocking read returns once the timer fired.
        benchmark::DoNotOptimize(::read(fd, &expirations, sizeof expirations));
    }
    ::close(fd);
}
BENCHMARK(BM_ReceiveTimerEvent);

void BM_MeasureCpuTimeOfNProcesses(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    alps::posix::PosixProcessHost host;
    std::vector<pid_t> pids;
    for (std::size_t i = 0; i < n; ++i) pids.push_back(child_at(i));
    for (auto _ : state) {
        for (const pid_t pid : pids) {
            benchmark::DoNotOptimize(host.read_pid(pid));
        }
    }
    state.counters["us_per_proc"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * static_cast<double>(n),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MeasureCpuTimeOfNProcesses)->Arg(1)->Arg(2)->Arg(5)->Arg(10)->Arg(25)->Arg(50);

void BM_SignalAProcess(benchmark::State& state) {
    alps::posix::PosixProcessHost host;
    const pid_t pid = child_at(0);
    for (auto _ : state) {
        // SIGCONT to a running process: delivered and discarded — the same
        // kernel path ALPS pays for suspend/resume without perturbing the
        // child.
        benchmark::DoNotOptimize(host.cont_pid(pid));
    }
}
BENCHMARK(BM_SignalAProcess);

void BM_SuspendResumePair(benchmark::State& state) {
    alps::posix::PosixProcessHost host;
    const pid_t pid = child_at(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(host.stop_pid(pid));
        benchmark::DoNotOptimize(host.cont_pid(pid));
    }
    host.cont_pid(pid);
}
BENCHMARK(BM_SuspendResumePair);

}  // namespace

BENCHMARK_MAIN();
