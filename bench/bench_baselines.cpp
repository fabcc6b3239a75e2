// Extension bench: user-level ALPS vs the in-kernel proportional-share
// schedulers the paper positions itself against (stride, lottery — the
// "replace the kernel scheduler" class of §1/§6).
//
// All three schedule the Table-2 workloads on the same simulated machine; the
// in-kernel ones are the os::policies zoo policies, given each workload's
// shares as tickets. Accuracy is the mean RMS relative error over
// cycle-length windows. The expected shape: in-kernel stride is near-exact,
// lottery is noisy, and user-level ALPS sits close to stride at a fraction of
// the deployment cost (no kernel changes) while paying a small sampling
// overhead.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "../bench/common.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "os/policies/lottery.h"
#include "os/policies/stride.h"
#include "sim/engine.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/distributions.h"
#include "workload/experiments.h"

using namespace alps;
using os::policies::LotteryPolicy;
using os::policies::StridePolicy;
using workload::ShareModel;

namespace {

/// Runs a kernel-zoo ticket policy on a CPU-bound workload; returns the mean
/// RMS relative error over consecutive windows of one ALPS-cycle length.
/// `window_divisor` shrinks the observation window below one cycle, exposing
/// short-horizon burstiness.
template <typename Policy>
double run_in_kernel(const std::vector<util::Share>& shares, util::Duration quantum,
                     int windows, int window_divisor = 1) {
    sim::Engine engine;
    typename Policy::Config cfg;
    cfg.quantum = quantum;
    auto policy = std::make_unique<Policy>(cfg);
    Policy* pol = policy.get();
    os::Kernel kernel(engine, std::move(policy));

    std::vector<os::Pid> pids;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        std::string name = "w";
        name += std::to_string(i);
        const os::Pid pid =
            kernel.spawn(name, 0, std::make_unique<os::CpuBoundBehavior>());
        pol->set_tickets(kernel.proc(pid), static_cast<double>(shares[i]));
        pids.push_back(pid);
    }

    const util::Duration window =
        quantum * util::total_shares(shares) / window_divisor;
    const auto ideal = util::ideal_fractions(shares);
    std::vector<util::Duration> last(pids.size());
    util::RunningStats err;
    // One warmup window.
    engine.run_until(engine.now() + window);
    for (std::size_t i = 0; i < pids.size(); ++i) last[i] = kernel.cpu_time(pids[i]);
    for (int w = 0; w < windows; ++w) {
        engine.run_until(engine.now() + window);
        std::vector<double> actual(pids.size());
        std::vector<double> target(pids.size());
        double total = 0.0;
        for (std::size_t i = 0; i < pids.size(); ++i) {
            const auto cpu = kernel.cpu_time(pids[i]);
            actual[i] = static_cast<double>((cpu - last[i]).count());
            total += actual[i];
            last[i] = cpu;
        }
        for (std::size_t i = 0; i < pids.size(); ++i) target[i] = total * ideal[i];
        err.add(util::rms_relative_error(actual, target));
    }
    return err.mean();
}

}  // namespace

int main() {
    bench::print_header(
        "Baselines — user-level ALPS vs in-kernel stride and lottery");

    const util::Duration q = util::msec(10);
    const int windows = bench::measure_cycles();

    util::TextTable t({"Workload", "ALPS err %", "ALPS ovh %", "Stride err %",
                       "Lottery err %", "Stride 1/4-wnd %"});
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : {5, 10, 20}) {
            const auto shares = workload::make_shares(model, n);

            workload::SimRunConfig cfg;
            cfg.shares = shares;
            cfg.quantum = q;
            cfg.measure_cycles = windows;
            const auto alps_res = workload::run_cpu_bound_experiment(cfg);

            const double stride_err = run_in_kernel<StridePolicy>(shares, q, windows);
            const double lottery_err = run_in_kernel<LotteryPolicy>(shares, q, windows);
            // Quarter-cycle horizon: burstiness shows here.
            const double stride_short =
                run_in_kernel<StridePolicy>(shares, q, 4 * windows, 4);

            t.add_row({std::string(workload::to_string(model)) + std::to_string(n),
                       util::fmt(100.0 * alps_res.mean_rms_error, 2),
                       util::fmt(100.0 * alps_res.overhead_fraction, 3),
                       util::fmt(100.0 * stride_err, 2),
                       util::fmt(100.0 * lottery_err, 2),
                       util::fmt(100.0 * stride_short, 2)});
        }
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: stride near-exact and smooth; lottery noisy "
                 "(statistical); ALPS close to stride without kernel support, "
                 "paying <1% sampling overhead.\n";
    return 0;
}
