// ALPS's mechanisms against their alternatives, on the Table-2 workloads, as
// one harness experiment.
//
// A base arm — every Table-2 workload at Q = 10/20/40 ms, lazy measurement,
// instant stops — runs once and is the "plain ALPS" column of every study:
//
//  * §2.3 ablation: the same cells with eager measurement. The paper: "this
//    optimization reduces overhead by a factor of at least 1.8 and as much as
//    5.9, for the workloads that we tested."
//  * Signal delivery: SIGSTOP acted on at the next 10 ms hardclock tick. The
//    hypothesis tested (and largely refuted): that this explains why our
//    skewed-workload error shrinks with the quantum while the paper's grows.
//  * Kernel sensitivity: §2.1 bets that ALPS can "defer fine-grained
//    time-slicing to the kernel", so accuracy should not depend on the
//    4.4BSD round-robin slice (20-800 ms; the paper's host used 100 ms).
//  * Adaptive quantum: a 0.2% overhead budget vs fixed 10/40 ms quanta.
//  * In-kernel baselines: the os::policies stride and lottery schedulers,
//    given each workload's shares as tickets — the "replace the kernel
//    scheduler" class of §1/§6. Accuracy is the mean RMS relative error over
//    cycle-length windows.
#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/experiments.h"
#include "alps/sim_adapter.h"
#include "harness/registry.h"
#include "metrics/exact_cycle_log.h"
#include "os/behaviors.h"
#include "os/bsd_policy.h"
#include "os/kernel.h"
#include "os/policies/lottery.h"
#include "os/policies/stride.h"
#include "sim/engine.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/experiments.h"

namespace alps::bench {
namespace {

using os::policies::LotteryPolicy;
using os::policies::StridePolicy;
using workload::ShareModel;
using Shares = std::vector<util::Share>;

constexpr int kProcCounts[] = {5, 10, 20};
constexpr int kQuantaMs[] = {10, 20, 40};
constexpr ShareModel kSliceModels[] = {ShareModel::kLinear, ShareModel::kEqual,
                                       ShareModel::kSkewed};
constexpr int kSliceProcs = 10;
constexpr int kSlicesMs[] = {20, 50, 100, 200, 400, 800};
/// AdaptiveIntegration.ConvergesToOverheadBudget's band around the 0.2%
/// budget, in percent.
constexpr double kAdaptiveBandPct[] = {0.08, 0.35};

bool in_signal_study(ShareModel model) { return model != ShareModel::kEqual; }
bool in_adaptive_study(int n) { return n != 10; }

/// "<study>/<workload>" or "<study>/<workload>/<knob><value>".
std::string point(const char* study, ShareModel model, int n, const char* knob = "",
                  int value = 0) {
    std::string p = study;
    p += "/";
    p += workload_name(model, n);
    if (*knob != '\0') {
        p += "/";
        p += knob;
        p += std::to_string(value);
    }
    return p;
}

using Run = std::function<harness::Result(const Shares&, bool full)>;

/// A task on one Table-2 workload; `knob`/`value` name its extra parameter.
harness::Task workload_task(const char* study, ShareModel model, int n, const char* knob,
                            int value, Run run) {
    std::vector<std::pair<std::string, std::string>> params{
        {"model", std::string(workload::to_string(model))}, {"n", std::to_string(n)}};
    if (*knob != '\0') params.emplace_back(knob, std::to_string(value));
    return {
        .point = point(study, model, n, knob, value),
        .params = std::move(params),
        .fn = [run = std::move(run), shares = workload::make_shares(model, n)](
                  const harness::TaskContext& ctx) {
            return run(shares, ctx.full_scale);
        },
    };
}

/// The plain ALPS run (run_cpu_bound_experiment) with its defaults except
/// the measurement mode and the stop-delivery grid.
harness::Result run_alps(const Shares& shares, int quantum_ms, bool lazy,
                         int stop_grid_ms, bool full) {
    workload::SimRunConfig cfg;
    cfg.shares = shares;
    cfg.quantum = util::msec(quantum_ms);
    cfg.measure_cycles = measure_cycles(full);
    cfg.lazy_measurement = lazy;
    cfg.stop_latency_grid = util::msec(stop_grid_ms);
    const auto r = workload::run_cpu_bound_experiment(cfg);
    return harness::Result{}
        .metric("rms_error", r.mean_rms_error)
        .metric("overhead", r.overhead_fraction)
        .metric("measurements", static_cast<double>(r.measurements));
}

/// ALPS at a 10 ms quantum over a 4.4BSD kernel whose round-robin slice is
/// `rr_slice`, measured with exact per-cycle CPU for `cycles` cycles.
harness::Result run_rr_slice(const Shares& shares, util::Duration rr_slice, int cycles) {
    sim::Engine engine;
    os::BsdPolicyConfig pcfg;
    pcfg.round_robin = rr_slice;
    os::Kernel kernel(engine, std::make_unique<os::BsdPolicy>(pcfg));

    core::SchedulerConfig scfg;
    scfg.quantum = util::msec(10);
    core::SimAlps alps(kernel, scfg);
    metrics::ExactCycleLog log([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    alps.scheduler().set_cycle_observer(log.observer());
    for (const auto s : shares) {
        const os::Pid pid =
            kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pid, s);
    }
    const util::Duration cycle = scfg.quantum * util::total_shares(shares);
    const auto target = static_cast<std::size_t>(cycles + 5);
    while (log.cycle_count() < target) {
        engine.run_until(engine.now() + cycle);
    }
    return harness::Result{}
        .metric("error_pct", 100.0 * log.mean_rms_relative_error(5))
        .metric("overhead_pct", 100.0 * util::to_sec(alps.overhead_cpu()) /
                                    util::to_sec(kernel.now().since_epoch));
}

/// ALPS under the adaptive-quantum controller (0.2% budget): let it settle
/// for `run_len`, then measure for another `run_len`.
harness::Result run_adaptive(const Shares& shares, util::Duration run_len) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    core::SchedulerConfig scfg;
    scfg.quantum = util::msec(10);
    core::SimAlps alps(kernel, scfg);
    metrics::ExactCycleLog log([&kernel](core::EntityId id) {
        return kernel.cpu_time(static_cast<os::Pid>(id));
    });
    alps.scheduler().set_cycle_observer(log.observer());
    for (std::size_t i = 0; i < shares.size(); ++i) {
        const os::Pid pid =
            kernel.spawn("w", 0, std::make_unique<os::CpuBoundBehavior>());
        alps.manage(pid, shares[i]);
    }
    core::AdaptiveQuantumConfig acfg;
    acfg.target_overhead = 0.002;
    core::SimAdaptiveQuantum adaptive(alps, acfg, util::sec(2));

    engine.run_until(engine.now() + run_len);
    const auto cycles_before = log.cycle_count();
    const util::Duration cpu0 = alps.overhead_cpu();
    const util::TimePoint t0 = kernel.now();
    engine.run_until(engine.now() + run_len);

    return harness::Result{}
        .metric("overhead_pct", 100.0 * util::to_sec(alps.overhead_cpu() - cpu0) /
                                    util::to_sec(kernel.now() - t0))
        .metric("error_pct", 100.0 * log.mean_rms_relative_error(cycles_before))
        .metric("final_q_ms", util::to_ms(adaptive.current_quantum()));
}

/// Runs a kernel-zoo ticket policy on a CPU-bound workload; returns the mean
/// RMS relative error over consecutive windows of one ALPS-cycle length.
/// `window_divisor` shrinks the observation window below one cycle, exposing
/// short-horizon burstiness.
template <typename Policy>
double run_in_kernel(const Shares& shares, util::Duration quantum, int windows,
                     int window_divisor = 1) {
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
        pol->set_tickets(kernel.proc(pid), shares[i]);
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

harness::Result run_baselines(const Shares& shares, bool full) {
    const util::Duration q = util::msec(10);
    const int windows = measure_cycles(full);
    return harness::Result{}
        .metric("stride_error", run_in_kernel<StridePolicy>(shares, q, windows))
        .metric("lottery_error", run_in_kernel<LotteryPolicy>(shares, q, windows))
        // Quarter-cycle horizon: burstiness shows here.
        .metric("stride_quarter_error",
                run_in_kernel<StridePolicy>(shares, q, 4 * windows, 4));
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions&) {
    std::vector<harness::Task> tasks;
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                tasks.push_back(workload_task("base", model, n, "q", q,
                                              [q](const Shares& s, bool full) {
                                                  return run_alps(s, q, true, 0, full);
                                              }));
                tasks.push_back(workload_task("eager", model, n, "q", q,
                                              [q](const Shares& s, bool full) {
                                                  return run_alps(s, q, false, 0, full);
                                              }));
                if (!in_signal_study(model)) continue;
                tasks.push_back(workload_task("tickstop", model, n, "q", q,
                                              [q](const Shares& s, bool full) {
                                                  return run_alps(s, q, true, 10, full);
                                              }));
            }
            if (in_adaptive_study(n)) {
                tasks.push_back(workload_task(
                    "adaptive", model, n, "", 0, [](const Shares& s, bool full) {
                        return run_adaptive(s, full ? util::sec(300) : util::sec(120));
                    }));
            }
            tasks.push_back(workload_task("in_kernel", model, n, "", 0, run_baselines));
        }
    }
    for (const ShareModel model : kSliceModels) {
        for (const int s : kSlicesMs) {
            tasks.push_back(workload_task("rr", model, kSliceProcs, "slice_ms", s,
                                          [s](const Shares& shares, bool full) {
                                              return run_rr_slice(shares, util::msec(s),
                                                                  measure_cycles(full));
                                          }));
        }
    }
    return tasks;
}

/// Eager/lazy overhead factor of one Table-2 cell.
double lazy_factor(const harness::SweepReport& report, ShareModel model, int n, int q) {
    return report.metric_mean(point("eager", model, n, "q", q), "overhead") /
           report.metric_mean(point("base", model, n, "q", q), "overhead");
}

/// Smallest and largest eager/lazy overhead factor over the 27 cells.
std::pair<double, double> lazy_factor_range(const harness::SweepReport& report) {
    double lo = 1e9;
    double hi = 0.0;
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                lo = std::min(lo, lazy_factor(report, model, n, q));
                hi = std::max(hi, lazy_factor(report, model, n, q));
            }
        }
    }
    return {lo, hi};
}

void present(const harness::SweepReport& report, std::ostream& out) {
    const auto at = [&](const char* study, ShareModel model, int n, const char* metric,
                        int q = 0) {
        return report.metric_mean(point(study, model, n, q != 0 ? "q" : "", q), metric);
    };
    const auto pct = [](double fraction, int decimals) {
        return util::fmt(100.0 * fraction, decimals);
    };

    out << "\n§2.3 ablation — lazy measurement vs measuring every tick\n";
    util::TextTable lazy({"Workload", "Q (ms)", "lazy ovh %", "eager ovh %",
                          "ovh factor", "lazy reads", "eager reads", "read factor"});
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                const double lazy_reads = at("base", model, n, "measurements", q);
                const double eager_reads = at("eager", model, n, "measurements", q);
                lazy.add_row({workload_name(model, n), std::to_string(q),
                              pct(at("base", model, n, "overhead", q), 3),
                              pct(at("eager", model, n, "overhead", q), 3),
                              util::fmt(lazy_factor(report, model, n, q), 2),
                              util::fmt(lazy_reads, 0), util::fmt(eager_reads, 0),
                              util::fmt(eager_reads / lazy_reads, 2)});
            }
        }
    }
    lazy.print(out);
    const auto [lo, hi] = lazy_factor_range(report);
    out << "\nOverhead reduction factor range: " << util::fmt(lo, 2) << "x - "
        << util::fmt(hi, 2) << "x   (paper: 1.8x - 5.9x)\n";

    out << "\nSignal-delivery ablation — instant vs 10 ms hardclock-tick SIGSTOP\n";
    util::TextTable signals(
        {"Workload", "Q (ms)", "instant err %", "tick-delivery err %"});
    for (const ShareModel model : workload::kAllModels) {
        if (!in_signal_study(model)) continue;
        for (const int n : kProcCounts) {
            for (const int q : kQuantaMs) {
                signals.add_row({workload_name(model, n), std::to_string(q),
                                 pct(at("base", model, n, "rms_error", q), 2),
                                 pct(at("tickstop", model, n, "rms_error", q), 2)});
            }
        }
    }
    signals.print(out);
    out << "\nDelivery granularity changes little: on one CPU the target "
           "of an ALPS stop is never running when signalled.\n";

    out << "\nKernel sensitivity — ALPS accuracy vs the kernel's round-robin slice\n";
    std::vector<std::string> headers{"Workload"};
    for (const int s : kSlicesMs) headers.push_back("RR=" + std::to_string(s) + "ms");
    util::TextTable slices(headers);
    for (const ShareModel model : kSliceModels) {
        std::vector<std::string> row{workload_name(model, kSliceProcs)};
        for (const int s : kSlicesMs) {
            row.push_back(util::fmt(
                report.metric_mean(point("rr", model, kSliceProcs, "slice_ms", s),
                                   "error_pct"),
                2));
        }
        slices.add_row(std::move(row));
    }
    slices.print(out);
    out << "\nCells are mean RMS relative error (%) at a 10 ms ALPS "
           "quantum. The rows are exactly flat: with ALPS present, its "
           "own timer wakeups preempt the running process every quantum "
           "(the woken driver holds kernel priority), and the preempted "
           "process re-enters its run queue at the tail — so processes "
           "rotate at ALPS-quantum granularity no matter how long the "
           "kernel's slice is. Fairness comes from eligibility control; "
           "the kernel's interleaving policy does not matter at all.\n";

    out << "\nAdaptive quantum — overhead budget 0.2% vs fixed quanta\n";
    util::TextTable adaptive({"Workload", "fixed10 ovh %", "fixed10 err %",
                              "fixed40 ovh %", "fixed40 err %", "adaptive ovh %",
                              "adaptive err %", "adaptive Q (ms)"});
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            if (!in_adaptive_study(n)) continue;
            adaptive.add_row({workload_name(model, n),
                              pct(at("base", model, n, "overhead", 10), 3),
                              pct(at("base", model, n, "rms_error", 10), 2),
                              pct(at("base", model, n, "overhead", 40), 3),
                              pct(at("base", model, n, "rms_error", 40), 2),
                              util::fmt(at("adaptive", model, n, "overhead_pct"), 3),
                              util::fmt(at("adaptive", model, n, "error_pct"), 2),
                              util::fmt(at("adaptive", model, n, "final_q_ms"), 0)});
        }
    }
    adaptive.print(out);
    out << "\nAdaptive should sit near the 0.2% budget regardless of the "
           "workload's cost profile.\n";

    out << "\nBaselines — user-level ALPS vs in-kernel stride and lottery\n";
    util::TextTable baselines({"Workload", "ALPS err %", "ALPS ovh %", "Stride err %",
                               "Lottery err %", "Stride 1/4-wnd %"});
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            baselines.add_row({workload_name(model, n),
                               pct(at("base", model, n, "rms_error", 10), 2),
                               pct(at("base", model, n, "overhead", 10), 3),
                               pct(at("in_kernel", model, n, "stride_error"), 2),
                               pct(at("in_kernel", model, n, "lottery_error"), 2),
                               pct(at("in_kernel", model, n, "stride_quarter_error"),
                                   2)});
        }
    }
    baselines.print(out);
    out << "\nExpected shape: stride near-exact and smooth; lottery noisy "
           "(statistical); ALPS close to stride without kernel support, "
           "paying <1% sampling overhead.\n";
}

void evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report);
    const double min_factor = lazy_factor_range(report).first;
    criteria.check("lazy measurement saves >= 1.8x in every cell (§2.3)", "1.8x-5.9x",
                   util::fmt(min_factor, 2) + "x minimum over 27 cells",
                   min_factor >= 1.8);

    int flat = 0;
    for (const ShareModel model : kSliceModels) {
        const auto error = [&](int slice_ms) {
            return report.metric_mean(
                point("rr", model, kSliceProcs, "slice_ms", slice_ms), "error_pct");
        };
        flat += std::all_of(std::begin(kSlicesMs), std::end(kSlicesMs),
                            [&](int s) { return error(s) == error(kSlicesMs[0]); });
    }
    criteria.check("accuracy independent of the kernel's RR slice (§2.1)",
                   "identical across 20-800 ms",
                   std::to_string(flat) + "/3 workloads flat", flat == 3);

    double lo = 1e9;
    double hi = 0.0;
    double worst_stride = 0.0;
    int lottery_worse = 0;
    for (const ShareModel model : workload::kAllModels) {
        for (const int n : kProcCounts) {
            if (in_adaptive_study(n)) {
                const double ovh =
                    report.metric_mean(point("adaptive", model, n), "overhead_pct");
                lo = std::min(lo, ovh);
                hi = std::max(hi, ovh);
            }
            const std::string p = point("in_kernel", model, n);
            const double stride = report.metric_mean(p, "stride_error");
            worst_stride = std::max(worst_stride, stride);
            lottery_worse += report.metric_mean(p, "lottery_error") > stride;
        }
    }
    criteria.check("adaptive quantum holds the 0.2% overhead budget",
                   util::fmt(kAdaptiveBandPct[0], 2) + "%-" +
                       util::fmt(kAdaptiveBandPct[1], 2) + "%",
                   util::fmt(lo, 3) + "%-" + util::fmt(hi, 3) + "%",
                   lo > kAdaptiveBandPct[0] && hi < kAdaptiveBandPct[1]);
    const std::string stride_pct = util::fmt(100.0 * worst_stride, 2);
    criteria.check("in-kernel stride exact over full-cycle windows", "0.00%",
                   stride_pct + "% worst", stride_pct == "0.00");
    criteria.check("lottery error exceeds stride's", "every workload",
                   std::to_string(lottery_worse) + "/9 workloads", lottery_worse == 9);
    out << "\n";
    criteria.print(out);
}

}  // namespace

void register_mechanisms_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "mechanisms",
        .description =
            "Mechanisms vs alternatives on Table 2: lazy/eager measurement, stop "
            "delivery, kernel RR slice, adaptive quantum, in-kernel stride/lottery",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
