// Multi-application scaling study (beyond the paper's three ALPSs in §4.1).
//
// M independent applications run simultaneously, each with its own ALPS over
// 3 compute-bound processes (shares 1:2:3, 10 ms quantum). Questions: does
// per-application accuracy survive as M grows, and what is the aggregate
// cost of M uncoordinated user-level schedulers?
//
// Expected shape: within-app proportions stay ~1:2:3 for every app until
// the machine is so oversubscribed that each driver's fair share of the CPU
// cannot cover its per-quantum work — the §4.2 threshold generalized to
// M·(3+1) processes. Aggregate overhead grows linearly with M.
#include <iostream>
#include <memory>
#include <vector>

#include "../bench/common.h"
#include "alps/sim_adapter.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "util/stats.h"
#include "util/table.h"

using namespace alps;

namespace {

struct Outcome {
    double worst_app_err_pct = 0.0;  ///< max over apps of within-app RMS error
    double mean_app_err_pct = 0.0;
    double total_overhead_pct = 0.0;  ///< all drivers' CPU / wall
    std::uint64_t missed = 0;         ///< boundaries missed, all drivers
};

Outcome run(int apps, util::Duration wall) {
    sim::Engine engine;
    os::Kernel kernel(engine);
    core::SchedulerConfig scfg;
    scfg.quantum = util::msec(10);

    std::vector<std::unique_ptr<core::SimAlps>> alpses;
    std::vector<std::vector<os::Pid>> pids(static_cast<std::size_t>(apps));
    for (int a = 0; a < apps; ++a) {
        alpses.push_back(std::make_unique<core::SimAlps>(
            kernel, scfg, core::CostModel{}, "alps-" + std::to_string(a), a));
        for (int i = 0; i < 3; ++i) {
            std::string name = "a";
            name += std::to_string(a);
            name += "w";
            name += std::to_string(i);
            const os::Pid pid =
                kernel.spawn(name, a, std::make_unique<os::CpuBoundBehavior>());
            alpses.back()->manage(pid, i + 1);
            pids[static_cast<std::size_t>(a)].push_back(pid);
        }
    }

    // Settle, snapshot, measure.
    engine.run_until(engine.now() + wall / 4);
    std::vector<std::vector<util::Duration>> base(pids.size());
    for (std::size_t a = 0; a < pids.size(); ++a) {
        for (const os::Pid p : pids[a]) base[a].push_back(kernel.cpu_time(p));
    }
    const util::TimePoint t0 = kernel.now();
    std::vector<util::Duration> drv0;
    for (const auto& alps : alpses) drv0.push_back(alps->overhead_cpu());
    engine.run_until(engine.now() + wall);

    Outcome out;
    util::RunningStats errs;
    for (std::size_t a = 0; a < pids.size(); ++a) {
        std::vector<double> actual(3);
        std::vector<double> ideal(3);
        double total = 0.0;
        for (std::size_t i = 0; i < 3; ++i) {
            actual[i] =
                util::to_sec(kernel.cpu_time(pids[a][i]) - base[a][i]);
            total += actual[i];
        }
        for (std::size_t i = 0; i < 3; ++i) {
            ideal[i] = total * static_cast<double>(i + 1) / 6.0;
        }
        errs.add(100.0 * util::rms_relative_error(actual, ideal));
    }
    out.worst_app_err_pct = errs.max();
    out.mean_app_err_pct = errs.mean();
    double driver_cpu = 0.0;
    for (std::size_t a = 0; a < alpses.size(); ++a) {
        driver_cpu += util::to_sec(alpses[a]->overhead_cpu() - drv0[a]);
        out.missed += alpses[a]->driver().boundaries_missed();
    }
    out.total_overhead_pct =
        100.0 * driver_cpu / util::to_sec(kernel.now() - t0);
    return out;
}

}  // namespace

int main() {
    bench::print_header(
        "Multiple applications — M concurrent ALPSs, each over 3 processes 1:2:3");

    const util::Duration wall = bench::full_scale() ? util::sec(120) : util::sec(40);
    util::TextTable t({"ALPSs", "procs total", "mean app err %", "worst app err %",
                       "total drivers ovh %", "missed boundaries"});
    for (const int m : {1, 2, 3, 5, 8, 12, 16, 24}) {
        const Outcome o = run(m, wall);
        t.add_row({std::to_string(m), std::to_string(4 * m),
                   util::fmt(o.mean_app_err_pct, 2), util::fmt(o.worst_app_err_pct, 2),
                   util::fmt(o.total_overhead_pct, 3), std::to_string(o.missed)});
    }
    t.print(std::cout);
    bench::maybe_write_csv("multi_alps_scaling", t);
    std::cout << "\nPaper §4.1 shows M=3 works (each app accurate within "
                 "whatever the kernel grants it); this sweep finds where "
                 "uncoordinated user-level schedulers stop coexisting.\n";
    return 0;
}
