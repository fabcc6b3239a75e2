// The Section-5 shared-web-server experiment and its sensitivity sweeps as a
// harness experiment.
//
// Three bulletin-board sites (Apache-prefork-style, <=50 workers each) on one
// host, each driven by 325 closed-loop clients. First the kernel scheduler
// alone (paper: {29, 30, 40} req/s — roughly even), then ALPS with group
// principals (one per user account), shares {1, 2, 3}, 100 ms quantum, and
// once-per-second membership refresh (paper: {18, 35, 53} req/s).
//
// Sensitivity (beyond the paper, which runs one operating point): the
// quantum and the membership-refresh period are swept. Throughput ratios
// should hold (ALPS meters each group's *aggregate* consumption), while
// overhead scales with tick rate times group size — at a 10 ms quantum ALPS
// samples ~150 worker processes per quantum, which is why the paper runs
// this workload at 100 ms. The refresh period trades discovery latency for
// scan cost; worker pools churn slowly, so within seconds it barely matters.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/experiments.h"
#include "harness/registry.h"
#include "util/table.h"
#include "web/experiment.h"

namespace alps::bench {
namespace {

constexpr int kQuantaMs[] = {10, 25, 50, 100, 200, 400};  // refresh 1 s
constexpr int kRefreshMs[] = {250, 500, 1000, 2000, 5000};  // quantum 100 ms

std::string sweep_point(int quantum_ms, int refresh_ms) {
    return "sweep/q" + std::to_string(quantum_ms) + "_r" + std::to_string(refresh_ms);
}

/// Every ALPS point: the main row, then both sweeps (the Q = 100 ms /
/// refresh = 1 s point appears in both tables but runs once).
std::vector<std::string> alps_points() {
    std::vector<std::string> points{"alps"};
    for (const int q : kQuantaMs) points.push_back(sweep_point(q, 1000));
    for (const int r : kRefreshMs) {
        if (r != 1000) points.push_back(sweep_point(100, r));
    }
    return points;
}

/// One §5 run; `measure_s` is its reduced-scale window, tripled at --full.
harness::Task web_task(std::string point, bool use_alps, int quantum_ms, int refresh_ms,
                       int measure_s) {
    return {
        .point = std::move(point),
        .params = {{"alps", use_alps ? "1" : "0"},
                   {"quantum_ms", std::to_string(quantum_ms)},
                   {"refresh_ms", std::to_string(refresh_ms)}},
        .fn =
            [=](const harness::TaskContext& ctx) {
                web::WebExperimentConfig cfg;
                cfg.use_alps = use_alps;
                cfg.quantum = util::msec(quantum_ms);
                cfg.refresh_period = util::msec(refresh_ms);
                cfg.warmup = util::sec(8);
                cfg.measure = util::sec(ctx.full_scale ? 3 * measure_s : measure_s);
                const auto r = web::run_web_experiment(cfg);
                return harness::Result{}
                    .metric("rps_site0", r.throughput_rps[0])
                    .metric("rps_site1", r.throughput_rps[1])
                    .metric("rps_site2", r.throughput_rps[2])
                    .metric("rps_total", r.throughput_rps[0] + r.throughput_rps[1] +
                                             r.throughput_rps[2])
                    .metric("mean_response_s0", r.mean_response_s[0])
                    .metric("mean_response_s1", r.mean_response_s[1])
                    .metric("mean_response_s2", r.mean_response_s[2])
                    .metric("cpu_utilization", r.cpu_utilization)
                    .metric("overhead", r.alps_overhead_fraction);
            },
    };
}

std::vector<harness::Task> make_tasks(const harness::SweepOptions&) {
    // The two main rows measure 40 s; the sweep points 30 s.
    std::vector<harness::Task> tasks{web_task("kernel_only", false, 100, 1000, 40),
                                     web_task("alps", true, 100, 1000, 40)};
    for (const int q : kQuantaMs) {
        tasks.push_back(web_task(sweep_point(q, 1000), true, q, 1000, 30));
    }
    for (const int r : kRefreshMs) {
        if (r != 1000) tasks.push_back(web_task(sweep_point(100, r), true, 100, r, 30));
    }
    return tasks;
}

/// Appends the throughput cells of one point: site1, site2, site3, total.
void add_rps_cells(const harness::SweepReport& report, const std::string& point,
                   std::vector<std::string>& row) {
    for (const char* m : {"rps_site0", "rps_site1", "rps_site2", "rps_total"}) {
        row.push_back(util::fmt(report.metric_mean(point, m), 1));
    }
}

void present(const harness::SweepReport& report, std::ostream& out) {
    util::TextTable t({"Configuration", "site1 (1 share)", "site2 (2 shares)",
                       "site3 (3 shares)", "total", "CPU util", "ALPS ovh %"});
    for (const auto& [name, point] : {std::pair{"kernel only", "kernel_only"},
                                      std::pair{"ALPS 1:2:3 @100ms", "alps"}}) {
        std::vector<std::string> row{name};
        add_rps_cells(report, point, row);
        row.push_back(util::fmt(report.metric_mean(point, "cpu_utilization"), 2));
        row.push_back(util::fmt(100.0 * report.metric_mean(point, "overhead"), 3));
        t.add_row(std::move(row));
    }
    t.print(out);
    out << "\nThroughput in requests/s. Paper: kernel only {29, 30, 40}; "
           "ALPS {18, 35, 53} (ratios ~1:2:3).\n";
    out << "Mean response times with ALPS (s): "
        << util::fmt(report.metric_mean("alps", "mean_response_s0"), 1) << " / "
        << util::fmt(report.metric_mean("alps", "mean_response_s1"), 1) << " / "
        << util::fmt(report.metric_mean("alps", "mean_response_s2"), 1)
        << " — isolation shifts queueing delay onto the low-share site.\n";

    const auto sweep_table = [&](const char* title, const char* knob, const auto& values,
                                 auto point_of) {
        out << "\n" << title << ":\n";
        util::TextTable st(
            {knob, "site1", "site2", "site3", "total req/s", "ALPS ovh %"});
        for (const int v : values) {
            const std::string point = point_of(v);
            std::vector<std::string> row{std::to_string(v)};
            add_rps_cells(report, point, row);
            row.push_back(util::fmt(100.0 * report.metric_mean(point, "overhead"), 3));
            st.add_row(std::move(row));
        }
        st.print(out);
    };
    sweep_table("Quantum sweep (refresh fixed at 1 s)", "Quantum (ms)", kQuantaMs,
                [](int q) { return sweep_point(q, 1000); });
    sweep_table("Refresh-period sweep (quantum fixed at 100 ms)", "Refresh (ms)",
                kRefreshMs, [](int r) { return sweep_point(100, r); });
    out << "\nPaper's operating point: Q=100 ms, refresh=1 s, throughput "
           "{18, 35, 53}. Ratios should hold everywhere; overhead "
           "grows toward short quanta (3 sites x ~51 procs sampled).\n";
}

void evaluate(harness::SweepReport& report, std::ostream& out) {
    Criteria criteria(report);
    const auto share = [&](const std::string& point, int site) {
        return report.metric_mean(point, "rps_site" + std::to_string(site)) /
               report.metric_mean(point, "rps_total");
    };

    // The tolerance of the WebExperiment.KernelAloneSharesRoughlyEvenly test.
    double off_dev = 0.0;
    for (const int site : {0, 1, 2}) {
        off_dev = std::max(off_dev, std::abs(share("kernel_only", site) - 1.0 / 3.0));
    }
    std::vector<std::string> off;
    add_rps_cells(report, "kernel_only", off);
    criteria.check("kernel alone splits roughly evenly (§5)", "1/3 each (±0.06)",
                   off[0] + " / " + off[1] + " / " + off[2], off_dev < 0.06);

    // Per site, the worst deviation from its share over every ALPS point.
    for (const auto& [site, target, label] :
         {std::tuple{0, 1.0 / 6.0, "site1 gets 1/6"},
          std::tuple{2, 3.0 / 6.0, "site3 gets 1/2"}}) {
        double worst = -1.0;
        std::string worst_point;
        for (const std::string& point : alps_points()) {
            if (std::abs(share(point, site) - target) > worst) {
                worst = std::abs(share(point, site) - target);
                worst_point = point;
            }
        }
        criteria.check(std::string(label) + " of throughput at every ALPS point (§5)",
                       "±0.03", "worst " + util::fmt(worst, 3) + " at " + worst_point,
                       worst < 0.03);
    }

    bool falling = true;
    std::string series;
    for (std::size_t i = 0; i < std::size(kRefreshMs); ++i) {
        const auto ovh = [&](std::size_t k) {
            return 100.0 *
                   report.metric_mean(sweep_point(100, kRefreshMs[k]), "overhead");
        };
        if (i > 0) {
            series += " -> ";
            falling = falling && ovh(i) < ovh(i - 1);
        }
        series += util::fmt(ovh(i), 3);
    }
    criteria.check("overhead falls as the refresh period grows", "monotone",
                   series + " %", falling);
    out << "\n";
    criteria.print(out);
}

}  // namespace

void register_web_section5_experiment() {
    harness::ExperimentRegistry::instance().add({
        .name = "web_section5",
        .description =
            "Shared web server (§5): kernel-only vs ALPS 1:2:3, plus quantum and "
            "refresh-period sweeps",
        .make_tasks = make_tasks,
        .present = present,
        .evaluate = evaluate,
    });
}

}  // namespace alps::bench
