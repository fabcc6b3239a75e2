#include "harness/sink.h"

#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/stats.h"

namespace alps::harness {

const PointAggregate* SweepReport::find_point(const std::string& point) const {
    for (const PointAggregate& p : points) {
        if (p.point == point) return &p;
    }
    return nullptr;
}

double SweepReport::metric_mean(const std::string& point, const std::string& metric,
                                double fallback) const {
    const PointAggregate* p = find_point(point);
    if (p == nullptr) return fallback;
    for (const MetricAggregate& m : p->metrics) {
        if (m.name == metric) return m.mean;
    }
    return fallback;
}

int SweepReport::failed_checks() const {
    int failed = 0;
    for (const Check& c : checks) {
        if (!c.passed) ++failed;
    }
    return failed;
}

void aggregate_points(SweepReport& report) {
    report.points.clear();
    report.task_errors = 0;

    // Group by point in first-appearance order; accumulate per-metric stats.
    struct Accum {
        std::size_t point_index;
        std::vector<std::pair<std::string, util::RunningStats>> stats;
    };
    std::vector<Accum> accums;

    for (const TaskOutcome& t : report.tasks) {
        if (!t.ok) {
            ++report.task_errors;
            continue;
        }
        Accum* acc = nullptr;
        for (Accum& a : accums) {
            if (report.points[a.point_index].point == t.point) {
                acc = &a;
                break;
            }
        }
        if (acc == nullptr) {
            PointAggregate p;
            p.point = t.point;
            p.params = t.params;
            report.points.push_back(std::move(p));
            accums.push_back({report.points.size() - 1, {}});
            acc = &accums.back();
        }
        ++report.points[acc->point_index].reps;
        for (const Result::Metric& m : t.result.metrics()) {
            util::RunningStats* rs = nullptr;
            for (auto& [name, stats] : acc->stats) {
                if (name == m.name) {
                    rs = &stats;
                    break;
                }
            }
            if (rs == nullptr) {
                acc->stats.emplace_back(m.name, util::RunningStats{});
                rs = &acc->stats.back().second;
            }
            rs->add(m.value);
        }
    }

    for (const Accum& a : accums) {
        PointAggregate& p = report.points[a.point_index];
        for (const auto& [name, stats] : a.stats) {
            MetricAggregate m;
            m.name = name;
            m.mean = stats.mean();
            m.stdev = stats.stddev();
            m.min = stats.min();
            m.max = stats.max();
            m.n = stats.count();
            p.metrics.push_back(std::move(m));
        }
    }
}

util::Json report_to_json(const SweepReport& report, bool include_run) {
    util::Json doc = util::Json::object();
    doc.set("schema", "alps-sweep-v1");
    doc.set("experiment", report.experiment);
    doc.set("seed", report.seed);
    doc.set("full_scale", report.full_scale);

    util::Json points = util::Json::array();
    for (const PointAggregate& p : report.points) {
        util::Json jp = util::Json::object();
        jp.set("point", p.point);
        util::Json params = util::Json::object();
        for (const auto& [k, v] : p.params) params.set(k, v);
        jp.set("params", std::move(params));
        jp.set("reps", static_cast<std::int64_t>(p.reps));
        util::Json metrics = util::Json::object();
        for (const MetricAggregate& m : p.metrics) {
            util::Json jm = util::Json::object();
            jm.set("mean", m.mean);
            jm.set("stdev", m.stdev);
            jm.set("min", m.min);
            jm.set("max", m.max);
            jm.set("n", static_cast<std::uint64_t>(m.n));
            metrics.set(m.name, std::move(jm));
        }
        jp.set("metrics", std::move(metrics));
        points.push(std::move(jp));
    }
    doc.set("points", std::move(points));

    util::Json checks = util::Json::array();
    for (const Check& c : report.checks) {
        util::Json jc = util::Json::object();
        jc.set("criterion", c.criterion);
        jc.set("paper", c.paper);
        jc.set("measured", c.measured);
        jc.set("passed", c.passed);
        checks.push(std::move(jc));
    }
    if (checks.size() > 0) doc.set("checks", std::move(checks));

    util::Json errors = util::Json::array();
    for (const TaskOutcome& t : report.tasks) {
        if (t.ok) continue;
        util::Json je = util::Json::object();
        je.set("point", t.point);
        je.set("rep", static_cast<std::int64_t>(t.rep));
        je.set("error", t.error);
        errors.push(std::move(je));
    }
    if (errors.size() > 0) doc.set("task_errors", std::move(errors));

    // Supervision trail: only tasks the RunSupervisor had to intervene on
    // (retries or a final failure), so unsupervised sweeps keep their exact
    // historical payload. Attempt counts and dispositions are deterministic,
    // hence part of the jobs-/resume-independent payload.
    util::Json supervision = util::Json::array();
    for (const TaskOutcome& t : report.tasks) {
        if (t.ok && t.attempts <= 1) continue;
        util::Json js = util::Json::object();
        js.set("point", t.point);
        js.set("rep", static_cast<std::int64_t>(t.rep));
        js.set("attempts", static_cast<std::int64_t>(t.attempts));
        js.set("disposition", t.disposition);
        supervision.push(std::move(js));
    }
    if (supervision.size() > 0) doc.set("supervision", std::move(supervision));
    doc.set("failed_checks", static_cast<std::int64_t>(report.failed_checks()));

    if (include_run) {
        // Everything non-deterministic lives here, after the metric payload.
        util::Json run = util::Json::object();
        run.set("jobs", static_cast<std::uint64_t>(report.jobs));
        run.set("tasks", static_cast<std::uint64_t>(report.tasks.size()));
        run.set("wall_clock_s", report.wall_seconds);
        run.set("git_sha", report.git_sha);
        if (report.telemetry.type() == util::Json::Type::kObject) {
            run.set("telemetry", report.telemetry);
        }
        doc.set("run", std::move(run));
    }
    return doc;
}

std::string write_json_report(const SweepReport& report, const std::string& dir,
                              bool include_run) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort; open() decides
    const std::string path =
        (std::filesystem::path(dir) / ("BENCH_" + report.experiment + ".json")).string();
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return "";
    }
    out << report_to_json(report, include_run).dump(2) << "\n";
    return out ? path : "";
}

}  // namespace alps::harness
