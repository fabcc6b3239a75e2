// The simulated workloads are assembled here from the same public classes
// the library's entry points use (web::run_web_scale_experiment and
// workload::run_many_core_experiment), so the benchmark can time set-up
// apart from the run and read every exact counter. An untraced scenario
// deploys ALPS through the library's own SimGroupAlps/SimAlps; a traced one
// assembles the same stack by hand with the span decorators at its seams.
// Both must produce bit-identical simulated statistics, and the traced run
// also checks the untraced scenario against the library entry point itself.
#include "sim_workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alps/fault.h"
#include "alps/group_control.h"
#include "alps/sim_adapter.h"
#include "layers.h"
#include "metrics/exact_cycle_log.h"
#include "metrics/fairness.h"
#include "os/behaviors.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "spans.h"
#include "traffic/generator.h"
#include "traffic/latency.h"
#include "traffic/table.h"
#include "util/rng.h"
#include "web/cluster.h"
#include "web/site.h"
#include "workload/experiments.h"

namespace alps::perfbench {

namespace {

using util::Duration;
using util::TimePoint;

/// Every simulated statistic and exact work counter of one run, by name.
/// Values are exact: integers (counts, nanoseconds) held in doubles, or the
/// library's own double results. Two runs agree only if every bit does.
using SimStats = std::vector<std::pair<std::string, double>>;

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double stat(const SimStats& s, const std::string& name) {
    for (const auto& [k, v] : s) {
        if (k == name) return v;
    }
    return std::nan("");
}

/// Names of the entries in which two runs' statistics differ.
std::string stats_diff(const SimStats& a, const SimStats& b) {
    std::string out;
    if (a.size() != b.size()) return "statistic count differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first || !bit_equal(a[i].second, b[i].second)) {
            out += (out.empty() ? "" : ",") + a[i].first;
        }
    }
    return out;
}

/// prefix + decimal index (appending, rather than `"x" + std::to_string(i)`,
/// keeps GCC 12's false -Wrestrict report out of the build).
std::string indexed(const char* prefix, int i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }
double as_double(Duration d) { return static_cast<double>(d.count()); }

/// The observable state of one deployed ALPS instance, whichever way it was
/// assembled.
struct AlpsView {
    core::Scheduler* scheduler = nullptr;
    const core::AlpsDriverBehavior* driver = nullptr;
    os::Pid driver_pid = os::kNoPid;
};

/// core::SimGroupAlps assembled from its public parts, with the host and
/// the driver's tick behind the span decorators.
class TracedGroupAlps {
public:
    TracedGroupAlps(os::Kernel& kernel, const core::SchedulerConfig& cfg,
                    core::CostModel cost, Duration refresh_period, std::string name,
                    int home_cpu, int nice, SpanLog& log)
        : kernel_(kernel),
          sim_host_(kernel),
          host_(sim_host_, &log, Layer::kMeasure, Layer::kSignal),
          control_(host_),
          scheduler_(control_, cfg, &kernel.engine().arena()),
          cost_(cost),
          refresh_period_(refresh_period),
          next_refresh_(kernel.now()) {
        auto pre_tick = [this, &log]() -> Duration {
            if (kernel_.now() < next_refresh_) return Duration::zero();
            ScopedSpan span(&log, Layer::kRefresh);
            next_refresh_ = kernel_.now() + refresh_period_;
            const int scanned = control_.refresh_all();
            core::TickStats as_if;
            as_if.measured = scanned;
            return cost_.tick_cost(as_if) - util::from_us(cost_.timer_event_us);
        };
        auto driver =
            std::make_unique<core::AlpsDriverBehavior>(scheduler_, cost_, std::move(pre_tick));
        driver_ = driver.get();
        driver_pid_ = kernel_.spawn(std::move(name), /*uid=*/0,
                                    std::make_unique<TimedBehavior>(std::move(driver), log),
                                    nice, home_cpu, /*pinned=*/true);
    }
    ~TracedGroupAlps() {
        scheduler_.release_all();
        if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
    }
    TracedGroupAlps(const TracedGroupAlps&) = delete;
    TracedGroupAlps& operator=(const TracedGroupAlps&) = delete;

    void manage_user(std::string name, os::Uid uid, util::Share share) {
        const core::EntityId id = control_.add_principal(std::move(name), uid);
        control_.refresh(id);
        scheduler_.add(id, share);
    }
    [[nodiscard]] core::Scheduler& scheduler() { return scheduler_; }
    [[nodiscard]] const core::AlpsDriverBehavior& driver() const { return *driver_; }
    [[nodiscard]] os::Pid driver_pid() const { return driver_pid_; }

private:
    os::Kernel& kernel_;
    core::SimProcessHost sim_host_;
    TimedHost host_;
    core::GroupProcessControl control_;
    core::Scheduler scheduler_;
    core::CostModel cost_;
    Duration refresh_period_;
    TimePoint next_refresh_;
    core::AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel's Proc
    os::Pid driver_pid_ = os::kNoPid;
};

/// core::SimAlps assembled from its public parts (including its disabled,
/// pass-through fault layer), with the host and tick behind the decorators.
class TracedAlps {
public:
    TracedAlps(os::Kernel& kernel, const core::SchedulerConfig& cfg, core::CostModel cost,
               std::string name, int home_cpu, SpanLog& log)
        : kernel_(kernel),
          sim_host_(kernel),
          host_(sim_host_, &log, Layer::kMeasure, Layer::kSignal),
          control_(host_),
          faults_(control_, core::FaultPlan{}),
          scheduler_(faults_, cfg, &kernel.engine().arena()) {
        auto driver = std::make_unique<core::AlpsDriverBehavior>(scheduler_, cost);
        driver_ = driver.get();
        driver_pid_ = kernel_.spawn(std::move(name), /*uid=*/0,
                                    std::make_unique<TimedBehavior>(std::move(driver), log),
                                    /*nice=*/0, home_cpu, /*pinned=*/true);
    }
    ~TracedAlps() {
        scheduler_.release_all();
        if (kernel_.alive(driver_pid_)) kernel_.send_signal(driver_pid_, os::Signal::kKill);
    }
    TracedAlps(const TracedAlps&) = delete;
    TracedAlps& operator=(const TracedAlps&) = delete;

    void manage(os::Pid pid, util::Share share) { scheduler_.add(pid, share); }
    [[nodiscard]] core::Scheduler& scheduler() { return scheduler_; }
    [[nodiscard]] const core::AlpsDriverBehavior& driver() const { return *driver_; }
    [[nodiscard]] os::Pid driver_pid() const { return driver_pid_; }

private:
    os::Kernel& kernel_;
    core::SimProcessHost sim_host_;
    TimedHost host_;
    core::PidProcessControl control_;
    core::FaultInjectingControl faults_;
    core::Scheduler scheduler_;
    core::AlpsDriverBehavior* driver_ = nullptr;  // owned by the kernel's Proc
    os::Pid driver_pid_ = os::kNoPid;
};

/// The view of a library-built or traced ALPS (same accessor names).
template <typename Alps>
AlpsView view_of(Alps& a) {
    return {&a.scheduler(), &a.driver(), a.driver_pid()};
}

/// Common exact counters of the engine, kernel and ALPS instances.
void append_core_counters(sim::Engine& engine, const os::Kernel& kernel,
                          const std::vector<AlpsView>& alps, SimStats& s) {
    std::uint64_t ticks = 0, measurements = 0, read_failures = 0, retries = 0,
                  control_failures = 0, missed = 0;
    for (const AlpsView& a : alps) {
        ticks += a.driver->ticks_run();
        measurements += a.scheduler->total_measurements();
        const core::HealthReport h = a.scheduler->health();
        read_failures += h.read_failures;
        retries += h.retries;
        control_failures += h.control_failures;
        missed += a.driver->boundaries_missed();
    }
    s.emplace_back("sim.events_scheduled", as_double(engine.events_scheduled()));
    s.emplace_back("sim.events_fired", as_double(engine.events_fired()));
    s.emplace_back("sim.events_cancelled", as_double(engine.events_cancelled()));
    s.emplace_back("sim.arena_high_water_bytes", as_double(engine.arena().high_water()));
    s.emplace_back("sim.end_ns", as_double(engine.now() - TimePoint{}));
    s.emplace_back("os.context_switches", as_double(kernel.context_switches()));
    s.emplace_back("os.steals", as_double(kernel.steals()));
    s.emplace_back("os.migrations", as_double(kernel.migrations()));
    s.emplace_back("os.busy_ns", as_double(kernel.busy_time()));
    s.emplace_back("alps.ticks", as_double(ticks));
    s.emplace_back("alps.measurements", as_double(measurements));
    s.emplace_back("alps.read_failures", as_double(read_failures));
    s.emplace_back("alps.retries", as_double(retries));
    s.emplace_back("alps.control_failures", as_double(control_failures));
    s.emplace_back("alps.boundaries_missed", as_double(missed));
}

/// One scenario: constructed (the timed set-up), then run once.
class Scenario {
public:
    virtual ~Scenario() = default;
    /// Runs the simulation to its end; returns simulated seconds.
    virtual double run() = 0;
    [[nodiscard]] virtual SimStats stats() = 0;
    /// Operations attempted and failed (requests or ticks).
    [[nodiscard]] virtual std::pair<std::uint64_t, std::uint64_t> ops() = 0;
    /// Invariant checks on the finished run: (holds, description).
    [[nodiscard]] virtual std::vector<std::pair<bool, std::string>> invariants() = 0;
};

// ---------------------------------------------------------------------------
// web_flash_percore / web_flash_kernel

/// The web_scale flagship machine (1000 sites, 16 CPUs, flash crowd x8 on
/// every 8th row of sites), with the run compressed to fit a benchmark run:
/// 2 s warm-up and 10 s measured; the crowd ramps in from t = 3 s, holds
/// x8 for 5 s and has decayed by t = 10 s. (The sweep's 50 s run holds the
/// crowd for 10 s and sheds thousands of requests on the 15 s queue
/// timeout; here every request completes.)
web::WebScaleConfig web_config(bool percore, std::uint64_t seed) {
    web::WebScaleConfig cfg;
    cfg.sites = 1000;
    cfg.ncpus = 16;
    cfg.base_rps = 2.0;
    cfg.deploy = percore ? web::Deploy::kPerCoreAlps : web::Deploy::kKernelOnly;
    cfg.quantum = util::msec(percore ? 10 : 100);
    cfg.flash_multiplier = 8.0;
    cfg.warmup = util::sec(2);
    cfg.measure = util::sec(10);
    cfg.flash_start = util::sec(3);
    cfg.flash_ramp = util::sec(1);
    cfg.flash_hold = util::sec(5);
    cfg.flash_decay = util::sec(1);
    cfg.seed = seed;
    cfg.per_site_telemetry = false;
    return cfg;
}

bool flash_member(const web::WebScaleConfig& cfg, int i) {
    if (cfg.flash_multiplier <= 1.0 || cfg.flash_stride <= 0) return false;
    return (i / cfg.ncpus) % cfg.flash_stride == 1;
}

/// run_web_scale_experiment's construction and run, step for step.
class WebScenario final : public Scenario {
public:
    WebScenario(const web::WebScaleConfig& cfg, SpanLog* log)
        : cfg_(cfg), log_(log), kernel_(engine_, nullptr, kernel_config(cfg)),
          recorder_(static_cast<std::size_t>(cfg.sites)) {
        const auto nsites = static_cast<std::size_t>(cfg.sites);
        table_.reserve(nsites * 8);
        const bool pinned = cfg.deploy == web::Deploy::kPerCoreAlps;
        sites_.reserve(nsites);
        gens_.reserve(nsites);
        for (int i = 0; i < cfg.sites; ++i) {
            web::SiteConfig sc;
            sc.name = indexed("s", i);
            sc.uid = 1000 + static_cast<os::Uid>(i);
            sc.site_index = static_cast<std::uint32_t>(i);
            sc.initial_workers = cfg.initial_workers;
            sc.max_workers = cfg.max_workers;
            sc.min_spare = 1;
            sc.max_spare = 4;
            sc.spawn_batch = 2;
            sc.parse_cpu = cfg.parse_cpu;
            sc.render_cpu = cfg.render_cpu;
            sc.db_time = cfg.db_time;
            sc.service = cfg.service;
            sc.max_backlog = cfg.max_backlog;
            sc.queue_timeout = cfg.queue_timeout;
            sc.home_cpu = i % cfg.ncpus;
            sc.pinned = pinned;
            sc.seed = util::derive_stream_seed(cfg.seed, 2 * static_cast<std::uint64_t>(i));
            sites_.push_back(std::make_unique<web::WebSite>(kernel_, sc, &table_, &recorder_));

            traffic::GeneratorConfig gc;
            gc.mode = traffic::GeneratorConfig::Mode::kOpenLoop;
            gc.arrival.base_rps =
                i == 0 ? cfg.base_rps * cfg.protected_rps_mult : cfg.base_rps;
            if (flash_member(cfg, i)) {
                traffic::FlashCrowd spike;
                spike.start = TimePoint{} + cfg.flash_start;
                spike.ramp = cfg.flash_ramp;
                spike.hold = cfg.flash_hold;
                spike.decay = cfg.flash_decay;
                spike.multiplier = cfg.flash_multiplier;
                gc.arrival.spikes.push_back(spike);
                flash_ix_.push_back(static_cast<std::size_t>(i));
            } else if (i != 0) {
                steady_ix_.push_back(static_cast<std::size_t>(i));
            }
            gc.seed = util::derive_stream_seed(cfg.seed,
                                               2 * static_cast<std::uint64_t>(i) + 1);
            web::WebSite* site = sites_.back().get();
            traffic::Generator::SubmitFn submit;
            if (log_ == nullptr) {
                submit = [site] { site->submit(); };
            } else {
                submit = [site, log] {
                    ScopedSpan span(log, Layer::kSubmit);
                    site->submit();
                };
            }
            gens_.push_back(
                std::make_unique<traffic::Generator>(engine_, gc, std::move(submit)));
        }
        if (cfg.deploy == web::Deploy::kPerCoreAlps) deploy_per_core();
    }

    double run() override {
        {
            ScopedSpan span(log_, Layer::kRunUntil);
            engine_.run_until(TimePoint{} + cfg_.warmup);
        }
        completed0_ = recorder_.total_completed();
        protected0_ = recorder_.completed(0);
        busy0_ = kernel_.busy_time();
        for (const AlpsView& a : alps_) alps0_ += kernel_.cpu_time(a.driver_pid);
        {
            ScopedSpan span(log_, Layer::kRunUntil);
            engine_.run_until(TimePoint{} + cfg_.warmup + cfg_.measure);
        }
        return util::to_sec(engine_.now() - TimePoint{});
    }

    SimStats stats() override {
        SimStats s;
        std::uint64_t arrivals = 0;
        for (const auto& g : gens_) arrivals += g->submitted();
        const double window_s = util::to_sec(cfg_.measure);
        const auto ms = [](Duration d) { return util::to_sec(d) * 1e3; };
        const auto merged_p99 = [&](const std::vector<std::size_t>& ix) {
            return ix.empty() ? 0.0 : ms(recorder_.quantile_of(ix, 0.99));
        };
        Duration alps_cpu{0};
        for (const AlpsView& a : alps_) alps_cpu += kernel_.cpu_time(a.driver_pid);
        const std::uint64_t protected_n = recorder_.completed(0);
        const int tail = tail_percentile(protected_n);
        // The first block mirrors web::WebScaleResult field by field; the
        // traced run compares it with the library entry point's result.
        s.emplace_back("traffic.arrivals", as_double(arrivals));
        s.emplace_back("web.completed", as_double(recorder_.total_completed()));
        s.emplace_back("web.drops", as_double(recorder_.total_drops()));
        s.emplace_back("web.timeouts", as_double(recorder_.total_timeouts()));
        s.emplace_back("traffic.peak_in_flight", as_double(table_.peak_in_flight()));
        s.emplace_back("flash_sites", static_cast<double>(flash_ix_.size()));
        s.emplace_back("protected_p50_ms", ms(recorder_.quantile(0, 0.50)));
        s.emplace_back("protected_p95_ms", ms(recorder_.quantile(0, 0.95)));
        s.emplace_back("protected_p99_ms", ms(recorder_.quantile(0, 0.99)));
        s.emplace_back("flash_p99_ms", merged_p99(flash_ix_));
        s.emplace_back("steady_p99_ms", merged_p99(steady_ix_));
        s.emplace_back("protected_rps",
                       static_cast<double>(recorder_.completed(0) - protected0_) / window_s);
        s.emplace_back("goodput_rps",
                       static_cast<double>(recorder_.total_completed() - completed0_) /
                           window_s);
        s.emplace_back("cpu_utilization", util::to_sec(kernel_.busy_time() - busy0_) /
                                              (window_s * cfg_.ncpus));
        s.emplace_back("alps_overhead_fraction",
                       util::to_sec(alps_cpu - alps0_) / (window_s * cfg_.ncpus));
        // Beyond the library's result: the sample behind site A's tail.
        s.emplace_back("protected_samples", as_double(protected_n));
        s.emplace_back("protected_tail_pct", static_cast<double>(tail));
        s.emplace_back("protected_tail_ms",
                       ms(recorder_.quantile(0, static_cast<double>(tail) / 100.0)));
        append_core_counters(engine_, kernel_, alps_, s);
        return s;
    }

    std::pair<std::uint64_t, std::uint64_t> ops() override {
        std::uint64_t arrivals = 0;
        for (const auto& g : gens_) arrivals += g->submitted();
        return {arrivals, recorder_.total_drops() + recorder_.total_timeouts()};
    }

    std::vector<std::pair<bool, std::string>> invariants() override {
        std::uint64_t arrivals = 0;
        for (const auto& g : gens_) arrivals += g->submitted();
        const std::uint64_t accounted = recorder_.total_completed() +
                                        recorder_.total_drops() +
                                        recorder_.total_timeouts();
        const Duration capacity = (engine_.now() - TimePoint{}) * cfg_.ncpus;
        return {
            {accounted <= arrivals, "completed + drops + timeouts <= arrivals"},
            {kernel_.busy_time() <= capacity, "busy time <= ncpus x simulated time"},
            {arrivals > 0 && recorder_.completed(0) > 0, "site A served requests"},
        };
    }

private:
    static os::KernelConfig kernel_config(const web::WebScaleConfig& cfg) {
        os::KernelConfig k;
        k.ncpus = cfg.ncpus;
        k.percpu_queues = cfg.ncpus > 1;
        return k;
    }

    void deploy_per_core() {
        core::SchedulerConfig scfg;
        scfg.quantum = cfg_.quantum;
        scfg.io_accounting = cfg_.io_accounting;
        const auto share_of = [this](int i) {
            return i == 0 ? cfg_.protected_share : cfg_.default_share;
        };
        const auto manage_sites = [&](auto& alps, int c) {
            for (int i = c; i < cfg_.sites; i += cfg_.ncpus) {
                alps.manage_user(indexed("u", i), 1000 + static_cast<os::Uid>(i),
                                 share_of(i));
            }
            alps_.push_back(view_of(alps));
        };
        for (int c = 0; c < cfg_.ncpus; ++c) {
            const std::string name = indexed("alps-c", c);
            if (log_ == nullptr) {
                manage_sites(*library_.emplace_back(std::make_unique<core::SimGroupAlps>(
                                 kernel_, scfg, cfg_.cost, cfg_.refresh_period, name,
                                 /*uid=*/0, /*driver_home_cpu=*/c, /*driver_pinned=*/true,
                                 cfg_.driver_nice)),
                             c);
            } else {
                manage_sites(*traced_.emplace_back(std::make_unique<TracedGroupAlps>(
                                 kernel_, scfg, cfg_.cost, cfg_.refresh_period, name, c,
                                 cfg_.driver_nice, *log_)),
                             c);
            }
        }
    }

    web::WebScaleConfig cfg_;
    SpanLog* log_;
    sim::Engine engine_;
    os::Kernel kernel_;
    traffic::RequestTable table_;
    traffic::LatencyRecorder recorder_;
    std::vector<std::unique_ptr<web::WebSite>> sites_;
    std::vector<std::unique_ptr<traffic::Generator>> gens_;
    std::vector<std::size_t> flash_ix_, steady_ix_;
    std::vector<std::unique_ptr<core::SimGroupAlps>> library_;
    std::vector<std::unique_ptr<TracedGroupAlps>> traced_;
    std::vector<AlpsView> alps_;
    std::uint64_t completed0_ = 0;
    std::uint64_t protected0_ = 0;
    Duration busy0_{0};
    Duration alps0_{0};
};

/// The library entry point's result for the same configuration, under the
/// names WebScenario::stats() gives the same quantities.
SimStats web_library_reference(const web::WebScaleConfig& cfg) {
    const web::WebScaleResult r = web::run_web_scale_experiment(cfg);
    return {
        {"traffic.arrivals", as_double(r.arrivals)},
        {"web.completed", as_double(r.completed)},
        {"web.drops", as_double(r.drops)},
        {"web.timeouts", as_double(r.timeouts)},
        {"traffic.peak_in_flight", as_double(r.peak_in_flight)},
        {"flash_sites", static_cast<double>(r.flash_sites)},
        {"protected_p50_ms", r.protected_p50_ms},
        {"protected_p95_ms", r.protected_p95_ms},
        {"protected_p99_ms", r.protected_p99_ms},
        {"flash_p99_ms", r.flash_p99_ms},
        {"steady_p99_ms", r.steady_p99_ms},
        {"protected_rps", r.protected_rps},
        {"goodput_rps", r.total_rps},
        {"cpu_utilization", r.cpu_utilization},
        {"alps_overhead_fraction", r.overhead_fraction},
        {"alps.boundaries_missed", as_double(r.boundaries_missed)},
        {"os.migrations", as_double(r.migrations)},
        {"os.steals", as_double(r.steals)},
    };
}

// ---------------------------------------------------------------------------
// many_core_percore

/// many_core --full at 256 cores, one ALPS per core: two pinned compute-bound
/// workers per core at shares 1 and 2, 3 warm-up + 60 measured cycles of
/// q = 10 ms. The kernel is BSD, which draws no random numbers: the seed
/// reaches the kernel as its policy seed, as the sweep passes it, and the
/// outputs do not depend on it.
workload::ManyCoreConfig many_core_config(std::uint64_t seed) {
    workload::ManyCoreConfig cfg;
    cfg.ncpus = 256;
    cfg.procs_per_cpu = 2;
    cfg.per_core_alps = true;
    cfg.quantum = util::msec(10);
    cfg.measure_cycles = 60;
    cfg.warmup_cycles = 3;
    cfg.policy_seed = seed;
    return cfg;
}

/// run_many_core_experiment's construction and run, step for step (per-core
/// mode with the default 1,2 share cycle).
class ManyCoreScenario final : public Scenario {
public:
    ManyCoreScenario(const workload::ManyCoreConfig& cfg, SpanLog* log)
        : cfg_(cfg), log_(log), kernel_(engine_, nullptr, kernel_config(cfg)) {
        core::SchedulerConfig scfg;
        scfg.quantum = cfg.quantum;
        const auto reader = [this](core::EntityId id) {
            return kernel_.cpu_time(static_cast<os::Pid>(id));
        };
        util::Share shares_per_instance = 0;
        const auto deploy_core = [&](auto& alps, int c) {
            alps_.push_back(view_of(alps));
            logs_.push_back(std::make_unique<metrics::ExactCycleLog>(reader));
            alps.scheduler().set_cycle_observer(logs_.back()->observer());
            util::Share total = 0;
            for (int j = 0; j < cfg.procs_per_cpu; ++j) {
                const os::Pid pid = kernel_.spawn(
                    indexed("w", c) + indexed("_", j),
                    /*uid=*/100 + static_cast<os::Uid>(c),
                    std::make_unique<os::CpuBoundBehavior>(), /*nice=*/0, c, /*pinned=*/true);
                const util::Share share = j % 3 + 1;
                alps.manage(pid, share);
                total += share;
            }
            shares_per_instance = total;
        };
        for (int c = 0; c < cfg.ncpus; ++c) {
            const std::string name = indexed("alps", c);
            if (log_ == nullptr) {
                deploy_core(*library_.emplace_back(std::make_unique<core::SimAlps>(
                                kernel_, scfg, cfg.cost, name, /*uid=*/0, core::FaultPlan{}, c,
                                /*driver_pinned=*/true)),
                            c);
            } else {
                deploy_core(*traced_.emplace_back(std::make_unique<TracedAlps>(
                                kernel_, scfg, cfg.cost, name, c, *log_)),
                            c);
            }
        }
        total_cycles_ = static_cast<std::size_t>(cfg.warmup_cycles + cfg.measure_cycles);
        const Duration cycle_len = cfg.quantum * shares_per_instance;
        deadline_ = TimePoint{} +
                    cycle_len * static_cast<std::int64_t>(3 * (total_cycles_ + 10));
    }

    double run() override {
        // workload::run_simulation_until: advance a simulated second at a
        // time until every instance has its cycles or the deadline passes.
        const auto done = [this] {
            for (const auto& log : logs_) {
                if (log->cycle_count() < total_cycles_) return false;
            }
            return true;
        };
        while (!done()) {
            if (engine_.now() >= deadline_) {
                timed_out_ = true;
                break;
            }
            ScopedSpan span(log_, Layer::kRunUntil);
            engine_.run_until(std::min(engine_.now() + util::sec(1), deadline_));
        }
        return util::to_sec(engine_.now() - TimePoint{});
    }

    SimStats stats() override {
        SimStats s;
        std::vector<std::vector<core::CycleRecord>> records;
        std::uint64_t cycles = 0;
        Duration alps_cpu{0};
        for (std::size_t c = 0; c < logs_.size(); ++c) {
            cycles += logs_[c]->cycle_count();
            records.push_back(logs_[c]->records());
            alps_cpu += kernel_.cpu_time(alps_[c].driver_pid);
        }
        const metrics::PerCpuFairnessReport fair = metrics::analyze_fairness_per_cpu(
            records, static_cast<std::size_t>(cfg_.warmup_cycles),
            static_cast<std::size_t>(cfg_.measure_cycles));
        const Duration wall = engine_.now() - TimePoint{};
        // The first block mirrors workload::ManyCoreResult.
        s.emplace_back("share_rms_error", fair.mean_rms_share_error);
        s.emplace_back("worst_rms_error", fair.worst_rms_share_error);
        s.emplace_back("alps_overhead_fraction",
                       util::to_sec(wall) > 0.0
                           ? util::to_sec(alps_cpu) / (util::to_sec(wall) * cfg_.ncpus)
                           : 0.0);
        s.emplace_back("cycles_completed", as_double(cycles));
        s.emplace_back("timed_out", timed_out_ ? 1.0 : 0.0);
        append_core_counters(engine_, kernel_, alps_, s);
        return s;
    }

    std::pair<std::uint64_t, std::uint64_t> ops() override {
        std::uint64_t ticks = 0, failed = 0;
        for (const AlpsView& a : alps_) {
            ticks += a.driver->ticks_run();
            const core::HealthReport h = a.scheduler->health();
            failed += h.read_failures + h.control_failures;
        }
        return {ticks, failed};
    }

    std::vector<std::pair<bool, std::string>> invariants() override {
        std::uint64_t cycles = 0;
        for (const auto& log : logs_) cycles += log->cycle_count();
        return {
            {cycles > 0, "cycles completed > 0"},
            {!timed_out_, "every instance finished its cycles before the deadline"},
        };
    }

private:
    static os::KernelConfig kernel_config(const workload::ManyCoreConfig& cfg) {
        os::KernelConfig k;
        k.ncpus = cfg.ncpus;
        k.percpu_queues = true;
        k.policy = cfg.kernel_policy;
        k.policy_seed = cfg.policy_seed;
        return k;
    }

    workload::ManyCoreConfig cfg_;
    SpanLog* log_;
    sim::Engine engine_;
    os::Kernel kernel_;
    std::vector<std::unique_ptr<core::SimAlps>> library_;
    std::vector<std::unique_ptr<TracedAlps>> traced_;
    std::vector<AlpsView> alps_;
    std::vector<std::unique_ptr<metrics::ExactCycleLog>> logs_;
    std::size_t total_cycles_ = 0;
    TimePoint deadline_{};
    bool timed_out_ = false;
};

SimStats many_core_library_reference(const workload::ManyCoreConfig& cfg) {
    const workload::ManyCoreResult r = workload::run_many_core_experiment(cfg);
    return {
        {"share_rms_error", r.mean_rms_error},
        {"worst_rms_error", r.worst_rms_error},
        {"alps_overhead_fraction", r.overhead_fraction},
        {"cycles_completed", as_double(r.cycles_completed)},
        {"timed_out", r.timed_out ? 1.0 : 0.0},
        {"alps.ticks", as_double(r.ticks)},
        {"alps.measurements", as_double(r.measurements)},
        {"alps.boundaries_missed", as_double(r.boundaries_missed)},
        {"os.migrations", as_double(r.migrations)},
        {"os.steals", as_double(r.steals)},
        {"sim.end_ns", as_double(r.wall)},
    };
}

// ---------------------------------------------------------------------------
// Repetitions

std::unique_ptr<Scenario> make_scenario(SimWorkload w, std::uint64_t seed, SpanLog* log) {
    switch (w) {
        case SimWorkload::kWebFlashPercore:
            return std::make_unique<WebScenario>(web_config(true, seed), log);
        case SimWorkload::kWebFlashKernel:
            return std::make_unique<WebScenario>(web_config(false, seed), log);
        case SimWorkload::kManyCorePercore:
            return std::make_unique<ManyCoreScenario>(many_core_config(seed), log);
    }
    return nullptr;
}

SimStats library_reference(SimWorkload w, std::uint64_t seed) {
    switch (w) {
        case SimWorkload::kWebFlashPercore:
            return web_library_reference(web_config(true, seed));
        case SimWorkload::kWebFlashKernel:
            return web_library_reference(web_config(false, seed));
        case SimWorkload::kManyCorePercore:
            return many_core_library_reference(many_core_config(seed));
    }
    return {};
}

struct Rep {
    double setup_cpu_s = 0.0;
    double run_cpu_s = 0.0;
    double run_wall_s = 0.0;
    double sim_s = 0.0;
    SimStats stats;
};

/// Constructs, runs and reads back one scenario, charging its operations
/// and invariants to `out`. `log` (optional) traces it; set-up spans are
/// dropped so the log holds the run alone.
Rep run_rep(SimWorkload w, std::uint64_t seed, SpanLog* log, WorkloadReport& out) {
    Rep rep;
    const double c0 = process_cpu_s();
    std::unique_ptr<Scenario> sc = make_scenario(w, seed, log);
    const double c1 = process_cpu_s();
    if (log != nullptr) log->clear();
    const double w1 = wall_s();
    rep.sim_s = sc->run();
    rep.run_cpu_s = process_cpu_s() - c1;
    rep.run_wall_s = wall_s() - w1;
    rep.setup_cpu_s = c1 - c0;
    rep.stats = sc->stats();
    const auto [attempted, failed] = sc->ops();
    out.attempted += attempted;
    out.failed += failed;
    for (const auto& [ok, what] : sc->invariants()) {
        out.gate(ok, what + " (seed " + std::to_string(seed) + ")");
    }
    return rep;
}

/// CPU time of one scenario construction (the scenario is then discarded).
double setup_only(SimWorkload w, std::uint64_t seed) {
    const double c0 = process_cpu_s();
    const std::unique_ptr<Scenario> sc = make_scenario(w, seed, nullptr);
    return process_cpu_s() - c0;
}

const char* workload_name(SimWorkload w) {
    switch (w) {
        case SimWorkload::kWebFlashPercore: return "web_flash_percore";
        case SimWorkload::kWebFlashKernel: return "web_flash_kernel";
        case SimWorkload::kManyCorePercore: return "many_core_percore";
    }
    return "?";
}

void add_outcomes(SimWorkload w, const SimStats& s, WorkloadReport& out) {
    const auto put = [&](const std::string& name, double v, const char* unit) {
        out.outcomes.push_back({name, v, unit});
    };
    if (w == SimWorkload::kManyCorePercore) {
        put("share_rms_pct", 100.0 * stat(s, "share_rms_error"), "%");
        put("worst_rms_pct", 100.0 * stat(s, "worst_rms_error"), "%");
        put("alps_overhead_pct", 100.0 * stat(s, "alps_overhead_fraction"), "%");
        put("boundaries_missed", stat(s, "alps.boundaries_missed"), "count");
        put("cycles_completed", stat(s, "cycles_completed"), "count");
        return;
    }
    put("protected_p50_ms", stat(s, "protected_p50_ms"), "ms");
    put("protected_p95_ms", stat(s, "protected_p95_ms"), "ms");
    put("protected_p" + std::to_string(static_cast<int>(stat(s, "protected_tail_pct"))) +
            "_ms",
        stat(s, "protected_tail_ms"), "ms");
    put("protected_samples", stat(s, "protected_samples"), "count");
    put("goodput_rps", stat(s, "goodput_rps"), "1/s");
    put("cpu_utilization_pct", 100.0 * stat(s, "cpu_utilization"), "%");
    if (w == SimWorkload::kWebFlashPercore) {
        put("alps_overhead_pct", 100.0 * stat(s, "alps_overhead_fraction"), "%");
        put("boundaries_missed", stat(s, "alps.boundaries_missed"), "count");
    }
    put("drops", stat(s, "web.drops"), "count");
    put("timeouts", stat(s, "web.timeouts"), "count");
}

Counters counters_of(const SimStats& s) {
    Counters c;
    for (const auto& [k, v] : s) c[k] = v;
    return c;
}

/// Timed repetitions: every end-to-end metric, from the untraced scenario.
void run_timed(SimWorkload w, const RunOptions& opts, WorkloadReport& out) {
    const double end = wall_s() + opts.seconds;
    // Set-up is milliseconds to a few hundred milliseconds of CPU: take the
    // median of several constructions (the first ones also warm the
    // allocator). The held-out seed's run then warms the rest of the
    // process, so no timed run pays first-touch costs.
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) setups.push_back(setup_only(w, opts.seed));
    run_rep(w, held_out_seed(opts.seed), nullptr, out);

    std::vector<double> speeds;
    SimStats first;
    double rep_wall = 0.0;
    while (speeds.size() < 3 || wall_s() + 0.5 * rep_wall < end) {
        const Rep rep = run_rep(w, opts.seed, nullptr, out);
        setups.push_back(rep.setup_cpu_s);
        speeds.push_back(rep.sim_s / rep.run_cpu_s);
        rep_wall = std::max(rep_wall, rep.run_wall_s);
        if (speeds.size() == 1) {
            first = rep.stats;
        } else {
            const std::string diff = stats_diff(first, rep.stats);
            out.gate(diff.empty(), "repetitions of one seed differ in: " + diff);
        }
    }
    out.metrics.push_back({"sim_speed", median(speeds), "s/s"});
    out.metrics.push_back({"setup_s", median(setups), "s"});
    out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    add_outcomes(w, first, out);
    // The exact work counters of the run (layer-prefixed names); they repeat
    // exactly for a seed.
    for (const auto& [name, value] : first) {
        if (name.find('.') != std::string::npos) out.counters.push_back({name, value, "count"});
    }
    out.outcomes.push_back({"timed_repetitions", static_cast<double>(speeds.size()), "count"});
    out.outcomes.push_back({"sim_speed_min", *std::min_element(speeds.begin(), speeds.end()), "s/s"});
    out.outcomes.push_back({"sim_speed_max", *std::max_element(speeds.begin(), speeds.end()), "s/s"});
}

/// The traced run: the held-out seed's invariants (which also warms the
/// process), the untraced scenario, the same scenario traced (their
/// statistics must be bit-identical), and the library entry point on the
/// same seed (must agree with both). Further untraced/traced pairs fill the
/// rest of the run; the tracing overhead is the median over the pairs.
void run_traced(SimWorkload w, const RunOptions& opts, WorkloadReport& out) {
    const double end = wall_s() + opts.seconds;
    run_rep(w, held_out_seed(opts.seed), nullptr, out);
    const Rep plain = run_rep(w, opts.seed, nullptr, out);
    SpanLog log;
    const Rep traced = run_rep(w, opts.seed, &log, out);
    const std::string diff = stats_diff(plain.stats, traced.stats);
    out.gate(diff.empty(), "traced run's simulated statistics differ in: " + diff);

    std::string lib_diff;
    for (const auto& [name, value] : library_reference(w, opts.seed)) {
        if (!bit_equal(value, stat(plain.stats, name))) {
            lib_diff += (lib_diff.empty() ? "" : ",") + name;
        }
    }
    out.gate(lib_diff.empty(),
             "benchmark scenario differs from the library entry point in: " + lib_diff);

    std::vector<double> overheads{100.0 * (traced.run_cpu_s - plain.run_cpu_s) /
                                  plain.run_cpu_s};
    const double pair_wall = plain.run_wall_s + traced.run_wall_s;
    while (wall_s() + pair_wall < end) {
        const Rep p = run_rep(w, opts.seed, nullptr, out);
        SpanLog scratch;
        const Rep t = run_rep(w, opts.seed, &scratch, out);
        overheads.push_back(100.0 * (t.run_cpu_s - p.run_cpu_s) / p.run_cpu_s);
    }
    append_layer_metrics(counters_of(plain.stats), log, median(overheads), out.metrics);
    add_outcomes(w, plain.stats, out);
    out.outcomes.push_back(
        {"overhead_pairs", static_cast<double>(overheads.size()), "count"});
    if (!opts.trace_dir.empty()) {
        const std::string path =
            opts.trace_dir + "/" + workload_name(w) + ".spans.tsv.gz";
        out.gate(log.write(path), "span file written to " + path);
    }
}

}  // namespace

void run_sim_workload(SimWorkload workload, const RunOptions& opts, WorkloadReport& out) {
    if (opts.trace) {
        run_traced(workload, opts, out);
    } else {
        run_timed(workload, opts, out);
    }
}

}  // namespace alps::perfbench
