#include "web/site.h"

#include <memory>
#include <utility>

#include "os/behaviors.h"
#include "util/assert.h"

namespace alps::web {

using traffic::kNoRequest;
using traffic::ReqId;
using util::Duration;
using util::TimePoint;

// ----------------------------------------------------------------------------
// Worker

/// One Apache child. The phase machine walks a request through its class's
/// CPU/DB stages, blocking between requests with its pid on the site's idle
/// list so the site can wake exactly one worker per submission.
class WebSite::WorkerBehavior final : public os::Behavior {
public:
    explicit WorkerBehavior(WebSite& site) : site_(site) {}

    os::Action next_action(os::ProcContext ctx) override {
        for (;;) {
            if (req_ == kNoRequest) {
                // Between requests: the master's retirement point, and the
                // only place a worker goes idle.
                if (site_.retire_pending_ > 0) {
                    --site_.retire_pending_;
                    --site_.workers_alive_;
                    return os::ExitAction{};
                }
                if (site_.queue_.empty()) {
                    site_.idle_.push_back(ctx.pid);
                    return os::BlockAction{};
                }
                const TimePoint now = ctx.kernel.now();
                ReqId id = site_.queue_.pop();
                // Queue-deadline shedding happens at pickup: the overloaded
                // path is exactly the path with a worker already here, and
                // a shed costs no timer. Disabled (the default) this block
                // never touches a request.
                if (site_.cfg_.queue_timeout > Duration::zero()) {
                    while (now - site_.table_->arrival(id) > site_.cfg_.queue_timeout) {
                        site_.recorder_->timeout(site_.cfg_.site_index);
                        site_.table_->release(id);
                        if (site_.queue_.empty()) {
                            id = kNoRequest;
                            break;
                        }
                        id = site_.queue_.pop();
                    }
                    if (id == kNoRequest) continue;
                }
                req_ = id;
                phase_index_ = 0;
            }
            const auto& phases =
                site_.classes_[site_.table_->klass(req_)].phases;
            if (phase_index_ < phases.size()) {
                const RequestPhase& ph = phases[phase_index_++];
                const Duration d = site_.draw(ph.mean);
                if (ph.db) return os::SleepAction{d};
                return os::RunAction{d};
            }
            site_.record_completion(ctx.kernel.now(), req_);
            req_ = kNoRequest;
        }
    }

private:
    WebSite& site_;
    std::size_t phase_index_ = 0;
    ReqId req_ = kNoRequest;
};

// ----------------------------------------------------------------------------
// Master

/// Master housekeeping cadence and its (small) CPU cost.
constexpr Duration kMasterPeriod = util::sec(1);
constexpr Duration kMasterCpu = util::usec(200);

/// The Apache parent: wakes up every kMasterPeriod, pays a little CPU, and
/// regulates the worker pool like prefork's idle-spare maintenance.
class WebSite::MasterBehavior final : public os::Behavior {
public:
    explicit MasterBehavior(WebSite& site) : site_(site) {}

    os::Action next_action(os::ProcContext) override {
        if (just_ran_) {
            just_ran_ = false;
            site_.regulate();
            return os::SleepAction{kMasterPeriod};
        }
        just_ran_ = true;
        return os::RunAction{kMasterCpu};
    }

private:
    WebSite& site_;
    bool just_ran_ = false;
};

// ----------------------------------------------------------------------------
// WebSite

std::vector<RequestClass> bulletin_board_mix(double submission_fraction) {
    ALPS_EXPECT(submission_fraction >= 0.0 && submission_fraction < 1.0);
    std::vector<RequestClass> mix;
    // "Read a story": parse the PHP, fetch story + comments, render the page.
    mix.push_back({"read-story", 1.0 - submission_fraction,
                   {{false, util::msec(4)}, {true, util::msec(50)},
                    {false, util::msec(6)}}});
    // "Submit a comment": parse, validate-and-insert (two DB round trips
    // with validation CPU in between), render the confirmation.
    mix.push_back({"submit-comment", submission_fraction,
                   {{false, util::msec(3)}, {true, util::msec(30)},
                    {false, util::msec(2)}, {true, util::msec(30)},
                    {false, util::msec(2)}}});
    return mix;
}

WebSite::WebSite(os::Kernel& kernel, SiteConfig cfg,
                 traffic::RequestTable* table, traffic::LatencyRecorder* recorder)
    : kernel_(kernel), cfg_(std::move(cfg)), rng_(cfg_.seed) {
    ALPS_EXPECT(cfg_.max_workers >= 1);
    ALPS_EXPECT(cfg_.initial_workers >= 1);
    ALPS_EXPECT(cfg_.initial_workers <= cfg_.max_workers);

    if (table != nullptr) {
        table_ = table;
    } else {
        owned_table_ = std::make_unique<traffic::RequestTable>();
        table_ = owned_table_.get();
    }
    if (recorder != nullptr) {
        ALPS_EXPECT(cfg_.site_index < recorder->sites());
        recorder_ = recorder;
    } else {
        owned_recorder_ =
            std::make_unique<traffic::LatencyRecorder>(cfg_.site_index + 1);
        recorder_ = owned_recorder_.get();
    }

    if (cfg_.classes.empty()) {
        classes_.push_back({"request", 1.0,
                            {{false, cfg_.parse_cpu},
                             {true, cfg_.db_time},
                             {false, cfg_.render_cpu}}});
    } else {
        classes_ = cfg_.classes;
    }
    for (const RequestClass& rc : classes_) {
        ALPS_EXPECT(rc.weight > 0.0);
        ALPS_EXPECT(!rc.phases.empty());
        for (const RequestPhase& ph : rc.phases) {
            ALPS_EXPECT(ph.mean > util::Duration::zero());
        }
        weight_total_ += rc.weight;
    }

    for (int i = 0; i < cfg_.initial_workers; ++i) spawn_worker();
    master_pid_ = kernel_.spawn(cfg_.name + "-master", cfg_.uid,
                                std::make_unique<MasterBehavior>(*this),
                                /*nice=*/0, cfg_.home_cpu, cfg_.pinned);
}

WebSite::~WebSite() = default;

void WebSite::spawn_worker() {
    ++workers_alive_;
    ++workers_spawned_;
    kernel_.spawn(cfg_.name + "-w" + std::to_string(workers_spawned_), cfg_.uid,
                  std::make_unique<WorkerBehavior>(*this), /*nice=*/0,
                  cfg_.home_cpu, cfg_.pinned);
}

void WebSite::regulate() {
    const int idle = static_cast<int>(idle_.size()) - retire_pending_;
    if (idle < cfg_.min_spare && workers_alive_ < cfg_.max_workers) {
        const int want = std::min(cfg_.spawn_batch, cfg_.max_workers - workers_alive_);
        for (int i = 0; i < want; ++i) spawn_worker();
    } else if (idle > cfg_.max_spare && workers_alive_ > cfg_.initial_workers) {
        // Retire surplus idlers: wake them; they exit at take_or_block().
        int surplus = std::min(idle - cfg_.max_spare,
                               workers_alive_ - cfg_.initial_workers);
        while (surplus-- > 0 && !idle_.empty()) {
            ++retire_pending_;
            const os::Pid worker = idle_.back();
            idle_.pop_back();
            kernel_.wakeup(worker);
        }
    }
}

util::Duration WebSite::draw(Duration mean) {
    return cfg_.service.draw(rng_, mean);
}

std::size_t WebSite::draw_class() {
    if (classes_.size() == 1) return 0;
    double roll = rng_.next_double() * weight_total_;
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        roll -= classes_[i].weight;
        if (roll < 0.0) return i;
    }
    return classes_.size() - 1;
}

bool WebSite::submit() {
    if (cfg_.max_backlog != 0 && queue_.size() >= cfg_.max_backlog) {
        recorder_->drop(cfg_.site_index);
        return false;
    }
    const std::size_t klass = draw_class();
    const ReqId id = table_->create(cfg_.site_index,
                                    static_cast<std::uint16_t>(klass),
                                    kernel_.now());
    queue_.push(id);
    if (!idle_.empty()) {
        const os::Pid worker = idle_.back();
        idle_.pop_back();
        kernel_.wakeup(worker);
    }
    return true;
}

void WebSite::set_completion_hook(std::function<void(Duration)> hook) {
    on_complete_ = std::move(hook);
}

std::uint64_t WebSite::drops() const { return recorder_->drops(cfg_.site_index); }

std::uint64_t WebSite::timeouts() const {
    return recorder_->timeouts(cfg_.site_index);
}

void WebSite::record_completion(TimePoint now, ReqId id) {
    ++completed_;
    const Duration response = now - table_->arrival(id);
    total_response_ += response;
    recorder_->record(cfg_.site_index, response);
    if (on_complete_) on_complete_(response);
    table_->release(id);
}

}  // namespace alps::web
