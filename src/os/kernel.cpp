#include "os/kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "os/policies/factory.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "util/assert.h"

namespace alps::os {

using util::Duration;
using util::TimePoint;

/// Period of the schedcpu housekeeping (estcpu decay, load average).
constexpr Duration kSchedcpuPeriod = util::sec(1);
/// Time constant of the load-average EWMA (4.4BSD's 1-minute average).
constexpr Duration kLoadavgTau = util::sec(60);
/// The deadline of a domain with no runner.
constexpr TimePoint kNever{Duration::max()};

namespace {

/// The earlier of two instants. By value, so a running minimum compiles to
/// a conditional move rather than std::min's branch on a reference.
constexpr TimePoint earlier(TimePoint a, TimePoint b) { return b < a ? b : a; }

/// Calls f(lo, hi) for every run [lo, hi) of consecutive domains whose bits
/// are set in `set`, in index order (a run ends at a word boundary). With
/// every bit set this is one flat loop per 64 domains.
template <class F>
void for_each_run(const std::vector<std::uint64_t>& set, F&& f) {
    for (std::size_t w = 0; w < set.size(); ++w) {
        for (std::uint64_t bits = set[w]; bits != 0;) {
            const int lo = std::countr_zero(bits);
            const int hi = lo + std::countr_one(bits >> lo);
            f(w * 64 + static_cast<std::size_t>(lo), w * 64 + static_cast<std::size_t>(hi));
            bits = hi == 64 ? 0 : bits & (~std::uint64_t{0} << hi);
        }
    }
}

/// The scheduling domains the single-policy constructor runs: `policy`
/// alone, or one instance per domain built by name.
std::vector<std::unique_ptr<SchedPolicy>> make_domains(std::unique_ptr<SchedPolicy> policy,
                                                       const KernelConfig& cfg) {
    std::vector<std::unique_ptr<SchedPolicy>> domains;
    // A pre-constructed policy object is inherently single-instance, so it
    // implies the shared global queue.
    ALPS_EXPECT(policy == nullptr || !cfg.percpu_queues);
    if (policy != nullptr) {
        domains.push_back(std::move(policy));
        return domains;
    }
    // An unknown cfg.policy name throws here — a mistyped experiment config
    // must fail loudly, never silently run under BSD. Under per-CPU domains
    // each instance gets its own derived seed so the lottery domains draw
    // decorrelated streams.
    const int n = cfg.percpu_queues ? cfg.ncpus : 1;
    for (int d = 0; d < n; ++d) {
        domains.push_back(policies::make_policy(
            cfg.policy, {.seed = cfg.policy_seed + static_cast<std::uint64_t>(d)}));
    }
    return domains;
}

}  // namespace

Kernel::Kernel(sim::Engine& engine, std::unique_ptr<SchedPolicy> policy, KernelConfig cfg)
    : Kernel(engine, make_domains(std::move(policy), cfg), cfg) {}

Kernel::Kernel(sim::Engine& engine, std::vector<std::unique_ptr<SchedPolicy>> domains,
               KernelConfig cfg)
    : engine_(engine), domains_(std::move(domains)), cfg_(std::move(cfg)) {
    ALPS_EXPECT(cfg_.ncpus >= 1);
    ALPS_EXPECT(domains_.size() ==
                (cfg_.percpu_queues ? static_cast<std::size_t>(cfg_.ncpus) : 1u));
    for (const auto& d : domains_) ALPS_EXPECT(d != nullptr);
    // Each domain serves a contiguous, equal CPU range: [0, ncpus) for the
    // shared queue, {d} for per-CPU domain d. cfg_.percpu_queues is not read
    // past this point.
    cpus_per_domain_ = cfg_.ncpus / static_cast<int>(domains_.size());
    tick_scratch_.resize(domains_.size());
    marked_.assign((domains_.size() + 63) / 64, 0);
    pass_.assign(marked_.size(), 0);
    deadlines_.assign(domains_.size(), kNever);
    running_.assign(static_cast<std::size_t>(cfg_.ncpus), nullptr);
    last_on_cpu_.assign(static_cast<std::size_t>(cfg_.ncpus), kNoPid);
    table_.push_back(nullptr);  // slot 0: kNoPid, never issued
    decision_kind_ = engine_.register_hot(&Kernel::on_decision_timer, this);
    wake_kind_ = engine_.register_hot(&Kernel::on_timer_wake, this);
    tick_kind_ = engine_.register_hot(&Kernel::on_second_tick, this);
    engine_.schedule_after(kSchedcpuPeriod, tick_kind_, 0);
}

Kernel::~Kernel() {
    // Proc records live in the arena; run their destructors (name, behaviour)
    // here — the bytes go back with the arena.
    for (Proc* p : table_) {
        if (p != nullptr) p->~Proc();
    }
}

void Kernel::on_decision_timer(void* self, std::uint64_t) {
    auto& k = *static_cast<Kernel*>(self);
    // The event was armed at the earliest domain deadline by the last
    // schedule() call, and only schedule() moves a deadline.
    bool due = false;
    for (std::size_t d = 0; d < k.deadlines_.size(); ++d) {
        if (k.deadlines_[d] <= k.now()) {
            ALPS_ENSURE(k.deadlines_[d] == k.now());
            k.mark_domain(d);
            due = true;
        }
    }
    ALPS_ENSURE(due);
    k.schedule();
}

void Kernel::on_timer_wake(void* self, std::uint64_t arg) {
    static_cast<Kernel*>(self)->timer_wake(static_cast<Pid>(arg));
}

void Kernel::on_second_tick(void* self, std::uint64_t) {
    static_cast<Kernel*>(self)->second_tick();
}

// ----------------------------------------------------------------------------
// Process table

Pid Kernel::spawn(std::string name, Uid uid, std::unique_ptr<Behavior> behavior, int nice,
                  int home_cpu, bool pinned) {
    ALPS_EXPECT(behavior != nullptr);
    ALPS_EXPECT(home_cpu >= -1 && home_cpu < cfg_.ncpus);
    const Pid pid = next_pid_++;
    Proc* owned = engine_.arena().create<Proc>();
    Proc& p = *owned;
    p.pid = pid;
    p.name = std::move(name);
    p.uid = uid;
    p.nice = nice;
    p.state = RunState::kRunnable;
    p.behavior = std::move(behavior);
    p.last_charge = now();
    // Default placement: deal new pids round-robin across the CPUs; the
    // process queues on the domain serving that CPU (always 0 under the
    // shared queue).
    p.home_cpu = (home_cpu >= 0 ? home_cpu : (pid - 1) % cfg_.ncpus) / cpus_per_domain_;
    p.pinned = pinned;
    if (!pinned) ++unpinned_;
    ALPS_ENSURE(static_cast<std::size_t>(pid) == table_.size());
    table_.push_back(owned);
    std::vector<Proc*>& members = by_uid_[uid];
    p.uid_index = members.size();
    members.push_back(&p);
    open_event(p);
    dom(p).add(p);

    const Action first = p.behavior->next_action({*this, pid});
    apply_action(p, first);
    schedule();
    return pid;
}

void Kernel::reap(Pid pid) {
    Proc& p = proc_mut(pid);
    ALPS_EXPECT(p.state == RunState::kZombie);
    p.~Proc();  // arena-backed: destroy in place, the arena keeps the bytes
    table_[static_cast<std::size_t>(pid)] = nullptr;
}

const Proc* Kernel::lookup(Pid pid) const {
    if (pid <= 0 || static_cast<std::size_t>(pid) >= table_.size()) return nullptr;
    return table_[static_cast<std::size_t>(pid)];
}

Proc& Kernel::proc_mut(Pid pid) {
    Proc* p = pid > 0 && static_cast<std::size_t>(pid) < table_.size()
                  ? table_[static_cast<std::size_t>(pid)]
                  : nullptr;
    ALPS_EXPECT(p != nullptr);
    return *p;
}

const Proc& Kernel::proc(Pid pid) const {
    const Proc* p = lookup(pid);
    ALPS_EXPECT(p != nullptr);
    return *p;
}

bool Kernel::alive(Pid pid) const {
    const Proc* p = lookup(pid);
    return p != nullptr && p->state != RunState::kZombie;
}

bool Kernel::exists(Pid pid) const { return lookup(pid) != nullptr; }

Duration Kernel::cpu_time(Pid pid) const {
    const Proc& p = proc(pid);
    Duration t = p.cpu_consumed;
    if (p.on_cpu >= 0) t += now() - p.last_charge;
    return t;
}

bool Kernel::is_blocked(Pid pid) const { return proc(pid).blocked(); }

Kernel::SampleView Kernel::sample(Pid pid) const {
    SampleView s;
    const Proc* p = lookup(pid);
    if (p == nullptr || p->state == RunState::kZombie) return s;
    s.cpu_time = p->cpu_consumed;
    if (p->on_cpu >= 0) s.cpu_time += now() - p->last_charge;
    s.blocked = p->blocked();
    s.stopped = p->stopped;
    s.alive = true;
    return s;
}

std::vector<Pid> Kernel::pids_of_uid(Uid uid) const {
    std::vector<Pid> out;
    pids_of_uid(uid, out);
    return out;
}

void Kernel::pids_of_uid(Uid uid, std::vector<Pid>& out) const {
    out.clear();
    const auto it = by_uid_.find(uid);
    if (it == by_uid_.end()) return;
    out.reserve(it->second.size());
    for (const Proc* p : it->second) out.push_back(p->pid);
}

util::Duration Kernel::busy_time() const {
    Duration t = busy_;
    for (const Proc* p : running_) {
        if (p != nullptr) t += now() - p->last_charge;
    }
    return t;
}

Pid Kernel::running_pid_on(int cpu) const {
    // An out-of-range CPU index means the caller's topology bookkeeping is
    // corrupt; indexing running_ with it would be UB. Abort, don't unwind.
    ALPS_GUARD(cpu >= 0 && cpu < cfg_.ncpus);
    const Proc* p = running_[static_cast<std::size_t>(cpu)];
    return p != nullptr ? p->pid : kNoPid;
}

const SchedPolicy& Kernel::policy_on(int cpu) const {
    ALPS_GUARD(cpu >= 0 && cpu < cfg_.ncpus);
    return *domains_[static_cast<std::size_t>(cpu / cpus_per_domain_)];
}

std::size_t Kernel::eligible_count() const {
    return static_cast<std::size_t>(std::count_if(
        table_.begin(), table_.end(),
        [](const Proc* p) { return p != nullptr && p->eligible(); }));
}

// ----------------------------------------------------------------------------
// Signals and wakeups

void Kernel::send_signal(Pid pid, Signal sig) {
    Proc& p = proc_mut(pid);
    if (p.state == RunState::kZombie) return;
    switch (sig) {
        case Signal::kStop:
            if (p.stopped || p.pending_stop_event != 0) return;
            // A running process only acts on the stop when it next enters
            // the kernel — at the next hardclock tick under the latency
            // model (see KernelConfig::stop_latency_grid).
            if (cfg_.stop_latency_grid > Duration::zero() && p.on_cpu >= 0) {
                const auto grid = cfg_.stop_latency_grid.count();
                const auto boundary = (now().since_epoch.count() / grid + 1) * grid;
                p.pending_stop_event = engine_.schedule_at(
                    TimePoint{Duration{boundary}}, [this, pid] {
                        Proc& target = proc_mut(pid);
                        target.pending_stop_event = 0;
                        if (target.state == RunState::kZombie || target.stopped) return;
                        open_event(target);
                        apply_stop(target);
                        schedule();
                    });
                return;
            }
            open_event(p);
            apply_stop(p);
            break;
        case Signal::kCont:
            // A continue overrides a stop still in flight.
            if (p.pending_stop_event != 0) {
                engine_.cancel(p.pending_stop_event);
                p.pending_stop_event = 0;
            }
            if (!p.stopped) return;
            open_event(p);
            p.stopped = false;
            // 4.4BSD setrunnable(): estcpu was frozen while stopped (schedcpu
            // skips stopped processes); updatepri now credits whole seconds
            // of stop time, exactly like a long sleep.
            dom(p).on_wakeup(p, now() - p.stop_start);
            if (p.state == RunState::kRunnable) {
                p.enqueue_time = now();
                dom(p).enqueue(p);
            }
            break;
        case Signal::kKill:
            open_event(p);
            do_exit(p);
            break;
    }
    schedule();
}

void Kernel::apply_stop(Proc& p) {
    p.stopped = true;
    p.stop_start = now();
    if (p.state == RunState::kRunnable && p.on_cpu < 0) {
        dom(p).dequeue(p);
    }
    // A running process is descheduled by the dispatcher (it is no longer
    // eligible()); a sleeper keeps sleeping, as under job control.
}

void Kernel::wakeup(Pid pid) {
    Proc& p = proc_mut(pid);
    ALPS_EXPECT(p.state == RunState::kSleeping && p.sleep_event == 0);
    open_event(p);
    do_wake(p);
    schedule();
}

void Kernel::timer_wake(Pid pid) {
    Proc& p = proc_mut(pid);
    p.sleep_event = 0;
    ALPS_ENSURE(p.state == RunState::kSleeping);
    open_event(p);
    do_wake(p);
    schedule();
}

void Kernel::do_wake(Proc& p) {
    ALPS_EXPECT(p.state == RunState::kSleeping);
    const Duration slept = now() - p.sleep_start;
    dom(p).on_wakeup(p, slept);
    p.state = RunState::kRunnable;
    if (!p.stopped) {
        // The waker leaves the kernel at its sleep priority: it preempts any
        // user-mode process until its own first dispatch.
        p.wake_boost = true;
        p.enqueue_time = now();
        dom(p).enqueue(p);
    }
}

void Kernel::do_exit(Proc& p) {
    ALPS_EXPECT(p.state != RunState::kZombie);
    if (p.on_cpu >= 0) {
        charge_running(p.on_cpu);
        vacate(p.on_cpu);
    } else if (p.state == RunState::kRunnable && !p.stopped) {
        dom(p).dequeue(p);
    }
    if (p.sleep_event != 0) {
        engine_.cancel(p.sleep_event);
        p.sleep_event = 0;
    }
    if (p.pending_stop_event != 0) {
        engine_.cancel(p.pending_stop_event);
        p.pending_stop_event = 0;
    }
    p.state = RunState::kZombie;
    if (!p.pinned) --unpinned_;
    // Zombies are invisible to pids_of_uid: drop the process from the per-uid
    // cache here (not at reap), keeping the survivors' creation order.
    std::vector<Proc*>& members = by_uid_[p.uid];
    ALPS_ENSURE(members[p.uid_index] == &p);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(p.uid_index));
    for (std::size_t i = p.uid_index; i < members.size(); ++i) {
        members[i]->uid_index = i;
    }
    dom(p).remove(p);
}

// ----------------------------------------------------------------------------
// Phases

void Kernel::complete_phase(Proc& p) {
    const Action a = p.behavior->next_action({*this, p.pid});
    apply_action(p, a);
}

void Kernel::apply_action(Proc& p, const Action& a) {
    if (const auto* run = std::get_if<RunAction>(&a)) {
        if (run->lazy) {
            p.phase_lazy_pending = true;
            p.run_remaining = Duration::zero();
        } else {
            ALPS_EXPECT(run->duration > Duration::zero());
            p.phase_lazy_pending = false;
            p.run_remaining = run->duration;
        }
        // Phase transitions happen either on a CPU (p simply continues with
        // the new demand) or at spawn (p is runnable but not yet queued).
        if (p.on_cpu < 0) {
            ALPS_ENSURE(p.state == RunState::kRunnable && !p.stopped);
            p.enqueue_time = now();
            dom(p).enqueue(p);
        }
        return;
    }
    if (const auto* sl = std::get_if<SleepAction>(&a)) {
        ALPS_EXPECT(sl->duration >= Duration::zero());
        begin_sleep(p, /*timed=*/true, now() + sl->duration);
        return;
    }
    if (const auto* su = std::get_if<SleepUntilAction>(&a)) {
        begin_sleep(p, /*timed=*/true, std::max(su->deadline, now()));
        return;
    }
    if (std::holds_alternative<BlockAction>(a)) {
        begin_sleep(p, /*timed=*/false, TimePoint{});
        return;
    }
    ALPS_ENSURE(std::holds_alternative<ExitAction>(a));
    do_exit(p);
}

void Kernel::begin_sleep(Proc& p, bool timed, TimePoint wake_at) {
    if (p.on_cpu >= 0) {
        // charge_running() already ran (a phase completes only after a
        // charge), so just vacate the CPU.
        vacate(p.on_cpu);
    }
    p.state = RunState::kSleeping;
    p.sleep_start = now();
    ++p.voluntary_sleeps;
    if (timed) {
        p.sleep_event =
            engine_.schedule_at(wake_at, wake_kind_, static_cast<std::uint64_t>(p.pid));
    }
}

// ----------------------------------------------------------------------------
// The dispatcher

void Kernel::charge_running(int cpu) {
    Proc& p = *running_[static_cast<std::size_t>(cpu)];
    ALPS_GUARD(p.on_cpu == cpu);
    const Duration ran = now() - p.last_charge;
    ALPS_ENSURE(ran >= Duration::zero());
    ++charges_;
    if (ran > Duration::zero()) {
        p.cpu_consumed += ran;
        busy_ += ran;
        if (p.run_remaining != kRunForever) {
            ALPS_ENSURE(p.run_remaining >= ran);
            p.run_remaining -= ran;
        }
        dom(p).charge(p, ran);
    }
    p.last_charge = now();
}

void Kernel::resolve_phase(int cpu) {
    // Bounded: a behaviour may chain a few zero-length phases (the ALPS
    // driver's no-op invocation) but not spin forever.
    int guard = 0;
    while (running_[static_cast<std::size_t>(cpu)] != nullptr) {
        Proc& p = *running_[static_cast<std::size_t>(cpu)];
        if (p.phase_lazy_pending) {
            ALPS_ENSURE(++guard < 64);
            p.phase_lazy_pending = false;
            const Duration d = p.behavior->lazy_run_duration({*this, p.pid});
            ALPS_EXPECT(d >= Duration::zero());
            p.run_remaining = d;
        } else if (p.run_remaining == Duration::zero()) {
            ALPS_ENSURE(++guard < 64);
            complete_phase(p);  // may sleep/exit -> vacates the CPU
        } else {
            return;  // has real work
        }
    }
}

void Kernel::dispatch(Proc& p, int cpu) {
    ALPS_EXPECT(p.state == RunState::kRunnable && !p.stopped);
    ALPS_EXPECT(running_[static_cast<std::size_t>(cpu)] == nullptr);
    // Dispatching a process that still claims a CPU would leave running_[]
    // and on_cpu disagreeing — corrupted accounting, so abort, don't unwind.
    ALPS_GUARD(p.on_cpu < 0);
    p.state = RunState::kRunning;
    p.on_cpu = cpu;
    running_[static_cast<std::size_t>(cpu)] = &p;
    p.last_charge = now();
    p.slice_end = now() + dom(p).slice();
    ++p.dispatches;
    if (p.pid != last_on_cpu_[static_cast<std::size_t>(cpu)]) {
        ++context_switches_;
        last_on_cpu_[static_cast<std::size_t>(cpu)] = p.pid;
    }
    if (telemetry::active()) {
        telemetry::span_begin_at(
            static_cast<std::uint64_t>(now().since_epoch.count()),
            telemetry::kNameRunning, static_cast<std::uint32_t>(p.pid));
    }
    if (p.wake_boost) {
        // The boost covered kernel exit; from here the process runs at user
        // priority. Re-evaluate preemption: past its scalability threshold,
        // this is where an overloaded ALPS loses the CPU to the workload
        // before doing any of its work (paper §4.2).
        p.wake_boost = false;
        resched_ = true;
    }
}

void Kernel::vacate(int cpu) {
    Proc* p = running_[static_cast<std::size_t>(cpu)];
    ALPS_EXPECT(p != nullptr);
    if (p->state == RunState::kRunning) p->state = RunState::kRunnable;
    p->on_cpu = -1;
    running_[static_cast<std::size_t>(cpu)] = nullptr;
    if (telemetry::active()) {
        telemetry::span_end_at(
            static_cast<std::uint64_t>(now().since_epoch.count()),
            telemetry::kNameRunning, static_cast<std::uint32_t>(p->pid));
    }
}

void Kernel::open_event(const Proc& p) {
    const auto d = static_cast<std::size_t>(p.home_cpu);
    // The domain's runners were last charged at its last event, which can
    // be a whole slice ago: charge them up to now before a hook reads them.
    for (int c = first_cpu(d); c < first_cpu(d) + cpus_per_domain_; ++c) {
        const Proc* r = running_[static_cast<std::size_t>(c)];
        if (r != nullptr && r->last_charge != now()) charge_running(c);
    }
    mark_domain(d);
}

void Kernel::mark_all() {
    std::fill(marked_.begin(), marked_.end(), ~std::uint64_t{0});
    if (const std::size_t tail = domains_.size() % 64; tail != 0) {
        marked_.back() = (std::uint64_t{1} << tail) - 1;
    }
}

TimePoint Kernel::domain_deadline(std::size_t d) const {
    TimePoint next = kNever;
    for (int c = first_cpu(d); c < first_cpu(d) + cpus_per_domain_; ++c) {
        const Proc* p = running_[static_cast<std::size_t>(c)];
        if (p == nullptr) continue;
        TimePoint deadline = p->slice_end;
        if (p->run_remaining != kRunForever) {
            deadline = earlier(deadline, p->last_charge + p->run_remaining);
        }
        next = earlier(next, deadline);
    }
    return next;
}

void Kernel::arm_decision_timer() {
    // One event at the earliest deadline of any domain is enough. It is
    // re-armed on every call even when that deadline did not move: the
    // engine fires same-time events in scheduling order, and a kept event
    // would fire before a same-time wakeup scheduled after it, which
    // changes schedules (DESIGN §11).
    if (decision_event_ != 0) engine_.cancel(decision_event_);
    decision_event_ = 0;
    // Only a marked domain's deadline can have moved.
    for_each_run(marked_, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t d = lo; d < hi; ++d) deadlines_[d] = domain_deadline(d);
    });
    std::fill(marked_.begin(), marked_.end(), 0);
    TimePoint next = kNever;
    for (const TimePoint deadline : deadlines_) next = earlier(next, deadline);
    if (next != kNever) decision_event_ = engine_.schedule_at(next, decision_kind_, 0);
}

void Kernel::schedule() {
    // Steal and rebalance may move any unpinned process into any domain, so
    // while one lives every domain takes part in every decision.
    if (unpinned_ > 0) mark_all();
    if (in_schedule_) {
        resched_ = true;
        return;
    }
    in_schedule_ = true;
    do {
        resched_ = false;
        // The pass works on the marks as they stood when it began.
        pass_ = marked_;
        const auto each_domain = [&](auto&& f) {
            for_each_run(pass_, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t d = lo; d < hi; ++d) f(d);
            });
        };
        const auto each_cpu = [&](auto&& f) {
            for_each_run(pass_, [&](std::size_t lo, std::size_t hi) {
                for (int c = first_cpu(lo); c < first_cpu(hi); ++c) f(c);
            });
        };

        // 1. Account for every running process and handle phase completion.
        each_cpu([&](int c) {
            Proc* p = running_[static_cast<std::size_t>(c)];
            if (p == nullptr) return;
            // open_event() or an earlier round may have charged it already.
            if (p->last_charge != now()) charge_running(c);
            if (!p->phase_lazy_pending && p->run_remaining == Duration::zero()) {
                resolve_phase(c);  // finished its work; transition
            }
        });

        // A signal may have stopped (or a hook killed) a process on a CPU.
        each_cpu([&](int c) {
            Proc* p = running_[static_cast<std::size_t>(c)];
            if (p != nullptr && (p->stopped || p->state == RunState::kZombie)) vacate(c);
        });

        // 2. Preemption and round-robin decisions, one queue head per
        // domain, checked against the runners on the domain's CPUs (every
        // CPU for the shared queue, its own CPU for a per-CPU domain).
        each_domain([&](std::size_t d) {
            SchedPolicy& pol = *domains_[d];
            Proc* cand = pol.peek();
            if (cand == nullptr) return;
            const int c_begin = first_cpu(d);
            const int c_end = c_begin + cpus_per_domain_;
            // Find the most preemptable runner: the one every other
            // preemptable runner would itself preempt.
            int victim = -1;
            for (int c = c_begin; c < c_end; ++c) {
                Proc* p = running_[static_cast<std::size_t>(c)];
                if (p == nullptr) continue;
                const bool slice_over = now() >= p->slice_end;
                const bool takeable = pol.preempts(*cand, *p) ||
                                      (slice_over && pol.yields_to(*p, *cand));
                if (!takeable) continue;
                if (victim < 0 ||
                    pol.preempts(*running_[static_cast<std::size_t>(victim)], *p)) {
                    victim = c;
                }
            }
            if (victim >= 0) {
                Proc* v = running_[static_cast<std::size_t>(victim)];
                vacate(victim);
                v->enqueue_time = now();
                pol.enqueue(*v);
                resched_ = true;  // re-evaluate after the fill below
            }
        });
        // Runners that exhausted a slice unopposed get a fresh one.
        each_cpu([&](int c) {
            Proc* p = running_[static_cast<std::size_t>(c)];
            if (p != nullptr && now() >= p->slice_end) {
                p->slice_end = now() + dom(*p).slice();
            }
        });

        // 3. Fill idle CPUs — from the domain's own queue first, then by
        // stealing from the most-loaded peer domain (the shared queue has
        // none). A domain with nothing left leaves its other idle CPUs idle.
        each_domain([&](std::size_t d) {
            SchedPolicy& pol = *domains_[d];
            const int c_begin = first_cpu(d);
            for (int c = c_begin; c < c_begin + cpus_per_domain_; ++c) {
                if (running_[static_cast<std::size_t>(c)] != nullptr) continue;
                Proc* next = pol.pop();
                if (next == nullptr) next = steal_for(d);
                if (next == nullptr) break;
                dispatch(*next, c);
            }
        });

        // 4. Once the picks are stable, resolve lazy/zero-length phases.
        // This is deliberately *after* the post-wakeup preemption re-check so
        // that a process that loses the CPU at user priority has not yet
        // done its work (the ALPS driver's tick must be delayed, not
        // time-shifted).
        if (!resched_) {
            each_cpu([&](int c) {
                if (running_[static_cast<std::size_t>(c)] == nullptr) return;
                resolve_phase(c);
                if (running_[static_cast<std::size_t>(c)] == nullptr) {
                    resched_ = true;  // it left; refill on the next pass
                }
            });
        }
    } while (resched_);
    // 5. Arm the next scheduling decision.
    arm_decision_timer();
    in_schedule_ = false;
}

// ----------------------------------------------------------------------------
// Cross-domain migration (a no-op with the shared queue's single domain)

void Kernel::migrate(Proc& p, std::size_t to) {
    // Only a process that is off every queue and every CPU may move: the
    // old domain's intrusive links must not dangle into the new one.
    ALPS_GUARD(p.rq_index < 0 && p.on_cpu < 0);
    p.home_cpu = static_cast<int>(to);
    dom(p).on_migrate_in(p);
    ++migrations_;
}

Proc* Kernel::steal_for(std::size_t thief) {
    if (unpinned_ == 0) return nullptr;
    // Victim: the peer domain with the most queued work; ties break to the
    // lowest index so the pick is deterministic.
    std::size_t victim = domains_.size();
    std::size_t victim_load = 0;
    for (std::size_t d = 0; d < domains_.size(); ++d) {
        if (d == thief) continue;
        const std::size_t load = domains_[d]->runnable();
        if (load > victim_load) {
            victim_load = load;
            victim = d;
        }
    }
    if (victim == domains_.size()) return nullptr;
    // The stolen process is the victim's queue head, the one that domain
    // would run next; a pinned head stays put and the thief stays idle.
    Proc* p = pop_migratable_head(*domains_[victim]);
    if (p == nullptr) return nullptr;
    migrate(*p, thief);
    ++steals_;
    return p;
}

Proc* Kernel::pop_migratable_head(SchedPolicy& from) {
    Proc* head = from.peek();
    if (head == nullptr || head->pinned) return nullptr;
    Proc* p = from.pop();
    ALPS_ENSURE(p == head);
    return p;
}

void Kernel::rebalance() {
    // Bounded work per schedcpu tick: at most one pass of ncpus moves. Load
    // counts the occupants too, so one spinning process per CPU is "balanced"
    // and a (1 running + 1 queued) vs (idle) split triggers a move. A single
    // domain is always balanced.
    if (unpinned_ == 0) return;
    for (int moves = 0; moves < cfg_.ncpus; ++moves) {
        std::size_t busiest = 0;
        std::size_t idlest = 0;
        std::size_t max_load = 0;
        std::size_t min_load = 0;
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            std::size_t load = domains_[d]->runnable();
            for (int c = first_cpu(d); c < first_cpu(d) + cpus_per_domain_; ++c) {
                if (running_[static_cast<std::size_t>(c)] != nullptr) ++load;
            }
            if (d == 0 || load > max_load) {
                max_load = load;
                busiest = d;
            }
            if (d == 0 || load < min_load) {
                min_load = load;
                idlest = d;
            }
        }
        if (max_load - min_load < 2) return;  // spread of 1 is inherent
        // Pinned processes don't move; a pinned (or no) head on the busiest
        // domain means the imbalance is intentional and this tick's pass
        // stops (the next-busiest domain is at most one move away from
        // balanced anyway under the ncpus-moves bound).
        Proc* p = pop_migratable_head(*domains_[busiest]);
        if (p == nullptr) return;
        migrate(*p, idlest);
        p->enqueue_time = now();
        dom(*p).enqueue(*p);
    }
}

// ----------------------------------------------------------------------------
// Housekeeping

void Kernel::second_tick() {
    // Load average first (an EWMA of the eligible-process count), then let
    // the policy decay its usage estimates with it. GCC may fold this exp at
    // compile time (correctly rounded); for this argument glibc's run-time
    // exp returns the same bits, 0x3fef78992056d459.
    const double alpha =
        std::exp(-util::to_sec(kSchedcpuPeriod) / util::to_sec(kLoadavgTau));
    loadavg_ = loadavg_ * alpha + static_cast<double>(eligible_count()) * (1.0 - alpha);

    // Charge on-CPU processes so their estcpu is current before the decay.
    for (int c = 0; c < cfg_.ncpus; ++c) {
        if (running_[static_cast<std::size_t>(c)] != nullptr) charge_running(c);
    }
    // Each domain decays only its own processes: BSD's estcpu lives on the
    // Proc, so handing every instance the whole machine would apply the
    // decay ncpus times per tick. Rebuilt from the process table each tick
    // — cheaper than maintaining per-domain membership lists through every
    // migration, at one pointer append per process per second. Pids are
    // issued in creation order and never reused, so walking table_ (skipping
    // reaped slots) hands every domain its live and zombie processes in
    // creation order.
    for (std::vector<Proc*>& v : tick_scratch_) v.clear();
    for (Proc* p : table_) {
        if (p != nullptr) tick_scratch_[static_cast<std::size_t>(p->home_cpu)].push_back(p);
    }
    for (std::size_t d = 0; d < domains_.size(); ++d) {
        domains_[d]->second_tick(tick_scratch_[d], loadavg_, now());
    }
    rebalance();

    engine_.schedule_after(kSchedcpuPeriod, tick_kind_, 0);
    // Every domain decayed, so every domain is re-decided.
    mark_all();
    schedule();
}

void Kernel::export_metrics(telemetry::MetricsRegistry& reg,
                            const std::string& prefix) const {
    reg.counter(prefix + "context_switches").add(context_switches_);
    reg.counter(prefix + "spawned").add(static_cast<std::uint64_t>(next_pid_ - 1));
    reg.counter(prefix + "busy_us")
        .add(static_cast<std::uint64_t>(busy_time().count() / 1000));
    reg.counter(prefix + "migrations").add(migrations_);
    reg.counter(prefix + "steals").add(steals_);
    reg.counter(prefix + "charges").add(charges_);
    reg.gauge(prefix + "loadavg").set(loadavg_);
}

}  // namespace alps::os
