// The simulated UNIX kernel: a machine with one or more CPUs, a pluggable
// time-sharing policy, signals, sleep/wakeup, and per-process accounting.
//
// This is the substrate the paper's experiments run on (in place of the
// authors' FreeBSD 4.8 host). It deliberately exposes only what an
// *unprivileged user process* could see or do on such a system, because that
// is the paper's whole premise:
//   * read a process's accumulated CPU time        -> cpu_time()       (getrusage / kvm)
//   * read whether a process sleeps (blocked?)     -> is_blocked()     (kvm wchan)
//   * list a user's processes                      -> pids_of_uid()    (kvm_getprocs)
//   * stop / continue / kill a process             -> send_signal()    (kill(2))
//   * sleep until an instant                       -> SleepUntilAction (nanosleep)
// Everything else — which process runs when — belongs to the kernel policy.
//
// SMP model: the CPUs are split into scheduling domains, each one policy
// instance (run queues + whichqs bitmap) serving a contiguous CPU range.
// By default there is one domain serving every CPU — a single global run
// queue, exactly like FreeBSD 4.x's SMP scheduler (the paper evaluates on a
// uniprocessor; multi-CPU runs back the repository's SMP extension
// experiments). KernelConfig::percpu_queues makes it one domain per CPU,
// with Proc::home_cpu affinity — the structure of every later SMP BSD/Linux
// kernel, and what the 16/64/256-core experiments run on (see DESIGN.md
// §11). One dispatch path serves both: an idle CPU pops its own domain,
// then steals from the most-loaded peer domain, and a periodic rebalance
// hung off schedcpu evens the domains out (both no-ops with one domain).
// A dispatcher pass re-decides only the domains its event touched; while
// every live process is pinned, a domain never sees another's events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/behavior.h"
#include "os/policy.h"
#include "os/proc.h"
#include "os/types.h"
#include "sim/engine.h"
#include "util/time.h"

namespace alps::telemetry {
class MetricsRegistry;
}  // namespace alps::telemetry

namespace alps::os {

struct KernelConfig {
    /// Number of CPUs (the paper's host has one).
    int ncpus = 1;
    /// Signal-delivery latency model. Zero (default) delivers SIGSTOP to a
    /// *running* process instantly — the idealization. A real kernel only
    /// acts on the signal when the process next enters the kernel, i.e. at
    /// the next hardclock tick: set this to the tick period (10 ms on
    /// FreeBSD 4.8 at hz=100) to model that. Stops of non-running processes
    /// and SIGCONT/SIGKILL are immediate either way.
    util::Duration stop_latency_grid{0};
    /// Scheduling policy by name, used when the Kernel is not handed a
    /// constructed policy object (see policies::known_policies() — "bsd",
    /// "lottery", "stride", "cfs"). An unknown name throws
    /// std::invalid_argument from the constructor; it never silently falls
    /// back to BSD.
    std::string policy = "bsd";
    /// Seed for randomized policies built by name (the lottery draws).
    std::uint64_t policy_seed = 0xa1b5'5eedULL;
    /// Per-CPU scheduling domains instead of the shared global run queue:
    /// one policy instance per CPU (built by name from `policy`; domain d
    /// seeds its policy with policy_seed + d), Proc::home_cpu affinity,
    /// idle-steal, and a rebalance pass each schedcpu tick. Off by default —
    /// the shared queue is the FreeBSD 4.x model the paper's experiments
    /// assume, and its schedules are pinned by tests/golden/. A single
    /// pre-constructed policy object cannot serve it; pass one per CPU
    /// instead (Kernel's per-domain constructor).
    bool percpu_queues = false;
};

class Kernel {
public:
    /// The kernel drives (and is driven by) the given event engine. When no
    /// policy object is passed, one is built from cfg.policy/cfg.policy_seed
    /// via policies::make_policy (default: the 4.4BSD scheduler); an unknown
    /// cfg.policy name throws std::invalid_argument.
    /// The kernel also adopts the engine's per-run arena for its Proc
    /// records and registers its recurring timers (decision timer, sleep
    /// wakeups, schedcpu tick) on the engine's devirtualized dispatch path.
    Kernel(sim::Engine& engine, std::unique_ptr<SchedPolicy> policy = nullptr,
           KernelConfig cfg = {});
    /// Per-CPU domains from constructed policies, one per CPU: requires
    /// cfg.percpu_queues and domains.size() == cfg.ncpus. For a policy the
    /// factory does not build by name (a test's recording wrapper).
    Kernel(sim::Engine& engine, std::vector<std::unique_ptr<SchedPolicy>> domains,
           KernelConfig cfg);
    ~Kernel();

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    // ----- process lifecycle -----

    /// Creates a process; its behaviour's first action takes effect
    /// immediately. Returns the new pid. `home_cpu` places the process on
    /// the scheduling domain serving that CPU (-1 = round-robin by pid, the
    /// default placement) and `pinned` makes that placement hard: idle-steal
    /// and rebalance never move a pinned process, and a pinned queue head
    /// stops them (Proc::pinned). Deployments pin a whole domain or none of
    /// it. With the shared queue's single domain both have no effect.
    Pid spawn(std::string name, Uid uid, std::unique_ptr<Behavior> behavior, int nice = 0,
              int home_cpu = -1, bool pinned = false);

    /// Removes a zombie from the process table.
    void reap(Pid pid);

    // ----- the user-visible control surface -----

    void send_signal(Pid pid, Signal sig);

    /// Wakes `pid`, which must be in an untimed sleep (a BlockAction); the
    /// caller names the sleeper it means, like an idle web worker its site
    /// holds. Any other state is a contract violation.
    void wakeup(Pid pid);

    /// True while the pid names a live (non-zombie) process.
    [[nodiscard]] bool alive(Pid pid) const;
    /// True while the pid is in the process table at all (incl. zombies).
    [[nodiscard]] bool exists(Pid pid) const;

    /// Total CPU time consumed, including the in-progress stretch — what
    /// getrusage()/kvm reports.
    [[nodiscard]] util::Duration cpu_time(Pid pid) const;

    /// The paper's §2.4 test: is the process sleeping?
    [[nodiscard]] bool is_blocked(Pid pid) const;

    /// Everything one ALPS measurement needs about a process, read with a
    /// single table lookup (the per-quantum sampling hot path; cpu_time +
    /// is_blocked + proc().stopped would pay the lookup three times).
    /// `alive == false` (with zeroed fields) for unknown, reaped and zombie
    /// pids.
    struct SampleView {
        util::Duration cpu_time{0};
        bool blocked = false;
        bool stopped = false;
        bool alive = false;
    };
    [[nodiscard]] SampleView sample(Pid pid) const;

    /// Live pids owned by `uid`, in creation order (kvm_getprocs analogue).
    [[nodiscard]] std::vector<Pid> pids_of_uid(Uid uid) const;
    /// Allocation-free variant for periodic sampling: clears and refills
    /// `out` from the per-uid member cache (maintained on spawn/exit, so
    /// this is O(answer), not O(process table)).
    void pids_of_uid(Uid uid, std::vector<Pid>& out) const;

    // ----- introspection (tests, metrics) -----

    [[nodiscard]] const Proc& proc(Pid pid) const;
    [[nodiscard]] util::TimePoint now() const { return engine_.now(); }
    [[nodiscard]] sim::Engine& engine() { return engine_; }
    [[nodiscard]] const SchedPolicy& policy() const { return *domains_[0]; }
    [[nodiscard]] SchedPolicy& policy() { return *domains_[0]; }
    /// The policy instance of the domain serving `cpu` (== policy() without
    /// percpu_queues, where all CPUs share domain 0).
    [[nodiscard]] const SchedPolicy& policy_on(int cpu) const;
    [[nodiscard]] int ncpus() const { return cfg_.ncpus; }

    /// Aggregate CPU busy time summed over CPUs, incl. in-progress.
    [[nodiscard]] util::Duration busy_time() const;
    [[nodiscard]] std::uint64_t context_switches() const { return context_switches_; }
    /// Cross-domain process moves (idle-steal + rebalance); 0 without
    /// percpu_queues.
    [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
    /// The idle-steal subset of migrations().
    [[nodiscard]] std::uint64_t steals() const { return steals_; }
    [[nodiscard]] double loadavg() const { return loadavg_; }
    /// Pid of the process on CPU 0 (kNoPid when idle).
    [[nodiscard]] Pid running_pid() const { return running_pid_on(0); }
    /// Pid of the process on the given CPU (kNoPid when idle).
    [[nodiscard]] Pid running_pid_on(int cpu) const;

    /// Registers kernel-wide accounting (`<prefix>context_switches`,
    /// `<prefix>spawned`, `<prefix>busy_us`, `<prefix>migrations`,
    /// `<prefix>steals`, `<prefix>charges` — runner charges, the dispatcher's
    /// unit of work — and `<prefix>loadavg`) in `reg`.
    void export_metrics(telemetry::MetricsRegistry& reg,
                        const std::string& prefix = "kernel.") const;

private:
    /// O(1) pid lookup; nullptr for pids never issued or already reaped.
    [[nodiscard]] const Proc* lookup(Pid pid) const;
    Proc& proc_mut(Pid pid);

    /// The dispatcher. It charges runners, completes finished phases,
    /// checks preemption and (re)fills CPUs only in the domains the event
    /// marked, in domain-index order; every other domain is left as it was,
    /// its runners uncharged. Spawn, a signal (and a delayed stop), a
    /// wakeup and a timer wake mark the process's own domain; the decision
    /// event marks the domains whose deadline is due; the schedcpu tick
    /// marks them all. While any live process is unpinned, steal and
    /// rebalance couple all domains, so every call marks every domain, as
    /// every call does with one domain (the shared queue, one CPU). A fully
    /// pinned multi-domain machine differs by design: a runner is charged
    /// and preemption-checked only at its own domain's events (DESIGN §11).
    /// Re-entrant calls (from behaviour hooks) add their marks and defer to
    /// the outermost invocation's loop.
    void schedule();

    /// Opens an event on the domain `p` queues on and marks it for the next
    /// schedule() call. Called before the event's first policy hook: it
    /// first charges the domain's runners up to now (skipping any already
    /// charged at this instant), so a wakeup's placement or an enqueue's
    /// join sees them as of now, not as of the domain's last event
    /// (DESIGN §11). Only ever called ahead of schedule(): a mark must not
    /// outlive the call it was made for.
    void open_event(const Proc& p);
    void mark_domain(std::size_t d) { marked_[d / 64] |= std::uint64_t{1} << (d % 64); }
    void mark_all();

    /// Charges CPU `cpu`'s process for [last_charge, now].
    void charge_running(int cpu);

    /// While CPU `cpu` has a process, resolve lazy run demands and
    /// zero-length phases until it has real work, or it left the CPU.
    void resolve_phase(int cpu);

    /// Fetches and applies the process's next action (phase transition).
    void complete_phase(Proc& p);
    void apply_action(Proc& p, const Action& a);

    /// Puts the stop into effect (dequeue / mark; the dispatcher deschedules
    /// a running target).
    void apply_stop(Proc& p);

    void begin_sleep(Proc& p, bool timed, util::TimePoint wake_at);
    void timer_wake(Pid pid);
    /// Transitions a sleeper to runnable (respecting the stopped flag).
    void do_wake(Proc& p);
    void do_exit(Proc& p);
    void dispatch(Proc& p, int cpu);
    /// Takes the process off its CPU (state handling is the caller's job).
    void vacate(int cpu);
    /// Refreshes the deadline of every domain this call marked, clears the
    /// marks, and re-arms the one decision event at the earliest deadline
    /// of any domain (none while every CPU is idle).
    void arm_decision_timer();
    /// Domain `d`'s next decision: the earliest `min(slice_end,
    /// last_charge + run_remaining)` over its runners; kNever when idle.
    [[nodiscard]] util::TimePoint domain_deadline(std::size_t d) const;
    void second_tick();

    // ----- per-CPU scheduling domains -----

    /// The policy of the domain a process queues on (Proc::home_cpu).
    [[nodiscard]] SchedPolicy& dom(const Proc& p) {
        return *domains_[static_cast<std::size_t>(p.home_cpu)];
    }
    /// First CPU of domain `d`'s range [first_cpu(d), + cpus_per_domain_).
    [[nodiscard]] int first_cpu(std::size_t d) const {
        return static_cast<int>(d) * cpus_per_domain_;
    }
    /// Idle-steal: domain `thief` has an idle CPU and an empty queue; pull
    /// the queue head of the most-loaded peer domain (ties: lowest index)
    /// unless it is pinned. Returns the migrated process ready to dispatch,
    /// or nullptr — at once, without reading any domain, when every live
    /// process is pinned.
    Proc* steal_for(std::size_t thief);
    /// Periodic load balance (schedcpu cadence): move queue heads from the
    /// deepest domain to the shallowest until the spread is < 2, with a
    /// bounded number of moves per tick; a pinned head ends the pass. A
    /// no-op when every live process is pinned.
    void rebalance();
    /// Pops `from`'s queue head if it is migratable; nullptr (queue
    /// untouched) when the queue is empty or its head is pinned.
    Proc* pop_migratable_head(SchedPolicy& from);
    /// Moves `p` (already off its domain's queues) into domain `to`. Its
    /// scheduling state travels on the Proc; only `to` hears of the move.
    void migrate(Proc& p, std::size_t to);

    // Trampolines for the engine's devirtualized (hot) dispatch: the three
    // recurring timer kinds that dominate steady-state event traffic. They
    // fire with `this` as ctx, so the event loop never builds a std::function.
    static void on_decision_timer(void* self, std::uint64_t arg);
    static void on_timer_wake(void* self, std::uint64_t arg);
    static void on_second_tick(void* self, std::uint64_t arg);

    /// Count of processes that want the CPU (running + queued).
    [[nodiscard]] std::size_t eligible_count() const;

    sim::Engine& engine_;
    /// Scheduling domains: one policy instance per CPU under percpu_queues,
    /// else a single shared instance (domains_[0]) feeding every CPU — the
    /// FreeBSD 4.x model, bit-identical to the pre-domain kernel.
    std::vector<std::unique_ptr<SchedPolicy>> domains_;
    /// CPUs each domain serves: ncpus for the shared queue, 1 per-CPU.
    int cpus_per_domain_ = 1;
    KernelConfig cfg_;

    Pid next_pid_ = 1;
    /// Process table indexed directly by pid (pids are issued sequentially
    /// and never reused, so slot pid holds that process; reaped slots stay
    /// null). Replaces an unordered_map whose hashing dominated the sampling
    /// hot path; the 8 bytes a reaped pid leaves behind are irrelevant at
    /// simulation scale. Pid order is creation order, so walking the table
    /// (skipping null slots) is how second_tick and eligible_count visit
    /// processes. Slot 0 is the unissued kNoPid. Proc records are
    /// placement-newed from the engine's per-run arena (spawn is
    /// allocation-free once the arena is warm); reap and the destructor run
    /// the destructors, the arena reclaims the bytes.
    std::vector<Proc*> table_;
    /// Live (non-zombie) processes per uid, in creation order — the cached
    /// answer to pids_of_uid, maintained at spawn/exit (not reap: zombies
    /// are already invisible to pids_of_uid).
    std::unordered_map<Uid, std::vector<Proc*>> by_uid_;

    std::vector<Proc*> running_;            ///< per-CPU occupant (or null)
    std::vector<Pid> last_on_cpu_;          ///< per-CPU, for switch counting
    sim::EventId decision_event_ = 0;       ///< next scheduling decision

    /// Domains the running schedule() call re-decides, one bit per domain;
    /// empty between calls.
    std::vector<std::uint64_t> marked_;
    /// The marks a pass of the schedule() loop works on: marked_ as it
    /// stood when the pass began, so a domain a hook marks mid-pass is
    /// charged at the start of the next pass before anything decides on it.
    std::vector<std::uint64_t> pass_;
    /// Per-domain decision deadlines: domain_deadline(d) as of domain d's
    /// last pass. The decision event sits at their minimum.
    std::vector<util::TimePoint> deadlines_;

    sim::Engine::HotKind decision_kind_ = 0;  ///< fires schedule()
    sim::Engine::HotKind wake_kind_ = 0;      ///< fires timer_wake(arg = pid)
    sim::Engine::HotKind tick_kind_ = 0;      ///< fires second_tick()

    bool in_schedule_ = false;
    bool resched_ = false;

    util::Duration busy_{0};
    std::uint64_t context_switches_ = 0;
    std::uint64_t migrations_ = 0;  ///< cross-domain moves (steal + rebalance)
    std::uint64_t steals_ = 0;      ///< idle-steal subset of migrations_
    std::uint64_t charges_ = 0;     ///< charge_running calls
    /// Live processes without Proc::pinned (raised at spawn, lowered at
    /// exit; pinned never changes). At 0 every queue head is pinned, so
    /// steal and rebalance cannot move anything and skip their searches.
    std::size_t unpinned_ = 0;
    double loadavg_ = 0.0;

    /// Per-domain scratch for second_tick (rebuilt from table_ each tick;
    /// member to avoid per-tick allocation).
    std::vector<std::vector<Proc*>> tick_scratch_;
};

}  // namespace alps::os
