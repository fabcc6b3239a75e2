// Harness subsystem tests: ThreadPool correctness (run these under TSan via
// scripts/check.sh), deterministic seed derivation, sink aggregation, and the
// load-bearing guarantee that a sweep's JSON metric payload is byte-identical
// for every worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/registry.h"
#include "harness/result.h"
#include "harness/runner.h"
#include "harness/sink.h"
#include "harness/thread_pool.h"
#include "util/assert.h"
#include "util/rng.h"

namespace alps::harness {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 200; ++i) {
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
        pool.wait_idle();
        EXPECT_EQ(count.load(), 200);
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleBlocksUntilAllTasksFinish) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&done] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            done.fetch_add(1, std::memory_order_relaxed);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
        // No wait_idle: destruction must still run everything queued.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] {
        count.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < 5; ++i) {
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
    });
    // wait_idle covers the nested submissions too: the parent task is
    // `active_` while it enqueues, so the pool never looks idle in between.
    pool.wait_idle();
    EXPECT_EQ(count.load(), 6);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran.store(true, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, UsesMultipleWorkerThreads) {
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> seen;
    std::atomic<int> rendezvous{0};
    for (int i = 0; i < 4; ++i) {
        pool.submit([&] {
            rendezvous.fetch_add(1, std::memory_order_relaxed);
            // Hold every worker until all four tasks are in flight, proving
            // four distinct threads executed concurrently.
            while (rendezvous.load(std::memory_order_relaxed) < 4) {
                std::this_thread::yield();
            }
            std::scoped_lock lock(mu);
            seen.insert(std::this_thread::get_id());
        });
    }
    pool.wait_idle();
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ThreadPool, NullTaskViolatesContract) {
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit(nullptr), util::ContractViolation);
}

TEST(ThreadPool, ThrowingTaskIsCapturedAndSiblingsStillRun) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 60; ++i) {
        pool.submit([&ran, i] {
            if (i % 10 == 3) throw std::runtime_error("task blew up");
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    }
    pool.wait_idle();
    // One poisoned task per batch of ten; every sibling still completed and
    // the pool is still healthy enough to run more work.
    EXPECT_EQ(ran.load(), 54);
    EXPECT_EQ(pool.tasks_failed(), 6u);
    EXPECT_EQ(pool.tasks_executed(), 60u);
    const std::vector<std::string> errors = pool.take_task_errors();
    ASSERT_EQ(errors.size(), 6u);
    EXPECT_EQ(errors[0], "task blew up");
    EXPECT_TRUE(pool.take_task_errors().empty());  // drained

    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 55);
}

// ------------------------------------------------------------ seed derivation

TEST(SeedDerivation, StableAndDecorrelated) {
    EXPECT_EQ(derive_task_seed(1, 0), derive_task_seed(1, 0));
    EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(1, 1));
    EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(2, 0));
    // Adjacent indices must produce well-mixed seeds, not consecutive ones.
    const std::uint64_t a = derive_task_seed(7, 10);
    const std::uint64_t b = derive_task_seed(7, 11);
    EXPECT_GT(a > b ? a - b : b - a, 1u << 20);
}

// ------------------------------------------------------------------ the sweep

Experiment tiny_experiment() {
    Experiment e;
    e.name = "tiny";
    e.description = "test experiment";
    e.make_tasks = [](const SweepOptions&) {
        std::vector<Task> tasks;
        for (int point = 0; point < 3; ++point) {
            for (int rep = 0; rep < 4; ++rep) {
                Task t;
                // Appended: GCC 12 at -O3 raises a false -Wrestrict on
                // "p" + std::to_string(), which -Werror builds reject.
                t.point = "p";
                t.point += std::to_string(point);
                t.rep = rep;
                t.params = {{"point", std::to_string(point)}};
                t.fn = [point](const TaskContext& ctx) {
                    // Deterministic per-task value from the derived seed.
                    util::Rng rng(ctx.seed);
                    return Result{}
                        .metric("x", rng.next_double() + point)
                        .metric("index", static_cast<double>(ctx.index));
                };
                tasks.push_back(std::move(t));
            }
        }
        return tasks;
    };
    return e;
}

SweepReport run_tiny(unsigned jobs) {
    SweepOptions options;
    options.jobs = jobs;
    options.seed = 1234;
    options.quiet = true;
    return run_sweep(tiny_experiment(), options, nullptr);
}

TEST(Sweep, MetricPayloadIsByteIdenticalForAnyJobCount) {
    const std::string serial = report_to_json(run_tiny(1), false).dump(2);
    const std::string fanned = report_to_json(run_tiny(4), false).dump(2);
    const std::string wide = report_to_json(run_tiny(13), false).dump(2);
    EXPECT_EQ(serial, fanned);
    EXPECT_EQ(serial, wide);
}

TEST(Sweep, OutcomesStayInTaskIndexOrder) {
    const SweepReport report = run_tiny(8);
    ASSERT_EQ(report.tasks.size(), 12u);
    for (std::size_t i = 0; i < report.tasks.size(); ++i) {
        EXPECT_EQ(report.tasks[i].result.value_of("index"), static_cast<double>(i));
    }
}

TEST(Sweep, AggregatesMeanAndStdevAcrossReps) {
    const SweepReport report = run_tiny(4);
    ASSERT_EQ(report.points.size(), 3u);
    for (const PointAggregate& p : report.points) {
        EXPECT_EQ(p.reps, 4);
        ASSERT_FALSE(p.metrics.empty());
        const MetricAggregate& x = p.metrics[0];
        EXPECT_EQ(x.name, "x");
        EXPECT_EQ(x.n, 4u);
        EXPECT_GE(x.max, x.mean);
        EXPECT_LE(x.min, x.mean);
        EXPECT_GT(x.stdev, 0.0);  // four distinct seeds -> spread
    }
    // Cross-check one mean by hand.
    const SweepReport& r = report;
    double sum = 0.0;
    for (const TaskOutcome& t : r.tasks) {
        if (t.point == "p1") sum += t.result.value_of("x");
    }
    EXPECT_NEAR(r.metric_mean("p1", "x"), sum / 4.0, 1e-12);
}

TEST(Sweep, TaskExceptionIsRecordedNotFatal) {
    Experiment e;
    e.name = "throwing";
    e.make_tasks = [](const SweepOptions&) {
        std::vector<Task> tasks;
        for (int i = 0; i < 3; ++i) {
            Task t;
            t.point = "p" + std::to_string(i);
            t.fn = [i](const TaskContext&) -> Result {
                if (i == 1) throw std::runtime_error("boom");
                return Result{}.metric("ok", 1.0);
            };
            tasks.push_back(std::move(t));
        }
        return tasks;
    };
    SweepOptions options;
    options.jobs = 2;
    options.quiet = true;
    const SweepReport report = run_sweep(e, options, nullptr);
    EXPECT_EQ(report.task_errors, 1);
    EXPECT_FALSE(report.tasks[1].ok);
    EXPECT_EQ(report.tasks[1].error, "boom");
    EXPECT_EQ(report.points.size(), 2u);  // failed task contributes no point
    const std::string json = report_to_json(report, false).dump(0);
    EXPECT_NE(json.find("\"task_errors\""), std::string::npos);
}

TEST(Sweep, FailedChecksAreCountedAndSerialized) {
    Experiment e;
    e.name = "checked";
    e.make_tasks = [](const SweepOptions&) {
        Task t;
        t.point = "gate";
        t.fn = [](const TaskContext&) { return Result{}.metric("x", 3.0); };
        return std::vector<Task>{std::move(t)};
    };
    e.evaluate = [](SweepReport& report, std::ostream&) {
        const double x = report.metric_mean("gate", "x");
        report.checks.push_back({"criterion A", "1", "1", true});
        report.checks.push_back({"criterion B", "2", std::to_string(x), x == 2.0});
    };
    SweepOptions options;
    options.jobs = 1;
    options.quiet = true;
    SweepReport report = run_sweep(e, options, nullptr);
    std::ostringstream verdicts;
    e.evaluate(report, verdicts);
    EXPECT_EQ(report.failed_checks(), 1);
    const std::string json = report_to_json(report, false).dump(0);
    EXPECT_NE(json.find("criterion B"), std::string::npos);
    EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
    EXPECT_NE(json.find("\"failed_checks\":1"), std::string::npos);

    // run_and_report (alps-sweep) runs the same hook; the failure is exit 1.
    e.name = "checked_exit_code";
    if (ExperimentRegistry::instance().find(e.name) == nullptr) {
        ExperimentRegistry::instance().add(e);
    }
    EXPECT_EQ(run_and_report(e.name, options), 1);
}

TEST(Sweep, RunSectionCarriesJobsAndWallClock) {
    const SweepReport report = run_tiny(2);
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_GE(report.wall_seconds, 0.0);
    const std::string with_run = report_to_json(report, true).dump(0);
    EXPECT_NE(with_run.find("\"jobs\":2"), std::string::npos);
    EXPECT_NE(with_run.find("\"wall_clock_s\""), std::string::npos);
    const std::string without = report_to_json(report, false).dump(0);
    EXPECT_EQ(without.find("\"run\""), std::string::npos);
}

// ------------------------------------------------------------- sweep flags

/// parse_sweep_args over `args` (the program name is prepended).
bool parse_args(std::vector<std::string> args, SweepOptions& options) {
    std::string program = "alps-sweep";
    std::vector<char*> argv{program.data()};
    for (std::string& a : args) argv.push_back(a.data());
    return parse_sweep_args(static_cast<int>(argv.size()), argv.data(), options);
}

TEST(SweepArgs, AcceptsInRangeValues) {
    SweepOptions options;
    ASSERT_TRUE(parse_args({"--jobs", "4", "--seed", "18446744073709551615",
                            "--max-attempts", "2147483647", "--only-task", "0",
                            "--ncpus", "64", "--run-timeout", "2.5", "--flash-crowd",
                            "0"},
                           options));
    EXPECT_EQ(options.jobs, 4u);
    EXPECT_EQ(options.seed, 18446744073709551615ULL);
    EXPECT_EQ(options.max_attempts, 2147483647);
    EXPECT_EQ(options.only_task, 0);
    EXPECT_EQ(options.ncpus, 64);
    EXPECT_EQ(options.run_timeout_s, 2.5);
    EXPECT_EQ(options.flash_crowd, 0.0);
}

TEST(SweepArgs, RejectsNegativeCounts) {
    // strtoull reads "-1" as 2^64 - 1: --jobs -1 would ask for four billion
    // workers, and --only-task -1 would run the whole sweep.
    for (const char* flag : {"--jobs", "--seed", "--max-attempts", "--only-task",
                             "--ncpus", "--sites", "--shards"}) {
        SweepOptions options;
        EXPECT_FALSE(parse_args({flag, "-1"}, options)) << flag;
        EXPECT_FALSE(parse_args({flag, " -1"}, options)) << flag;
    }
}

TEST(SweepArgs, RejectsCountsBeyondTheOptionType) {
    SweepOptions options;
    // A truncating cast would make these 0 (= hardware concurrency) and 1.
    EXPECT_FALSE(parse_args({"--jobs", "4294967296"}, options));
    EXPECT_FALSE(parse_args({"--max-attempts", "4294967297"}, options));
    EXPECT_FALSE(parse_args({"--ncpus", "4294967297"}, options));
    EXPECT_FALSE(parse_args({"--only-task", "9223372036854775808"}, options));
    EXPECT_FALSE(parse_args({"--seed", "18446744073709551616"}, options));
    EXPECT_EQ(options.jobs, SweepOptions{}.jobs);
    EXPECT_EQ(options.max_attempts, SweepOptions{}.max_attempts);
}

TEST(SweepArgs, RejectsNonFiniteSeconds) {
    // NaN fails every `< 0` test: --run-timeout nan would disarm the watchdog.
    for (const char* flag : {"--run-timeout", "--flash-crowd"}) {
        for (const char* value : {"nan", "-nan", "inf", "-1"}) {
            SweepOptions options;
            EXPECT_FALSE(parse_args({flag, value}, options)) << flag << " " << value;
        }
    }
}

TEST(SweepEnv, TraceCapacityMustBeAPositiveCount) {
    // Read with bare strtoull, "-1" wrapped to 2^64 - 1 (every traced task
    // then failed its ring reserve) and "12abc" quietly meant a 12-record
    // ring. Like a bad flag, a bad value is refused before any task runs.
    Experiment e = tiny_experiment();
    e.name = "tiny_trace_capacity";
    if (ExperimentRegistry::instance().find(e.name) == nullptr) {
        ExperimentRegistry::instance().add(e);
    }
    SweepOptions options;
    options.quiet = true;
    options.out_dir.clear();
    for (const char* value : {"-1", "12abc", "0", "", " 64", "18446744073709551616"}) {
        ASSERT_EQ(::setenv("ALPS_TRACE_CAPACITY", value, 1), 0);
        EXPECT_EQ(run_and_report(e.name, options), 2) << "'" << value << "'";
    }
    ASSERT_EQ(::setenv("ALPS_TRACE_CAPACITY", "64", 1), 0);
    EXPECT_EQ(run_and_report(e.name, options), 0);
    ::unsetenv("ALPS_TRACE_CAPACITY");
}

// -------------------------------------------------------------------- registry

TEST(Registry, FindAndSortedList) {
    ExperimentRegistry registry;  // local instance; the singleton is for mains
    Experiment b;
    b.name = "bbb";
    b.make_tasks = [](const SweepOptions&) { return std::vector<Task>{}; };
    Experiment a;
    a.name = "aaa";
    a.make_tasks = [](const SweepOptions&) { return std::vector<Task>{}; };
    registry.add(std::move(b));
    registry.add(std::move(a));
    EXPECT_NE(registry.find("aaa"), nullptr);
    EXPECT_EQ(registry.find("zzz"), nullptr);
    const auto list = registry.list();
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0]->name, "aaa");
    EXPECT_EQ(list[1]->name, "bbb");
}

TEST(Registry, DuplicateNameViolatesContract) {
    ExperimentRegistry registry;
    Experiment e;
    e.name = "dup";
    e.make_tasks = [](const SweepOptions&) { return std::vector<Task>{}; };
    registry.add(e);
    EXPECT_THROW(registry.add(e), util::ContractViolation);
}

}  // namespace
}  // namespace alps::harness
