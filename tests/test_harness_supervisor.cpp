// Supervision-layer tests: the checksummed wire format, the crash-consistent
// sweep journal, --resume determinism, --only-task repro mode, and (where the
// sanitizer allows fork) the RunSupervisor's isolation, retry, watchdog, and
// forensics behaviour.
//
// The fork-based tests are skipped under ThreadSanitizer: TSan's runtime does
// not support forking from a multithreaded process (the sweep pool), and the
// supervisor's own design notes call this out — CI covers isolation in the
// ASan and Release legs instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/journal.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "harness/sink.h"
#include "harness/supervisor.h"
#include "harness/wire.h"
#include "os/kernel.h"
#include "sim/engine.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace_file.h"
#include "util/assert.h"
#include "util/rng.h"

#if defined(__SANITIZE_THREAD__)
#define ALPS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ALPS_TSAN_BUILD 1
#endif
#endif

namespace alps::harness {
namespace {

// ----- helpers -------------------------------------------------------------

/// Unique scratch directory, removed on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& stem) {
        static std::atomic<int> counter{0};
        path_ = (std::filesystem::path(::testing::TempDir()) /
                 (stem + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
        std::filesystem::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    [[nodiscard]] const std::string& str() const { return path_; }

private:
    std::string path_;
};

/// The supervisor's worker-process environment contract (mirrors the
/// chaos_campaign experiment): >= 0 only inside an isolated attempt.
int attempt_from_env() {
    const char* attempt = std::getenv("ALPS_HARNESS_ATTEMPT");
    if (attempt == nullptr || std::getenv("ALPS_HARNESS_ISOLATED") == nullptr) {
        return -1;
    }
    return std::atoi(attempt);
}

TaskOutcome sample_outcome(int salt) {
    TaskOutcome out;
    out.point = "p" + std::to_string(salt);
    out.rep = salt;
    out.params = {{"alpha", "a" + std::to_string(salt)}, {"beta", "b"}};
    out.result.metric("third", 1.0 / 3.0)
        .metric("tenth", 0.1 * salt)
        .metric("neg_zero", -0.0)
        .metric("denormal", std::numeric_limits<double>::denorm_min())
        .metric("huge", 1e308 + salt);
    out.ok = salt % 3 != 0;
    out.error = out.ok ? "" : "err " + std::to_string(salt);
    out.attempts = 1 + salt % 3;
    out.disposition = out.ok ? "ok" : "crashed";
    return out;
}

std::uint64_t bits_of(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

void expect_outcomes_bit_equal(const TaskOutcome& a, const TaskOutcome& b) {
    EXPECT_EQ(a.point, b.point);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.params, b.params);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.disposition, b.disposition);
    ASSERT_EQ(a.result.metrics().size(), b.result.metrics().size());
    for (std::size_t i = 0; i < a.result.metrics().size(); ++i) {
        EXPECT_EQ(a.result.metrics()[i].name, b.result.metrics()[i].name);
        EXPECT_EQ(bits_of(a.result.metrics()[i].value),
                  bits_of(b.result.metrics()[i].value));
    }
}

// ----- wire format ----------------------------------------------------------

TEST(Wire, FrameRoundTripTornTailAndBitFlip) {
    std::string buf;
    wire::append_frame(buf, "hello");
    wire::append_frame(buf, "world!");

    std::string_view payload;
    std::size_t next = 0;
    ASSERT_EQ(wire::extract_frame(buf, 0, payload, next), wire::FrameStatus::kOk);
    EXPECT_EQ(payload, "hello");
    ASSERT_EQ(wire::extract_frame(buf, next, payload, next), wire::FrameStatus::kOk);
    EXPECT_EQ(payload, "world!");
    EXPECT_EQ(next, buf.size());
    // Exactly at end: a stream would keep reading.
    EXPECT_EQ(wire::extract_frame(buf, next, payload, next),
              wire::FrameStatus::kNeedMore);

    // A torn final append is kNeedMore (discardable tail), not corruption.
    const std::size_t second_frame = wire::kFrameHeaderBytes + 5;  // after "hello"
    EXPECT_EQ(wire::extract_frame(std::string_view(buf).substr(0, buf.size() - 3),
                                  second_frame, payload, next),
              wire::FrameStatus::kNeedMore);

    // Any flipped payload bit fails the checksum.
    std::string flipped = buf;
    flipped[wire::kFrameHeaderBytes + 1] ^= 0x10;
    EXPECT_EQ(wire::extract_frame(flipped, 0, payload, next),
              wire::FrameStatus::kCorrupt);
}

TEST(Wire, OutcomeRoundTripsBitExactly) {
    for (int salt = 0; salt < 4; ++salt) {
        const TaskOutcome original = sample_outcome(salt);
        const auto wire_index = static_cast<std::uint64_t>(77 + salt);
        const std::string payload = wire::encode_outcome(wire_index, original);

        std::uint64_t index = 0;
        TaskOutcome decoded;
        ASSERT_TRUE(wire::decode_outcome(payload, index, decoded));
        EXPECT_EQ(index, wire_index);
        expect_outcomes_bit_equal(original, decoded);
        // Re-encoding the decoded outcome reproduces the exact bytes — the
        // property resume determinism rests on.
        EXPECT_EQ(wire::encode_outcome(wire_index, decoded), payload);
    }
}

TEST(Wire, DecodeRejectsTruncatedAndTrailingBytes) {
    const std::string payload = wire::encode_outcome(3, sample_outcome(1));
    std::uint64_t index = 0;
    TaskOutcome out;
    EXPECT_FALSE(wire::decode_outcome(payload.substr(0, payload.size() - 1), index, out));
    EXPECT_FALSE(wire::decode_outcome(payload + "x", index, out));
    EXPECT_FALSE(wire::decode_outcome("", index, out));
}

// ----- journal --------------------------------------------------------------

JournalHeader test_header(std::uint64_t tasks) {
    JournalHeader h;
    h.experiment = "jtest";
    h.seed = 42;
    h.full_scale = false;
    h.kernel_policy = "bsd";
    h.task_count = tasks;
    return h;
}

TEST(Journal, AppendLoadRoundTripInAnyOrder) {
    TempDir dir("journal_rt");
    const std::string path = SweepJournal::path_for(dir.str(), "jtest");

    SweepJournal journal;
    journal.open(path, test_header(3), 0);
    ASSERT_TRUE(journal.is_open());
    journal.append(2, sample_outcome(2));
    journal.append(0, sample_outcome(0));
    journal.append(1, sample_outcome(1));
    journal.close();

    const LoadedJournal loaded = SweepJournal::load(path);
    ASSERT_TRUE(loaded.found);
    EXPECT_TRUE(loaded.header.matches(test_header(3)));
    EXPECT_FALSE(loaded.header.matches(test_header(4)));
    EXPECT_EQ(loaded.discarded_bytes, 0u);
    ASSERT_EQ(loaded.outcomes.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        expect_outcomes_bit_equal(loaded.outcomes.at(static_cast<std::uint64_t>(i)),
                                  sample_outcome(i));
    }
}

TEST(Journal, TornTailIsDiscardedAndAppendableAfterTruncation) {
    TempDir dir("journal_tear");
    const std::string path = SweepJournal::path_for(dir.str(), "jtest");
    {
        SweepJournal journal;
        journal.open(path, test_header(3), 0);
        journal.append(0, sample_outcome(0));
        journal.append(1, sample_outcome(1));
    }
    // kill -9 mid-append: the file ends inside the final frame.
    const auto full_size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full_size - 5);

    const LoadedJournal torn = SweepJournal::load(path);
    ASSERT_TRUE(torn.found);
    EXPECT_EQ(torn.outcomes.size(), 1u);
    EXPECT_EQ(torn.discarded_bytes, full_size - 5 - torn.valid_bytes);
    EXPECT_GT(torn.discarded_bytes, 0u);

    // Resume path: truncate to the valid prefix, append the re-run.
    {
        SweepJournal journal;
        journal.open(path, test_header(3), torn.valid_bytes);
        journal.append(1, sample_outcome(1));
        journal.append(2, sample_outcome(2));
    }
    const LoadedJournal healed = SweepJournal::load(path);
    ASSERT_TRUE(healed.found);
    EXPECT_EQ(healed.outcomes.size(), 3u);
    EXPECT_EQ(healed.discarded_bytes, 0u);
}

TEST(Journal, BitFlipInvalidatesSuffixOnly) {
    TempDir dir("journal_flip");
    const std::string path = SweepJournal::path_for(dir.str(), "jtest");
    {
        SweepJournal journal;
        journal.open(path, test_header(3), 0);
        for (int i = 0; i < 3; ++i) {
            journal.append(static_cast<std::uint64_t>(i), sample_outcome(i));
        }
    }
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        data = ss.str();
    }
    std::string flipped = data;
    flipped[flipped.size() / 2] ^= 0x04;  // inside the middle record
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
    }
    const LoadedJournal loaded = SweepJournal::load(path);
    ASSERT_TRUE(loaded.found);
    EXPECT_LT(loaded.outcomes.size(), 3u);
    EXPECT_GT(loaded.discarded_bytes, 0u);
}

TEST(Journal, CorruptHeaderMeansNoJournal) {
    TempDir dir("journal_hdr");
    const std::string path = SweepJournal::path_for(dir.str(), "jtest");
    {
        SweepJournal journal;
        journal.open(path, test_header(3), 0);
        journal.append(0, sample_outcome(0));
    }
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);  // inside the header frame
    f.put('\xee');
    f.close();
    const LoadedJournal loaded = SweepJournal::load(path);
    EXPECT_FALSE(loaded.found);
    EXPECT_TRUE(loaded.outcomes.empty());

    EXPECT_FALSE(SweepJournal::load(dir.str() + "/missing.journal").found);
}

// ----- sweep resume ---------------------------------------------------------

/// 8-task experiment whose metrics are pure functions of the derived seed;
/// `executions` counts real task-fn invocations (resumed slots must not run).
Experiment counting_experiment(std::atomic<int>* executions) {
    Experiment e;
    e.name = "tiny_sup";
    e.description = "supervision test experiment";
    e.make_tasks = [executions](const SweepOptions&) {
        std::vector<Task> tasks;
        for (int point = 0; point < 4; ++point) {
            for (int rep = 0; rep < 2; ++rep) {
                Task t;
                t.point = "p";
                t.point += std::to_string(point);
                t.rep = rep;
                t.params = {{"point", std::to_string(point)}};
                t.fn = [executions](const TaskContext& ctx) {
                    if (executions != nullptr) {
                        executions->fetch_add(1, std::memory_order_relaxed);
                    }
                    util::Rng rng(ctx.seed);
                    return Result{}
                        .metric("x", rng.next_double())
                        .metric("seed_lo",
                                static_cast<double>(ctx.seed & 0xffffffffULL))
                        .metric("index", static_cast<double>(ctx.index));
                };
                tasks.push_back(std::move(t));
            }
        }
        return tasks;
    };
    return e;
}

TEST(SweepResume, SkipsJournaledTasksAndPayloadIsByteIdentical) {
    std::atomic<int> executions{0};
    const Experiment experiment = counting_experiment(&executions);

    SweepOptions base;
    base.jobs = 2;
    base.seed = 905;
    base.quiet = true;
    const SweepReport baseline = run_sweep(experiment, base, nullptr);
    const std::string baseline_payload = report_to_json(baseline, false).dump(2);
    ASSERT_EQ(executions.load(), 8);

    for (const unsigned jobs : {1u, 3u, 8u}) {
        TempDir dir("resume_jobs" + std::to_string(jobs));
        // A sweep died after completing tasks 0, 1, 2, and 5.
        JournalHeader header;
        header.experiment = experiment.name;
        header.seed = base.seed;
        header.full_scale = false;
        header.kernel_policy = "";
        header.task_count = 8;
        {
            SweepJournal journal;
            journal.open(SweepJournal::path_for(dir.str(), experiment.name), header, 0);
            for (const std::uint64_t i : {0u, 1u, 2u, 5u}) {
                journal.append(i, baseline.tasks[i]);
            }
        }

        executions.store(0);
        SweepOptions options = base;
        options.jobs = jobs;
        options.resume = true;
        options.out_dir = dir.str();
        const SweepReport resumed = run_sweep(experiment, options, nullptr);
        EXPECT_EQ(executions.load(), 4) << "resumed tasks must not re-run";
        EXPECT_EQ(report_to_json(resumed, false).dump(2), baseline_payload);
        const std::string telemetry = resumed.telemetry.dump(0);
        EXPECT_NE(telemetry.find("\"harness.journal_resumes\":4"), std::string::npos)
            << telemetry;

        // The journal now covers the whole sweep: a second resume runs nothing
        // and still reproduces the payload.
        executions.store(0);
        const SweepReport again = run_sweep(experiment, options, nullptr);
        EXPECT_EQ(executions.load(), 0);
        EXPECT_EQ(report_to_json(again, false).dump(2), baseline_payload);
    }
}

TEST(SweepResume, MismatchedJournalHeaderThrows) {
    std::atomic<int> executions{0};
    const Experiment experiment = counting_experiment(&executions);
    TempDir dir("resume_mismatch");

    JournalHeader header;
    header.experiment = experiment.name;
    header.seed = 111;  // journal from a different seed
    header.task_count = 8;
    {
        SweepJournal journal;
        journal.open(SweepJournal::path_for(dir.str(), experiment.name), header, 0);
    }

    SweepOptions options;
    options.jobs = 1;
    options.seed = 905;
    options.quiet = true;
    options.resume = true;
    options.out_dir = dir.str();
    EXPECT_THROW(run_sweep(experiment, options, nullptr), std::runtime_error);
}

TEST(SweepResume, JournalOfAnotherGridWithTheSameShapeThrows) {
    // The header matches (experiment, seed, scale, policy, task count), but
    // the tasks behind the indices differ: many_core --ncpus 16 resumed as
    // --ncpus 64. Replaying it would report the wrong grid.
    std::atomic<int> executions{0};
    const Experiment experiment = counting_experiment(&executions);
    TempDir dir("resume_grid");
    SweepOptions options;
    options.jobs = 1;
    options.seed = 907;
    options.quiet = true;
    options.journal = true;
    options.out_dir = dir.str();
    (void)run_sweep(experiment, options, nullptr);
    const std::string path = SweepJournal::path_for(dir.str(), experiment.name);
    const auto read_file = [&path] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        return bytes.str();
    };
    const std::string journal_bytes = read_file();
    ASSERT_FALSE(journal_bytes.empty());

    const std::vector<std::function<void(Task&)>> regrid = {
        [](Task& t) { t.point = "ncpus64/" + t.point; },
        [](Task& t) { t.rep += 1; },
        [](Task& t) { t.params.emplace_back("ncpus", "64"); },
    };
    options.journal = false;
    options.resume = true;
    for (std::size_t i = 0; i < regrid.size(); ++i) {
        Experiment other = experiment;
        other.make_tasks = [&experiment, &change = regrid[i]](const SweepOptions& o) {
            std::vector<Task> tasks = experiment.make_tasks(o);
            change(tasks[3]);
            return tasks;
        };
        executions.store(0);
        EXPECT_THROW((void)run_sweep(other, options, nullptr), std::runtime_error) << i;
        EXPECT_EQ(executions.load(), 0) << i;
        EXPECT_EQ(read_file(), journal_bytes) << "the refused journal stays intact";
    }
}

TEST(Journal, OlderFormatIsNotReplayed) {
    // A version-1 journal (outcome records still carried per-task criteria)
    // with a matching identity: load() must not read it as this format.
    TempDir dir("journal_v1");
    const std::string path = dir.str() + "/old.journal";
    std::string bytes = "ALPSJRN1";
    wire::Encoder header;
    header.u8(wire::kHeaderRecord);
    header.u32(1);
    header.str("jtest");
    header.u64(42);
    header.u8(0);
    header.str("bsd");
    header.u64(1);
    wire::append_frame(bytes, header.take());
    std::string outcome = wire::encode_outcome(0, sample_outcome(1));
    outcome.append(4, '\0');  // the v1 record's empty criterion list
    wire::append_frame(bytes, outcome);
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    const LoadedJournal loaded = SweepJournal::load(path);
    EXPECT_FALSE(loaded.found);
    EXPECT_TRUE(loaded.outcomes.empty());
}

TEST(Sweep, OnlyTaskKeepsOriginalIndexAndSeed) {
    std::atomic<int> executions{0};
    const Experiment experiment = counting_experiment(&executions);

    SweepOptions base;
    base.jobs = 2;
    base.seed = 906;
    base.quiet = true;
    const SweepReport baseline = run_sweep(experiment, base, nullptr);

    SweepOptions repro = base;
    repro.only_task = 5;
    executions.store(0);
    const SweepReport single = run_sweep(experiment, repro, nullptr);
    EXPECT_EQ(executions.load(), 1);
    ASSERT_EQ(single.tasks.size(), 1u);
    EXPECT_EQ(single.tasks[0].point, baseline.tasks[5].point);
    EXPECT_EQ(single.tasks[0].rep, baseline.tasks[5].rep);
    EXPECT_EQ(bits_of(single.tasks[0].result.value_of("x")),
              bits_of(baseline.tasks[5].result.value_of("x")));
    EXPECT_EQ(single.tasks[0].result.value_of("index"), 5.0);

    repro.only_task = 99;
    EXPECT_THROW(run_sweep(experiment, repro, nullptr), std::runtime_error);
}

// ----- isolation (fork) -----------------------------------------------------

#ifdef ALPS_TSAN_BUILD
#define ALPS_SKIP_UNDER_TSAN() \
    GTEST_SKIP() << "fork-based isolation is unsupported under TSan"
#else
#define ALPS_SKIP_UNDER_TSAN() (void)0
#endif

TEST(SupervisorIsolated, CleanIsolatedPayloadMatchesInline) {
    ALPS_SKIP_UNDER_TSAN();
    const Experiment experiment = counting_experiment(nullptr);
    SweepOptions options;
    options.jobs = 2;
    options.seed = 907;
    options.quiet = true;
    const std::string inline_payload =
        report_to_json(run_sweep(experiment, options, nullptr), false).dump(2);

    TempDir dir("iso_clean");
    options.isolate = true;
    options.out_dir = dir.str();
    const SweepReport isolated = run_sweep(experiment, options, nullptr);
    EXPECT_EQ(report_to_json(isolated, false).dump(2), inline_payload);
    for (const TaskOutcome& t : isolated.tasks) {
        EXPECT_TRUE(t.ok);
        EXPECT_EQ(t.attempts, 1);
        EXPECT_EQ(t.disposition, "ok");
    }
}

/// One task misbehaves per the given mode (under the env contract only);
/// three siblings stay clean.
Experiment faulty_experiment(const std::string& mode) {
    Experiment e;
    e.name = "faulty";
    e.tolerate_task_errors = true;
    e.make_tasks = [mode](const SweepOptions&) {
        std::vector<Task> tasks;
        for (int i = 0; i < 4; ++i) {
            Task t;
            t.point = (i == 1 ? "victim" : "sibling" + std::to_string(i));
            t.fn = [mode, i](const TaskContext& ctx) {
                if (i == 1) {
                    const int attempt = attempt_from_env();
                    if (mode == "flaky" && attempt == 0) std::abort();
                    if (mode == "always" && attempt >= 0) std::abort();
                    if (mode == "guard" && attempt >= 0) ALPS_GUARD(1 + 1 == 3);
                    if (mode == "cpu_guard" && attempt >= 0) {
                        // A real corruption guard, not a synthetic condition:
                        // the kernel's per-CPU accessors bounds-check their
                        // cpu index under ALPS_GUARD, and a chaos task that
                        // trips one must be classified exactly like any other
                        // SIGABRT.
                        sim::Engine engine;
                        os::Kernel kernel(engine, nullptr,
                                          os::KernelConfig{.ncpus = 2});
                        (void)kernel.running_pid_on(2);
                    }
                    if (mode == "throw") {
                        throw std::invalid_argument("bad chaos input");
                    }
                }
                util::Rng rng(ctx.seed);
                return Result{}.metric("x", rng.next_double());
            };
            tasks.push_back(std::move(t));
        }
        return tasks;
    };
    return e;
}

SweepReport run_faulty(const std::string& mode, const TempDir& dir,
                       int max_attempts = 3) {
    SweepOptions options;
    options.jobs = 2;
    options.seed = 908;
    options.quiet = true;
    options.isolate = true;
    options.max_attempts = max_attempts;
    options.out_dir = dir.str();
    return run_sweep(faulty_experiment(mode), options, nullptr);
}

TEST(SupervisorIsolated, TransientCrashIsRetriedToSuccess) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_flaky");
    const SweepReport report = run_faulty("flaky", dir);
    ASSERT_EQ(report.tasks.size(), 4u);
    const TaskOutcome& victim = report.tasks[1];
    EXPECT_TRUE(victim.ok);
    EXPECT_EQ(victim.attempts, 2);
    EXPECT_EQ(victim.disposition, "ok");
    const std::string telemetry = report.telemetry.dump(0);
    EXPECT_NE(telemetry.find("\"harness.runs_retried\":1"), std::string::npos);
    EXPECT_NE(telemetry.find("\"harness.runs_quarantined\":0"), std::string::npos);
}

TEST(SupervisorIsolated, PersistentCrashIsQuarantinedAndSiblingsComplete) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_loop");
    const SweepReport report = run_faulty("always", dir);
    ASSERT_EQ(report.tasks.size(), 4u);
    const TaskOutcome& victim = report.tasks[1];
    EXPECT_FALSE(victim.ok);
    EXPECT_EQ(victim.attempts, 3);
    EXPECT_EQ(victim.disposition, "crashed");
    EXPECT_NE(victim.error.find("signal"), std::string::npos) << victim.error;
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_TRUE(report.tasks[i].ok) << "sibling " << i << " poisoned";
    }
    EXPECT_EQ(report.task_errors, 1);
    const std::string telemetry = report.telemetry.dump(0);
    EXPECT_NE(telemetry.find("\"harness.runs_quarantined\":1"), std::string::npos);
}

TEST(SupervisorIsolated, GuardAbortIsClassifiedAsCrash) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_guard");
    const SweepReport report = run_faulty("guard", dir, /*max_attempts=*/2);
    const TaskOutcome& victim = report.tasks[1];
    EXPECT_FALSE(victim.ok);
    EXPECT_EQ(victim.disposition, "crashed");
    EXPECT_EQ(victim.attempts, 2);
}

TEST(SupervisorIsolated, KernelCpuBoundsGuardIsQuarantinedWithRepro) {
    ALPS_SKIP_UNDER_TSAN();
    // End-to-end forensics on the kernel's own cpu-index guard: a task that
    // reads running_pid_on(ncpus) aborts via ALPS_GUARD in the worker
    // process, the supervisor quarantines it after max_attempts, siblings
    // survive, and the outcome carries the signal-death evidence a repro
    // command needs.
    TempDir dir("iso_cpu_guard");
    const SweepReport report = run_faulty("cpu_guard", dir, /*max_attempts=*/2);
    ASSERT_EQ(report.tasks.size(), 4u);
    const TaskOutcome& victim = report.tasks[1];
    EXPECT_FALSE(victim.ok);
    EXPECT_EQ(victim.disposition, "crashed");
    EXPECT_EQ(victim.attempts, 2);
    EXPECT_NE(victim.error.find("signal"), std::string::npos) << victim.error;
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_TRUE(report.tasks[i].ok) << "sibling " << i << " poisoned";
    }
}

TEST(SupervisorIsolated, DeterministicExceptionIsNotRetried) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_throw");
    const SweepReport report = run_faulty("throw", dir);
    const TaskOutcome& victim = report.tasks[1];
    EXPECT_FALSE(victim.ok);
    EXPECT_EQ(victim.attempts, 1);  // retrying a pure function cannot help
    EXPECT_EQ(victim.disposition, "failed");
    EXPECT_EQ(victim.error, "bad chaos input");
}

TEST(SupervisorIsolated, WatchdogKillsStalledRunAndForensicsHasRepro) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_stall");

    SupervisorConfig cfg;
    cfg.isolate = true;
    cfg.run_timeout_s = 0.3;
    cfg.max_attempts = 1;
    cfg.forensics_dir = dir.str();
    ReproInfo repro;
    repro.experiment = "stall_exp";
    repro.seed = 99;
    telemetry::MetricsRegistry metrics;
    std::ostringstream forensics;
    const RunSupervisor supervisor(cfg, repro, &metrics, &forensics);

    Task task;
    task.point = "stall";
    task.fn = [](const TaskContext&) {
        for (int i = 0; i < 3000; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return Result{};
    };
    TaskContext ctx;
    ctx.index = 7;
    const TaskOutcome out = supervisor.run(task, ctx);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.disposition, "timeout");
    EXPECT_EQ(out.attempts, 1);
    EXPECT_NE(out.error.find("watchdog"), std::string::npos) << out.error;
    EXPECT_EQ(metrics.counter("harness.watchdog_kills").value(), 1u);
    EXPECT_EQ(metrics.counter("harness.runs_quarantined").value(), 1u);

    const std::string bundle = forensics.str();
    EXPECT_NE(bundle.find("run death"), std::string::npos) << bundle;
    EXPECT_NE(bundle.find("--only-task 7"), std::string::npos) << bundle;
    EXPECT_NE(bundle.find("alps-sweep --experiment stall_exp --seed 99"),
              std::string::npos)
        << bundle;
    EXPECT_EQ(supervisor.repro_command(7),
              "alps-sweep --experiment stall_exp --seed 99 --only-task 7 "
              "--isolate --max-attempts 1 --run-timeout 0.3");
}

TEST(SupervisorIsolated, CrashLeavesFlightRecorderDump) {
    ALPS_SKIP_UNDER_TSAN();
    TempDir dir("iso_dump");

    SupervisorConfig cfg;
    cfg.isolate = true;
    cfg.max_attempts = 1;
    cfg.forensics_dir = dir.str();
    ReproInfo repro;
    repro.experiment = "dump_exp";
    telemetry::MetricsRegistry metrics;
    std::ostringstream forensics;
    const RunSupervisor supervisor(cfg, repro, &metrics, &forensics);

    Task task;
    task.point = "dumper";
    task.fn = [](const TaskContext&) -> Result {
        // The supervisor attaches a wrap-mode session in the worker, so this
        // telemetry lands in the flight recorder's rings before the crash.
        for (std::uint64_t i = 0; i < 50; ++i) {
            telemetry::set_now_ns(i);
            telemetry::instant(telemetry::kNameTick, 0, i);
        }
        std::abort();
    };
    TaskContext ctx;
    ctx.index = 3;
    const TaskOutcome out = supervisor.run(task, ctx);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.disposition, "crashed");

    const std::string trace_path = dir.str() + "/dump_exp_task3_attempt1.alpstrace";
    ASSERT_TRUE(std::filesystem::exists(trace_path))
        << "forensics bundle: " << forensics.str();
    const telemetry::TraceFile trace = telemetry::read_trace_file(trace_path);
    ASSERT_EQ(trace.records.size(), 50u);
    EXPECT_EQ(trace.records.front().scope, 3u);  // scoped to the task index
    EXPECT_NE(forensics.str().find(trace_path), std::string::npos);
}

}  // namespace
}  // namespace alps::harness
