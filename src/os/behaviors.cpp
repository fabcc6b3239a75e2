#include "os/behaviors.h"

#include "util/assert.h"

namespace alps::os {

util::Duration Behavior::lazy_run_duration(ProcContext) {
    // Only behaviours that emit lazy RunActions need to override this.
    return util::Duration::zero();
}

FiniteCpuBehavior::FiniteCpuBehavior(util::Duration total) : total_(total) {
    ALPS_EXPECT(total > util::Duration::zero());
}

Action FiniteCpuBehavior::next_action(ProcContext) {
    if (started_) return ExitAction{};
    started_ = true;
    return RunAction{total_};
}

PhasedIoBehavior::PhasedIoBehavior(util::Duration burst, util::Duration sleep,
                                   util::Duration initial_cpu)
    : burst_(burst), sleep_(sleep), initial_cpu_(initial_cpu) {
    ALPS_EXPECT(burst > util::Duration::zero());
    ALPS_EXPECT(sleep > util::Duration::zero());
    ALPS_EXPECT(initial_cpu >= util::Duration::zero());
}

Action PhasedIoBehavior::next_action(ProcContext) {
    switch (phase_) {
        case Phase::kInitial:
            phase_ = Phase::kSleep;  // after the initial CPU phase, sleep next
            if (initial_cpu_ > util::Duration::zero()) {
                return RunAction{initial_cpu_ + burst_};
            }
            return RunAction{burst_};
        case Phase::kBurst:
            phase_ = Phase::kSleep;
            return RunAction{burst_};
        case Phase::kSleep:
            phase_ = Phase::kBurst;
            return SleepAction{sleep_};  // "doing I/O"
    }
    return ExitAction{};  // unreachable
}

ScriptedBehavior::ScriptedBehavior(std::vector<Action> script, bool repeat)
    : script_(std::move(script)), repeat_(repeat) {
    ALPS_EXPECT(!script_.empty());
}

Action ScriptedBehavior::next_action(ProcContext) {
    if (index_ == script_.size()) {
        if (!repeat_) return ExitAction{};
        index_ = 0;
    }
    return script_[index_++];
}

FunctionBehavior::FunctionBehavior(NextFn next, LazyFn lazy)
    : next_(std::move(next)), lazy_(std::move(lazy)) {
    ALPS_EXPECT(next_ != nullptr);
}

Action FunctionBehavior::next_action(ProcContext ctx) { return next_(ctx); }

util::Duration FunctionBehavior::lazy_run_duration(ProcContext ctx) {
    ALPS_EXPECT(lazy_ != nullptr);
    return lazy_(ctx);
}

}  // namespace alps::os
