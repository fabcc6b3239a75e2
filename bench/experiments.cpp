#include "../bench/experiments.h"

#include <ostream>
#include <string>

namespace alps::bench {

std::string workload_name(workload::ShareModel model, int n) {
    return std::string(workload::to_string(model)) + std::to_string(n);
}

workload::SimRunConfig table2_config(workload::ShareModel model, int n, int quantum_ms,
                                     bool full) {
    workload::SimRunConfig cfg;
    cfg.shares = workload::make_shares(model, n);
    cfg.quantum = util::msec(quantum_ms);
    cfg.measure_cycles = measure_cycles(full);
    return cfg;
}

Criteria::Criteria(harness::SweepReport& report, const std::string& reference)
    : report_(report), table_({"Criterion", reference, "Measured", "Verdict"}) {}

void Criteria::check(const std::string& criterion, const std::string& expected,
                     const std::string& measured, bool ok) {
    table_.add_row({criterion, expected, measured, ok ? "PASS" : "FAIL"});
    report_.checks.push_back({criterion, expected, measured, ok});
}

int Criteria::print(std::ostream& out) const {
    table_.print(out);
    return report_.failed_checks();
}

void register_all_experiments() {
    static const bool once = [] {
        register_fig4_experiment();
        register_scalability_experiment();
        register_fault_campaign_experiment();
        register_chaos_campaign_experiment();
        register_sim_perf_experiment();
        register_policy_zoo_experiment();
        register_many_core_experiment();
        register_web_scale_experiment();
        register_fig6_io_experiment();
        register_multi_alps_experiment();
        register_web_section5_experiment();
        register_mechanisms_experiment();
        return true;
    }();
    (void)once;
}

}  // namespace alps::bench
