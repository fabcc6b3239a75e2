#include "metrics/cycle_log.h"

#include "util/stats.h"

namespace alps::metrics {

double cycle_rms_error(const core::CycleRecord& rec) {
    double total = 0.0;
    util::Share total_shares = 0;
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        total += static_cast<double>(rec.consumed[i].count());
        total_shares += rec.shares[i];
    }
    if (total <= 0.0 || total_shares == 0) return 0.0;

    std::vector<double> actual(rec.consumed.size());
    std::vector<double> ideal(rec.consumed.size());
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        actual[i] = static_cast<double>(rec.consumed[i].count());
        ideal[i] = total * static_cast<double>(rec.shares[i]) /
                   static_cast<double>(total_shares);
    }
    return util::rms_relative_error(actual, ideal);
}

std::vector<double> cycle_fractions(const core::CycleRecord& rec) {
    double total = 0.0;
    for (const auto& c : rec.consumed) total += static_cast<double>(c.count());
    std::vector<double> out(rec.consumed.size(), 0.0);
    if (total <= 0.0) return out;
    for (std::size_t i = 0; i < rec.consumed.size(); ++i) {
        out[i] = static_cast<double>(rec.consumed[i].count()) / total;
    }
    return out;
}

}  // namespace alps::metrics
