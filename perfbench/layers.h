// The per-layer metrics of a traced run: exact work counters (taken from
// the untraced run through the library's public accessors) and the host
// time split measured from the traced run's spans.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "spans.h"

namespace alps::perfbench {

/// Exact counters by per-layer metric name ("sim.events_fired", ...). A
/// counter a workload does not reach is absent and reported as 0.
using Counters = std::map<std::string, double>;

/// Appends every per-layer metric, in BENCHMARK.json order, to `out`.
/// `overhead_pct` is the traced run's extra host CPU over the untraced run.
void append_layer_metrics(const Counters& counters, const SpanLog& log,
                          double overhead_pct, std::vector<Metric>& out);

}  // namespace alps::perfbench
