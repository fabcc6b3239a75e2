// The §5 web-experiment golden: the rebuilt traffic/web stack must
// reproduce the seed closed-loop experiment's JSON bit-identically (3
// bulletin-board sites, 325 clients each, kernel-only and ALPS 1:2:3).
//
// The fixture was captured from the pre-rebuild web model, so this test is
// the compatibility contract for the whole chain: ClientPool ->
// traffic::Generator (closed-loop mode) -> WebSite on the SoA request
// table. Any change to an rng draw site, a draw order, or an event
// scheduling order in that chain shows up here as a diff. A change that
// moves the schedule on purpose re-records it:
//   ALPS_REGEN_GOLDEN=1 ./test_web --gtest_filter='WebGolden.*'
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/json.h"
#include "web/experiment.h"

namespace alps::web {
namespace {

util::Json result_json(const WebExperimentResult& r) {
    util::Json j = util::Json::object();
    util::Json tput = util::Json::array();
    util::Json resp = util::Json::array();
    util::Json done = util::Json::array();
    util::Json workers = util::Json::array();
    for (int i = 0; i < 3; ++i) {
        const auto k = static_cast<std::size_t>(i);
        tput.push(r.throughput_rps[k]);
        resp.push(r.mean_response_s[k]);
        done.push(r.completed[k]);
        workers.push(r.workers[k]);
    }
    j.set("throughput_rps", std::move(tput));
    j.set("mean_response_s", std::move(resp));
    j.set("completed", std::move(done));
    j.set("workers", std::move(workers));
    j.set("alps_overhead_fraction", r.alps_overhead_fraction);
    j.set("cpu_utilization", r.cpu_utilization);
    return j;
}

TEST(WebGolden, Section5ExperimentIsBitIdenticalToSeed) {
    util::Json doc = util::Json::object();
    {
        WebExperimentConfig cfg;
        cfg.use_alps = false;
        doc.set("kernel_only", result_json(run_web_experiment(cfg)));
    }
    {
        WebExperimentConfig cfg;
        cfg.use_alps = true;
        doc.set("alps_1_2_3", result_json(run_web_experiment(cfg)));
    }
    std::string ours = doc.dump(2);
    ours += "\n";

    const std::string path = std::string(ALPS_GOLDEN_DIR) + "/web_section5.golden";
    if (std::getenv("ALPS_REGEN_GOLDEN") != nullptr) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << ours;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << "missing golden fixture: " << path;
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(golden.str(), ours)
        << "the rebuilt web stack no longer reproduces the seed Section-5 "
           "experiment bit-identically";
}

}  // namespace
}  // namespace alps::web
