// The cc shootout axis and the ccMetrics row schema.
//
// Pins the three cross-layer guarantees of the pluggable-CC work:
//
//  1. Schema gating: the cwnd-dynamics keys exist exactly when
//     TopologySpec::ccMetrics is set, so legacy rows (and their golden
//     artifacts) are byte-identical.
//
//  2. Determinism: a shootout point is a pure function of (spec, seed) for
//     every strategy, and the cc knob changes the simulation it names.
//
//  3. Acceptance: on the lossy-line shootout's 5% i.i.d. loss point, CERL
//     delivers at least 1.1x stock NewReno's goodput.
#include <gtest/gtest.h>

#include "tcplp/scenario/metrics.hpp"
#include "tcplp/scenario/spec.hpp"
#include "tcplp/scenario/workloads.hpp"
#include "tcplp/tcp/cc.hpp"

using namespace tcplp;
using namespace tcplp::scenario;

namespace {

/// The lossy_line_cc_shootout base (bench/bench_cc_shootout.cpp), inlined
/// so the acceptance gate is pinned even when no bench driver is linked.
ScenarioSpec lossyLineSpec(tcp::CcKind cc, double loss) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kLine;
    s.topology.hops = 3;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 24;
    s.topology.maxFrameRetries = 1;
    s.topology.linkLoss = loss;
    s.topology.ccMetrics = true;
    s.workload.totalBytes = 100000;
    s.workload.windowSegments = 12;
    s.workload.mssFrames = 3;
    s.workload.timeLimit = 20 * sim::kMinute;
    s.workload.cc = cc;
    return s;
}

/// A small bulk run for schema checks: two motes one hop apart.
ScenarioSpec smallPairSpec(bool ccMetrics) {
    ScenarioSpec s;
    s.topology.kind = TopologyKind::kPair;
    s.topology.ccMetrics = ccMetrics;
    s.workload.totalBytes = 4000;
    s.workload.timeLimit = 30 * sim::kSecond;
    return s;
}

const char* const kCcKeys[] = {"cc_name",        "cwnd_min",  "cwnd_max",
                               "cwnd_mean",      "ssthresh_final",
                               "loss_cuts",      "cuts_skipped"};

TEST(CcShootout, CcFromAxisMapsTheCanonicalValues) {
    EXPECT_EQ(ccFromAxis(0.0), tcp::CcKind::kNewReno);
    EXPECT_EQ(ccFromAxis(1.0), tcp::CcKind::kCerl);
    EXPECT_EQ(ccFromAxis(2.0), tcp::CcKind::kWestwood);
}

TEST(CcShootout, BulkRowsCarryCcKeysOnlyWhenTheSpecOptsIn) {
    const MetricRow gated = runScenario(smallPairSpec(true), 3);
    for (const char* key : kCcKeys)
        EXPECT_NE(gated.find(key), nullptr) << key;
    EXPECT_EQ(gated.str("cc_name"), "newreno");
    // A clean short run never cuts and its window summary is sane.
    EXPECT_GE(gated.number("cwnd_max"), gated.number("cwnd_min"));
    EXPECT_GE(gated.number("cwnd_mean"), gated.number("cwnd_min"));

    const MetricRow legacy = runScenario(smallPairSpec(false), 3);
    for (const char* key : kCcKeys)
        EXPECT_EQ(legacy.find(key), nullptr) << key;
    // The knob only adds keys; the simulation itself is untouched.
    EXPECT_EQ(legacy.number("rng_digest"), gated.number("rng_digest"));
    EXPECT_EQ(legacy.number("goodput_kbps"), gated.number("goodput_kbps"));
}

TEST(CcShootout, TwoFlowRowsCarrySuffixedCcKeysWhenGated) {
    ScenarioSpec s;
    s.topology.hops = 1;
    s.topology.retryDelayMax = sim::fromMillis(40);
    s.topology.queueCapacityPackets = 7;
    s.topology.ccMetrics = true;
    s.workload.kind = WorkloadKind::kTwoFlow;
    s.workload.totalBytes = 20000;
    s.workload.timeLimit = 30 * sim::kSecond;
    const MetricRow row = runScenario(s, 2);
    for (const char* suffix : {"_a", "_b"}) {
        for (const char* stem : {"cwnd_min", "cwnd_max", "cwnd_mean",
                                 "ssthresh_final", "loss_cuts", "cuts_skipped"})
            EXPECT_NE(row.find(std::string(stem) + suffix), nullptr)
                << stem << suffix;
    }

    s.topology.ccMetrics = false;
    const MetricRow legacy = runScenario(s, 2);
    EXPECT_EQ(legacy.find("cwnd_min_a"), nullptr);
    EXPECT_EQ(legacy.number("rng_digest"), row.number("rng_digest"));
}

TEST(CcShootout, EveryStrategyIsDeterministicPerSpecAndSeed) {
    for (tcp::CcKind cc :
         {tcp::CcKind::kNewReno, tcp::CcKind::kCerl, tcp::CcKind::kWestwood}) {
        const ScenarioSpec s = lossyLineSpec(cc, 0.02);
        const MetricRow a = runScenario(s, 7);
        const MetricRow b = runScenario(s, 7);
        EXPECT_EQ(toJsonLine(a), toJsonLine(b))
            << tcp::ccName(cc);
    }
}

TEST(CcShootout, TheCcKnobNamesThreeDistinctSimulations) {
    const MetricRow reno = runScenario(lossyLineSpec(tcp::CcKind::kNewReno, 0.02), 7);
    const MetricRow cerl = runScenario(lossyLineSpec(tcp::CcKind::kCerl, 0.02), 7);
    EXPECT_NE(reno.number("rng_digest"), cerl.number("rng_digest"));
    // CERL is the only strategy that ever skips a cut.
    EXPECT_EQ(reno.number("cuts_skipped"), 0.0);
    EXPECT_GT(cerl.number("cuts_skipped"), 0.0);
}

TEST(CcShootout, CerlBeatsNewRenoAtTheNoiseLossGatePoint) {
    // At 5% i.i.d. link loss, loss differentiation must buy measurable
    // goodput: >= 1.1x NewReno. The golden lossy_line_cc_shootout rows read
    // 4.122 vs 2.924 kb/s (1.41x); the margin absorbs retunes, not noise —
    // the run is deterministic.
    const MetricRow reno = runScenario(lossyLineSpec(tcp::CcKind::kNewReno, 0.05), 7);
    const MetricRow cerl = runScenario(lossyLineSpec(tcp::CcKind::kCerl, 0.05), 7);
    EXPECT_GE(cerl.number("goodput_kbps"), 1.1 * reno.number("goodput_kbps"));
    // The mechanism, not just the outcome: CERL skipped cuts NewReno took.
    EXPECT_GT(cerl.number("cuts_skipped"), 0.0);
    EXPECT_LT(cerl.number("loss_cuts"), reno.number("loss_cuts"));
}

}  // namespace
