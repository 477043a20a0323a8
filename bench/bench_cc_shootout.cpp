// Congestion-control shootout: the pluggable tcp::CongestionControl
// strategies (NewReno / CERL / Westwood, see src/tcplp/tcp/congestion.hpp)
// raced over the two regimes where they should differ:
//
//   fairness_cc_shootout    Table 9's two-flow sharing setup (3 hops,
//                           4-segment windows) per strategy — a sanity check
//                           that the wireless variants do not wreck fairness
//                           in the congestion-loss regime.
//   lossy_line_cc_shootout  The Fig. 9-style line with i.i.d. link loss and
//                           link-layer ARQ capped at one retry, so a
//                           residual stream of radio drops reaches TCP as
//                           noise losses. CERL's loss differentiation should
//                           keep the window open where stock NewReno halves
//                           it.
//
// The lossy presenter closes with CERL's goodput ratio over NewReno at the
// 5%-loss gate point; CcShootout.CerlBeatsNewRenoAtTheNoiseLossGatePoint
// (tests/test_cc_shootout.cpp) pins it at >= 1.1x.
#include "bench/driver.hpp"
#include "tcplp/tcp/cc.hpp"

namespace {
using namespace bench;

constexpr double kGateLoss = 0.05;  // the gate point the ctest pins

ScenarioDef fairnessDef() {
    ScenarioDef d;
    d.name = "fairness_cc_shootout";
    d.title = "Two-flow fairness per congestion-control strategy";
    d.base.workload.kind = WorkloadKind::kTwoFlow;
    d.base.topology.hops = 3;
    d.base.topology.retryDelayMax = sim::fromMillis(40);
    d.base.topology.queueCapacityPackets = 7;  // relay buffer limit
    d.base.topology.ccMetrics = true;
    d.base.workload.windowSegments = 4;
    d.base.workload.totalBytes = 10'000'000;  // saturating for the window
    d.base.workload.timeLimit = 5 * sim::kMinute;
    d.axes = {{"cc", {0, 1, 2}}};
    d.seeds = {2};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.cc = scenario::ccFromAxis(p.value("cc"));
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-10s %15s %6s %12s %12s\n", "CC", "Goodput kb/s", "Fair",
                    "cuts a/b", "skips a/b");
        for (const auto& record : r.records) {
            const auto& row = record.row;
            std::printf("%-10s %6.1f / %-6.1f %6.2f %5.0f /%-5.0f %5.0f /%-5.0f\n",
                        row.str("cc_name").c_str(), row.number("goodput_a_kbps"),
                        row.number("goodput_b_kbps"), row.number("fairness"),
                        row.number("loss_cuts_a"), row.number("loss_cuts_b"),
                        row.number("cuts_skipped_a"), row.number("cuts_skipped_b"));
        }
        std::printf("\nExpected shape: all three strategies share the 4-segment\n"
                    "regime fairly; the wireless variants must not starve a flow.\n");
    };
    return d;
}

ScenarioDef lossyDef() {
    ScenarioDef d;
    d.name = "lossy_line_cc_shootout";
    d.title = "Lossy line: NewReno vs CERL vs Westwood under i.i.d. link loss";
    d.base.topology.kind = TopologyKind::kLine;
    d.base.topology.hops = 3;
    d.base.topology.retryDelayMax = sim::fromMillis(40);
    d.base.topology.queueCapacityPackets = 24;
    // A single link-layer retry: enough ARQ that the channel stays usable,
    // but a residual stream of i.i.d. radio drops still surfaces to TCP as
    // (non-congestion) segment losses — the regime CERL is built for.
    d.base.topology.maxFrameRetries = 1;
    d.base.topology.ccMetrics = true;
    d.base.workload.totalBytes = 100000;
    d.base.workload.windowSegments = 12;
    d.base.workload.mssFrames = 3;
    d.base.workload.timeLimit = 20 * sim::kMinute;
    d.axes = {{"cc", {0, 1, 2}}, {"loss", {0.0, 0.02, kGateLoss, 0.08}}};
    d.seeds = {7};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.workload.cc = scenario::ccFromAxis(p.value("cc"));
        s.topology.linkLoss = p.value("loss");
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-10s %6s %14s %9s %7s %7s\n", "CC", "loss", "Goodput kb/s",
                    "RTOs", "cuts", "skips");
        for (const auto& record : r.records) {
            const auto& row = record.row;
            std::printf("%-10s %5.0f%% %14.3f %9.0f %7.0f %7.0f\n",
                        row.str("cc_name").c_str(),
                        100.0 * record.point.value("loss"),
                        row.number("goodput_kbps"), row.number("timeouts"),
                        row.number("loss_cuts"), row.number("cuts_skipped"));
        }

        const auto kbpsAt = [&](double cc) {
            const scenario::RunRecord* rec = r.first({{"cc", cc}, {"loss", kGateLoss}});
            return rec != nullptr ? rec->row.number("goodput_kbps") : 0.0;
        };
        const double newReno = kbpsAt(0);
        const double cerlVsNewReno = newReno > 0.0 ? kbpsAt(1) / newReno : 0.0;
        std::printf("\nCERL vs NewReno goodput at %.0f%% i.i.d. link loss: %.2fx\n",
                    100.0 * kGateLoss, cerlVsNewReno);
    };
    return d;
}

Registration regFairness{fairnessDef()};
Registration regLossy{lossyDef()};
}  // namespace
