// High-BDP frontier: the RFC 7323 ceiling curves.
//
// The paper's Fig. 5 sweep shows goodput hard-capped at W/RTT once the
// static window binds; with a 16-bit advertised window that cap is 64 KiB
// per RTT no matter how fast the link gets. Two sweeps chart the frontier:
//
//   bdp_pipe  Rate x delay grid on the in-memory pipe, each point run with
//             the stock 16-bit window (wscale=0) and with RFC 7323 scaling
//             plus receive-buffer autotuning (wscale=1). Expected shape:
//             the unscaled rows go flat at ~64KiB/RTT while the scaled rows
//             keep tracking the link rate. The 24 Mb/s x 50 ms point is the
//             ESP32-class gate point.
//   bdp_line  A 2-hop radio line swept over the link preset (802.15.4 vs
//             ESP32-class), MAC aggregation burst size, and wscale — the
//             radio-path version of the same story, plus the A-MPDU-style
//             aggregation axis.
//
// The bdp_pipe presenter closes with the scaled/unscaled goodput ratio at the
// gate point; WindowScale.ScaledGoodputDoublesAtTheEsp32GatePoint
// (tests/test_window_scale.cpp) pins it at >= 2x.
#include "bench/driver.hpp"

namespace {
using namespace bench;

constexpr double kGateRateMbps = 24.0;  // the ESP32-class gate point
constexpr double kGateDelayMs = 50.0;
constexpr std::size_t kBdpBudgetBytes = 512 * 1024;

ScenarioDef lineDef() {
    ScenarioDef d;
    d.name = "bdp_line";
    d.title = "ESP32-class radio line: link preset x MAC aggregation x wscale";
    d.base.topology.kind = TopologyKind::kLine;
    d.base.topology.hops = 2;
    d.base.topology.retryDelayMax = sim::fromMillis(40);  // §7.1 fix
    // Deep enough that a full scaled window fits in flight at the relay —
    // the sweep charts link-rate and MAC effects, not queue-overflow loss.
    d.base.topology.queueCapacityPackets = 64;
    d.base.workload.totalBytes = 2'000'000;
    d.base.workload.timeLimit = 20 * sim::kSecond;
    d.axes = {{"link", {0, 1}}, {"agg", {1, 4}}, {"wscale", {0, 1}}};
    d.seeds = {3};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.linkPreset = scenario::linkPresetFromAxis(p.value("link"));
        s.topology.macAggFrames = scenario::aggFramesFromAxis(p.value("agg"));
        const bool ws = scenario::wscaleFromAxis(p.value("wscale"));
        s.workload.windowScaling = ws;
        if (s.topology.linkPreset == scenario::LinkPreset::kEsp32) {
            // Wire-sized segments and a window that can actually cover the
            // fast link; the mote-side autotune budget is clamped by the
            // preset's NodeConfig tcpRecvBudgetBytes (256 KiB).
            s.workload.mssFrames = 0;
            s.workload.mssBytes = 1220;
            s.workload.windowSegments = 32;
            s.workload.bdpBufferBytes = 128 * 1024;
            if (ws) s.workload.recvAutotuneBudgetBytes = kBdpBudgetBytes;
        } else if (ws) {
            s.workload.recvAutotuneBudgetBytes = 64 * 1024;
        }
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-9s %4s %7s %14s %9s %9s\n", "link", "agg", "wscale",
                    "Goodput kb/s", "RTT ms", "frames");
        for (const auto& record : r.records) {
            const auto& row = record.row;
            std::printf("%-9s %4.0f %7.0f %14.1f %9.1f %9.0f\n",
                        record.point.value("link") >= 0.5 ? "esp32" : "802.15.4",
                        record.point.value("agg"), record.point.value("wscale"),
                        row.number("goodput_kbps"), row.number("rtt_median_ms"),
                        row.number("frames_tx"));
        }
        std::printf("\nExpected shape: the ESP32-class rows run orders of magnitude\n"
                    "above 802.15.4, where the few-KB BDP makes wscale a no-op\n"
                    "(identical rows). On the fast link autotune trades a little\n"
                    "peak goodput for a fraction of the queueing RTT, and\n"
                    "aggregation buys back the CSMA ladder per burst.\n");
    };
    return d;
}

ScenarioDef pipeDef() {
    ScenarioDef d;
    d.name = "bdp_pipe";
    d.title = "BDP ceiling curve: rate x delay, 16-bit window vs RFC 7323 + autotune";
    d.base.topology.kind = TopologyKind::kPipe;
    d.base.workload.mssFrames = 0;
    d.base.workload.mssBytes = 1220;
    d.base.workload.bdpBufferBytes = kBdpBudgetBytes;
    // Rate-limited measurement window: the transfer never completes; the
    // meter reports steady goodput over the delivery interval.
    d.base.workload.totalBytes = 50'000'000;
    d.base.workload.timeLimit = 15 * sim::kSecond;
    d.axes = {{"rate_mbps", {2, 8, kGateRateMbps}},
              {"delay_ms", {10, kGateDelayMs}},
              {"wscale", {0, 1}}};
    d.seeds = {1};
    d.bind = [](ScenarioSpec& s, const Point& p) {
        s.topology.pipeBandwidthBps = p.value("rate_mbps") * 1e6;
        s.topology.pipeOneWayDelay = sim::fromMillis(sim::Time(p.value("delay_ms")));
        const bool ws = scenario::wscaleFromAxis(p.value("wscale"));
        s.workload.windowScaling = ws;
        s.workload.recvAutotuneBudgetBytes = ws ? kBdpBudgetBytes : 0;
    };
    d.present = [](const SweepResult& r) {
        std::printf("%-10s %9s %7s %14s %12s %9s\n", "rate Mb/s", "delay ms",
                    "wscale", "Goodput kb/s", "BDP KiB", "RTT ms");
        for (const auto& record : r.records) {
            const double rate = record.point.value("rate_mbps");
            const double delay = record.point.value("delay_ms");
            const double bdpKib = rate * 1e6 / 8.0 * (2.0 * delay / 1000.0) / 1024.0;
            std::printf("%-10.0f %9.0f %7.0f %14.1f %12.1f %9.1f\n", rate, delay,
                        record.point.value("wscale"),
                        record.row.number("goodput_kbps"), bdpKib,
                        record.row.number("rtt_s") * 1000.0);
        }

        const auto kbpsAt = [&](double wscale) {
            const scenario::RunRecord* rec = r.first({{"rate_mbps", kGateRateMbps},
                                                      {"delay_ms", kGateDelayMs},
                                                      {"wscale", wscale}});
            return rec != nullptr ? rec->row.number("goodput_kbps") : 0.0;
        };
        const double unscaled = kbpsAt(0);
        const double scaled = kbpsAt(1);
        const double ratio = unscaled > 0.0 ? scaled / unscaled : 0.0;
        std::printf("\nScaled vs unscaled goodput at %.0f Mb/s x %.0f ms: %.2fx\n",
                    kGateRateMbps, kGateDelayMs, ratio);
    };
    return d;
}

Registration regLine{lineDef()};
Registration regPipe{pipeDef()};
}  // namespace
