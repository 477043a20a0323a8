// Mixed uplink/downlink multi-flow office run: two sensors stream up while
// the cloud pushes firmware-update-style bulk data down to two others, all
// four flows sharing the Fig. 3 tree concurrently — the bidirectional
// contention pattern a real deployment sees, and a scenario the old
// single-flow bench helpers could not express.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "office_multiflow";
    d.title = "Office multi-flow: mixed uplink/downlink over the Fig. 3 tree";
    // Shared preset (scenario::officeMultiflowSpec): sensors 12/14 stream
    // up, 13/15 receive bulk downlink (3-5 hops out), all four flows
    // saturating.
    d.base = scenario::officeMultiflowSpec();
    d.seeds = {1, 2};
    d.present = [](const SweepResult& r) {
        std::printf("%-8s %-6s %-6s %12s %12s\n", "Flow", "Node", "Dir", "kb/s (mean)",
                    "RTT ms");
        for (std::size_t f = 0; f < 4; ++f) {
            const std::string p = "flow" + std::to_string(f);
            double kbps = 0.0, rtt = 0.0;
            for (const auto& record : r.records) {
                kbps += record.row.number(p + "_kbps");
                rtt += record.row.number(p + "_rtt_ms");
            }
            const auto& first = r.records.front().row;
            std::printf("%-8zu %-6.0f %-6s %12.1f %12.0f\n", f,
                        first.number(p + "_node"), first.str(p + "_dir").c_str(),
                        kbps / double(r.records.size()), rtt / double(r.records.size()));
        }
        double aggregate = 0.0, fairness = 0.0;
        for (const auto& record : r.records) {
            aggregate += record.row.number("aggregate_kbps");
            fairness += record.row.number("jain_fairness");
        }
        std::printf("\naggregate %.1f kb/s, Jain fairness %.2f across the four flows\n",
                    aggregate / double(r.records.size()),
                    fairness / double(r.records.size()));
        std::printf("Expect uplink and downlink to coexist without starving either\n"
                    "direction (the RED-queued relays keep tail drops bounded).\n");
    };
    return d;
}

Registration reg{def()};
}  // namespace
