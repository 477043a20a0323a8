// 200-node dense grid stress: many concurrent TCP flows criss-crossing a
// grid an order of magnitude denser than the 15-node office — the workload
// the PR 2 spatial channel index was built for, and one the old
// one-file-per-figure bench structure made awkward to express.
//
// Six flows (mixed uplink/downlink) run from nodes spread across the grid
// while all 200 radios contend for the medium; the row reports per-flow and
// aggregate goodput, Jain fairness, and the listener-visit count that shows
// the index examining neighborhoods instead of all 200 radios.
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "grid200_dense";
    d.title = "Dense 200-node grid: multi-flow TCP over the spatial channel index";
    // Shared preset (also behind bench_city_scale's engine A/B): six
    // saturating mixed-direction flows spread across the grid, so goodput
    // and fairness measure the medium, not the byte budget.
    d.base = scenario::grid200DenseSpec();
    // Independent per-point RNG streams (sim::Rng::deriveStream): grid
    // points are their own replications, not paper seed lists.
    d.deriveSeeds = true;
    d.baseSeed = 42;
    d.seeds = {1, 2};
    d.present = [](const SweepResult& r) {
        std::printf("%-8s %-6s %-6s %12s\n", "Flow", "Node", "Dir", "kb/s (mean)");
        for (std::size_t f = 0; f < 6; ++f) {
            const std::string key = "flow" + std::to_string(f) + "_kbps";
            double sum = 0.0;
            for (const auto& record : r.records) sum += record.row.number(key);
            const auto& first = r.records.front().row;
            std::printf("%-8zu %-6.0f %-6s %12.1f\n", f,
                        first.number("flow" + std::to_string(f) + "_node"),
                        first.str("flow" + std::to_string(f) + "_dir").c_str(),
                        sum / double(r.records.size()));
        }
        double aggregate = 0.0, fairness = 0.0, visits = 0.0, frames = 0.0;
        for (const auto& record : r.records) {
            aggregate += record.row.number("aggregate_kbps");
            fairness += record.row.number("jain_fairness");
            visits += record.row.number("listener_visits");
            frames += record.row.number("frames_tx");
        }
        const double n = double(r.records.size());
        std::printf("\naggregate %.1f kb/s, Jain fairness %.2f\n", aggregate / n,
                    fairness / n);
        std::printf("listener visits/frame: %.1f (vs %.0f for a linear scan of 200 "
                    "radios)\n",
                    visits / std::max(1.0, frames), 199.0);
    };
    return d;
}

Registration reg{def()};
}  // namespace
