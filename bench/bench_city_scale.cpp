// City-scale grid: scenario::cityScaleSpec() — 1,024 mesh nodes with 24
// saturating mixed-direction TCP flows spread evenly across the grid, all on
// one core. The golden corpus pins a reduced 120-node, 15-second run, and
// tcplp_steady_alloc pins that run's steady-state heap bound. Host speed and
// the datapath work counters (slab-pool recycling, SmallFn and prepend
// fallbacks, listener visits) on this topology are measured by the
// repository benchmark's city_bulk workload (benchmark/README.md).
#include "bench/driver.hpp"

namespace {
using namespace bench;

ScenarioDef def() {
    ScenarioDef d;
    d.name = "city_scale";
    d.title = "City-scale grid: 1,024 nodes, 24 flows, one core";
    d.base = scenario::cityScaleSpec();
    d.seeds = {1};
    d.present = [](const SweepResult& r) {
        std::printf("%-6s %9s %10s %6s\n", "Seed", "frames", "kb/s", "Jain");
        for (const auto& record : r.records) {
            const auto& row = record.row;
            std::printf("%-6llu %9.0f %10.1f %6.2f\n",
                        static_cast<unsigned long long>(record.point.seed),
                        row.number("frames_tx"), row.number("aggregate_kbps"),
                        row.number("jain_fairness"));
        }
    };
    return d;
}

Registration reg{def()};
}  // namespace
