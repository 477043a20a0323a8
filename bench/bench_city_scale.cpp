// City-scale grid: scenario::cityScaleSpec() — 1,024 mesh nodes with 24
// saturating mixed-direction TCP flows spread evenly across the grid, all on
// one core. Rows carry the datapath counters (slab-pool recycle split,
// SmallFn and prepend heap fallbacks, neighbor-cache rebuilds); the golden
// corpus pins a reduced 120-node, 15-second run, and tcplp_steady_alloc pins
// that run's steady-state heap bound. Host speed on this topology is measured
// by the repository benchmark's city_bulk workload (benchmark/README.md).
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
        std::printf("%-6s %9s %10s %6s %11s %9s %8s %8s\n", "Seed", "frames",
                    "kb/s", "Jain", "visits/frm", "recycled", "smallfn", "prepend");
        for (const auto& record : r.records) {
            const auto& row = record.row;
            const double frames = row.number("frames_tx");
            const double recycled = row.number("pool_recycled");
            const double fresh = row.number("pool_fresh");
            std::printf("%-6llu %9.0f %10.1f %6.2f %11.1f %8.1f%% %8.0f %8.0f\n",
                        static_cast<unsigned long long>(record.point.seed), frames,
                        row.number("aggregate_kbps"), row.number("jain_fairness"),
                        row.number("listener_visits") / std::max(1.0, frames),
                        100.0 * recycled / std::max(1.0, recycled + fresh),
                        row.number("smallfn_heap_fallbacks"),
                        row.number("prepend_fallbacks"));
        }
    };
    return d;
}

Registration reg{def()};
}  // namespace
